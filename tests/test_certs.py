import copy
import random

import pytest

from partreg.certs import (
    SCHEMA_VERSION,
    VerificationError,
    dumps,
    from_window_certificate,
    loads,
    make_certificate,
    matrix_from_json,
    matrix_to_json,
    verify_certificate,
    window_from_json,
    window_to_json,
    witness_from_json,
    witness_to_json,
)
from partreg.polys import parse_poly, poly_to_records
from partreg.rado import LinearSystem, columns_condition
from partreg.reductions import apply_transform
from partreg.rings import INTEGERS, from_int, gf_poly_domain
from partreg.windows import Window, check_window_l_pr, density_window_check

GF2 = gf_poly_domain(2)


def pp(domain, text, var_order=None):
    poly, _ = parse_poly(domain, text, var_order=var_order)
    return poly


SCHUR = pp(INTEGERS, "x + y - z", var_order=["x", "y", "z"])
AP3 = pp(INTEGERS, "x + y - 2*z", var_order=["x", "y", "z"])


def schur_system():
    return LinearSystem(INTEGERS, [[from_int(INTEGERS, c) for c in (1, 1, -1)]])


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_window_json_roundtrip():
    for window in (Window.interval(INTEGERS, 1, 9), Window.enumeration_prefix(GF2, 6)):
        data = window_to_json(window)
        assert window_from_json(window.domain, data) == window


def test_witness_json_roundtrip():
    system = schur_system()
    witness = columns_condition(system)
    data = witness_to_json(witness)
    back = witness_from_json(INTEGERS, data)
    assert back.cells == witness.cells
    assert back.combos == witness.combos


def test_matrix_json_roundtrip():
    system = schur_system()
    back = matrix_from_json(INTEGERS, matrix_to_json(system))
    assert back.entries == system.entries


def test_document_text_roundtrip():
    doc = make_certificate(
        "ColumnsWitness",
        INTEGERS,
        matrix=schur_system(),
        payload=witness_to_json(columns_condition(schur_system())),
    )
    assert loads(dumps(doc)) == doc
    assert dumps(doc) == dumps(loads(dumps(doc)))  # deterministic serialization


# ---------------------------------------------------------------------------
# verification of honestly produced certificates
# ---------------------------------------------------------------------------


def sample_documents():
    docs = []
    system = schur_system()
    docs.append(
        make_certificate(
            "ColumnsWitness",
            INTEGERS,
            matrix=system,
            payload=witness_to_json(columns_condition(system)),
        )
    )
    colorable = check_window_l_pr(SCHUR, Window.interval(INTEGERS, 1, 4), 2)
    docs.append(from_window_certificate(colorable, SCHUR))
    certified = check_window_l_pr(SCHUR, Window.interval(INTEGERS, 1, 5), 2)
    docs.append(from_window_certificate(certified, SCHUR))
    avoider = density_window_check(AP3, Window.interval(INTEGERS, 1, 9), "5/9", injective=True)
    docs.append(from_window_certificate(avoider, AP3))
    dense = density_window_check(AP3, Window.interval(INTEGERS, 1, 9), "3/5", injective=True)
    docs.append(from_window_certificate(dense, AP3))
    report = apply_transform(pp(INTEGERS, "x^2 - 2", var_order=["x"]), "q3")
    docs.append(
        make_certificate(
            "Reduction",
            INTEGERS,
            poly=report.input,
            payload={
                "transform": "q3",
                "output_poly": poly_to_records(report.output),
                "verified": list(report.verified),
            },
        )
    )
    return docs


def test_honest_certificates_verify():
    for doc in sample_documents():
        ok, message = verify_certificate(doc)
        assert ok, f"{doc['kind']}: {message}"


def test_schema_and_kind_guards():
    doc = sample_documents()[0]
    bad_schema = dict(doc, schema=SCHEMA_VERSION + 1)
    with pytest.raises(VerificationError):
        verify_certificate(bad_schema)
    with pytest.raises(VerificationError):
        verify_certificate(dict(doc, kind="Unheard"))


# ---------------------------------------------------------------------------
# mutation rejection
# ---------------------------------------------------------------------------


def _mutate(doc, rng):
    """One semantically meaningful corruption of a certificate payload."""
    doc = copy.deepcopy(doc)
    kind = doc["kind"]
    if kind == "ColumnsWitness":
        cells = doc["payload"]["cells"]
        if rng.random() < 0.5 and len(cells) > 1:
            cells[0], cells[1] = cells[1], cells[0]
        else:
            combo = doc["payload"]["combos"][0]
            key = next(iter(combo))
            combo[key] = "17"
    elif kind == "PartitionColorable":
        coloring = doc["payload"]["coloring"]
        coloring[rng.randrange(len(coloring))] = doc["colors"]  # out of range
        if rng.random() < 0.5:
            # or force every position to one color: any root edge goes mono
            doc["payload"]["coloring"] = [0] * len(coloring)
    elif kind == "PartitionCertified":
        doc["payload"]["constant_root"] = 0  # 1 is not a constant root of Schur
    elif kind == "DensityAvoider":
        avoider = doc["payload"]["avoider"]
        if rng.random() < 0.5:
            avoider.append(avoider[0])  # duplicate breaks subsethood
        else:
            # swell the avoider with the remaining window: some edge closes
            size = len(doc["window"]["elements"])
            doc["payload"]["avoider"] = list(range(size))
    elif kind == "DensityCertified":
        return None  # no finite payload to corrupt
    elif kind == "Reduction":
        records = doc["payload"]["output_poly"]
        records["terms"][0]["c"] = "99"
    else:
        return None
    return doc


def test_mutated_certificates_are_rejected():
    rng = random.Random(91)
    rejected = attempted = 0
    for doc in sample_documents():
        for _ in range(10):
            bad = _mutate(doc, rng)
            if bad is None or bad == doc:
                continue
            attempted += 1
            ok, _message = verify_certificate(bad)
            if not ok:
                rejected += 1
    assert attempted > 0
    assert rejected == attempted


@pytest.mark.parametrize("field", ["window", "domain", "kind"])
def test_missing_fields_rejected(field):
    doc = sample_documents()[1]
    broken = {k: v for k, v in doc.items() if k != field}
    with pytest.raises(VerificationError):
        verify_certificate(broken)
