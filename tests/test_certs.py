import copy
import functools
import json
import random
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from partreg import cli
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
from partreg.colorings import parse_coloring_spec, refutation_scan
from partreg.polys import parse_poly, poly_to_records
from partreg.rado import LinearSystem, columns_condition
from partreg.reductions import apply_transform
from partreg.rings import INTEGERS, from_int, gf_poly_domain
from partreg.windows import (
    Window,
    check_window_l_pr,
    density_window_check,
    disjoint_solutions,
    enumerate_roots,
    semidecide_l_pr,
)

GF2 = gf_poly_domain(2)


def pp(domain, text, var_order=None):
    poly, _ = parse_poly(domain, text, var_order=var_order)
    return poly


SCHUR = pp(INTEGERS, "x + y - z", var_order=["x", "y", "z"])
AP3 = pp(INTEGERS, "x + y - 2*z", var_order=["x", "y", "z"])
DOUBLING = pp(INTEGERS, "x - 2*y", var_order=["x", "y"])


def zsystem(*row):
    return LinearSystem(INTEGERS, [[from_int(INTEGERS, c) for c in row]])


def schur_system():
    return zsystem(1, 1, -1)


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
    data = witness_to_json(INTEGERS, witness)
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
        payload=witness_to_json(INTEGERS, columns_condition(schur_system())),
    )
    assert loads(dumps(doc)) == doc
    assert dumps(doc) == dumps(loads(dumps(doc)))  # deterministic serialization


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats()
_TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f,:[]{} aé€☃\U0001f600'), max_size=6)
_DOCUMENTS = st.recursive(
    _SCALARS | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.lists(_SCALARS, min_size=1, max_size=4), max_size=4)  # rows: root tuples, edges
    | st.dictionaries(_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_DOCUMENTS)
@example([1, [2]])
@example([[1], 2])
@example(["a,b", "c"])
@example([["a,b"], ["c"]])
@example([{}, [{}]])
@example([[1, 2], [3], []])
@example({"a": [[]], "b": [[], [1]], "c": [[1, [2]], [3]], "d": [[[1]], [[2]]]})
@example((1, (2, 3), [(4, 5), (6,)]))
@example({2: [-(10**30), 1.5e300, float("nan")], 10: {"k": [True, None, -0.0]}})
@example(['a"b', "c\\d", "e\nf", "g,h", "[i]", "{j}", "ünï", "\x01"])
def test_dumps_is_json_dumps_indent_2_sort_keys(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


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
            payload=witness_to_json(INTEGERS, columns_condition(system)),
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


@functools.cache
def every_kind_documents():
    """One small honest certificate of every kind, the sample documents first."""
    docs = sample_documents()
    docs.append(make_certificate("NoColumnsWitness", INTEGERS, matrix=zsystem(1, -2)))
    constant = check_window_l_pr(AP3, Window.interval(INTEGERS, 1, 3), 2)  # x = y = z
    docs.append(from_window_certificate(constant, AP3))
    window = Window.interval(INTEGERS, 1, 10)
    spec = parse_coloring_spec(INTEGERS, "basep:3")
    hit = refutation_scan(SCHUR, spec, window)
    docs.append(
        make_certificate(
            "MonochromaticRoot",
            INTEGERS,
            poly=SCHUR,
            window=window,
            payload={"tuple": list(hit)},
            coloring_spec=spec,
        )
    )
    docs.append(
        make_certificate(
            "Clean", INTEGERS, poly=DOUBLING, window=window, coloring_spec=spec, injective=False
        )
    )
    exhausted = semidecide_l_pr(DOUBLING, 2, budget=5)
    docs.append(from_window_certificate(exhausted, DOUBLING))
    window = Window.interval(INTEGERS, 1, 12)
    tuples = disjoint_solutions(SCHUR, window, 2, injective=True)
    docs.append(
        make_certificate(
            "DisjointSolutions",
            INTEGERS,
            poly=SCHUR,
            window=window,
            payload={"tuples": [list(t) for t in tuples]},
            injective=True,
        )
    )
    window = Window.interval(INTEGERS, 1, 5)
    roots = enumerate_roots(SCHUR, window)
    docs.append(
        make_certificate(
            "Roots", INTEGERS, poly=SCHUR, window=window, payload={"tuples": roots.tuples}
        )
    )
    return docs


def test_honest_certificates_verify():
    for doc in every_kind_documents():
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
        if rng.random() < 0.5:
            doc["payload"]["constant_root"] = 0  # 1 is not a constant root of Schur
        else:
            doc["poly"] = poly_to_records(DOUBLING)  # 2-colorable on the window
    elif kind == "DensityAvoider":
        avoider = doc["payload"]["avoider"]
        if rng.random() < 0.5:
            avoider.append(avoider[0])  # duplicate breaks subsethood
        else:
            # swell the avoider with the remaining window: some edge closes
            size = len(doc["window"]["elements"])
            doc["payload"]["avoider"] = list(range(size))
    elif kind == "DensityCertified":
        choice = rng.randrange(3)
        if choice == 0:
            # a lower threshold that the maximum avoider meets
            size = len(doc["window"]["elements"])
            doc["delta"] = f"{doc['payload']['max_avoider_size']}/{size}"
        elif choice == 1:
            doc["payload"]["max_avoider_size"] -= 1
        else:
            doc["payload"]["transferable"] = not doc["payload"]["transferable"]
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


# ---------------------------------------------------------------------------
# verdicts without a finite payload are re-decided
# ---------------------------------------------------------------------------


def _tampered(kind):
    doc = copy.deepcopy(next(d for d in every_kind_documents() if d["kind"] == kind))
    if kind == "NoColumnsWitness":
        doc["matrix"] = [["1", "1", "-1"]]  # Schur: a witness exists
    elif kind == "PartitionCertified":
        doc["poly"] = poly_to_records(DOUBLING)
    elif kind == "DensityCertified":
        doc["delta"] = "1/3"  # the maximum avoider, 5 of 9, meets it
    elif kind == "Clean":
        doc["poly"] = poly_to_records(SCHUR)  # (1, 3, 4) is monochromatic under basep:3
    return doc


@pytest.mark.parametrize(
    "kind", ["NoColumnsWitness", "PartitionCertified", "DensityCertified", "Clean"]
)
def test_tampered_payload_free_verdicts_are_rejected(kind):
    ok, message = verify_certificate(_tampered(kind))
    assert not ok, message


@pytest.mark.parametrize(
    "kind, delta",
    [
        ("DensityCertified", "7"),
        ("DensityCertified", "3/2"),
        ("DensityCertified", float("inf")),  # JSON's Infinity
        ("DensityAvoider", "0"),
        ("DensityAvoider", "-1/2"),
        ("DensityAvoider", float("nan")),
    ],
)
def test_delta_outside_the_unit_interval_is_malformed(kind, delta, tmp_path, capsys):
    # such a delta makes a vacuous claim, and `density` refuses it too
    doc = copy.deepcopy(next(d for d in every_kind_documents() if d["kind"] == kind))
    assert verify_certificate(doc)[0]
    doc["delta"] = delta
    ok, message = verify_certificate(doc)
    assert not ok and message.startswith("malformed certificate: delta must"), message
    path = tmp_path / "cert.json"
    path.write_text(dumps(doc))
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("INVALID: malformed certificate: ")


def test_constant_root_needs_non_injective_roots():
    doc = next(d for d in every_kind_documents() if "constant_root" in d["payload"])
    assert verify_certificate(doc)[0]
    # x = y = z is no root once coordinates must be distinct
    ok, message = verify_certificate(dict(doc, injective=True))
    assert not ok, message


def _shift_positions(doc, offset):
    payload = doc["payload"]
    if doc["kind"] == "PartitionCertified":
        payload["constant_root"] += offset
    elif doc["kind"] == "MonochromaticRoot":
        payload["tuple"] = [i + offset for i in payload["tuple"]]
    else:
        payload["tuples"] = [[i + offset for i in t] for t in payload["tuples"]]


@pytest.mark.parametrize(
    "kind", ["PartitionCertified", "MonochromaticRoot", "DisjointSolutions", "Roots"]
)
def test_positions_outside_the_window_are_malformed(kind):
    # negative positions once verified through Python's negative indexing
    doc = next(
        d
        for d in every_kind_documents()
        if d["kind"] == kind and (kind != "PartitionCertified" or "constant_root" in d["payload"])
    )
    assert verify_certificate(doc)[0]
    size = len(doc["window"]["elements"])
    for offset in (-size, size):
        shifted = copy.deepcopy(doc)
        _shift_positions(shifted, offset)
        ok, message = verify_certificate(shifted)
        assert not ok
        assert message.startswith("malformed certificate: window position")


def _cli_certificate(tmp_path, *argv):
    path = tmp_path / "cert.json"
    assert cli.main([*argv, "--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_roots_edges_must_be_the_position_sets_of_the_tuples(tmp_path):
    doc = _cli_certificate(tmp_path, "roots", "--poly", "x+y-z", "--window", "1..4")
    assert verify_certificate(doc)[0]
    doc["payload"]["edges"] = [[0]]
    message = "edges are not the position sets of the listed tuples"
    assert verify_certificate(doc) == (False, message)


def test_injective_roots_reject_a_repeated_position(tmp_path):
    argv = ("roots", "--poly", "x+y-z", "--window", "1..4", "--injective")
    doc = _cli_certificate(tmp_path, *argv)
    assert verify_certificate(doc)[0]
    doc["payload"]["tuples"].append([0, 0, 1])  # 1 + 1 = 2, but x = y
    assert verify_certificate(doc) == (False, "listed tuple is not injective")


def test_roots_must_list_every_root(tmp_path):
    doc = _cli_certificate(tmp_path, "roots", "--poly", "x+y-z", "--window", "1..4")
    assert verify_certificate(doc)[0]
    doc["payload"]["tuples"].remove([1, 0, 2])  # 2 + 1 = 3; (1, 2, 3) keeps its edge
    message = "listed tuples are not the sorted list of every root in the window"
    assert verify_certificate(doc) == (False, message)


def test_colors_must_be_integers_in_range(tmp_path):
    argv = ("window", "--poly", "x+y-z", "--colors", "3", "--window", "1..5")
    doc = _cli_certificate(tmp_path, *argv)
    assert verify_certificate(doc)[0]
    # a 2-coloring of 1..5 without a Schur triple would contradict S(2) = 4
    doc["colors"] = 2
    doc["payload"]["coloring"] = [0.5 if c == 2 else c for c in doc["payload"]["coloring"]]
    assert verify_certificate(doc) == (False, "color out of range")
    doc["colors"] = 2.0
    ok, message = verify_certificate(doc)
    assert not ok and message.startswith("malformed certificate")


def test_injective_disjoint_solutions_reject_a_repeated_position(tmp_path):
    argv = ("roots", "--poly", "x+y-z", "--window", "1..12", "--injective", "--disjoint", "2")
    doc = _cli_certificate(tmp_path, *argv)
    assert doc["kind"] == "DisjointSolutions" and verify_certificate(doc)[0]
    doc["payload"]["tuples"][0] = [0, 0, 1]
    assert verify_certificate(doc) == (False, "claimed tuple is not injective")


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [], {}])
def test_injective_must_be_a_json_boolean(flag, tmp_path, capsys):
    # read raw, the truthy "false" made a non-injective window pass as injective
    argv = ("window", "--poly", "x+y-2z", "--colors", "2", "--window", "1..8", "--injective")
    doc = _cli_certificate(tmp_path, *argv)
    assert doc["injective"] is True and verify_certificate(doc)[0]
    absent = {k: v for k, v in doc.items() if k != "injective"}  # absent means false
    ok, message = verify_certificate(absent)
    assert not ok and message.startswith("monochromatic edge"), message
    doc["injective"] = flag
    ok, message = verify_certificate(doc)
    assert not ok and message.startswith("malformed certificate: injective must"), message
    path = tmp_path / "flagged.json"
    path.write_text(dumps(doc))
    capsys.readouterr()  # the window command's own output
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("INVALID: malformed certificate: ")


def test_partition_certified_needs_its_payload(capsys, tmp_path):
    argv = ("window", "--poly", "x+y-z", "--colors", "2", "--window", "1..5")
    doc = _cli_certificate(tmp_path, *argv)
    assert doc["kind"] == "PartitionCertified" and verify_certificate(doc)[0]
    del doc["payload"]
    with pytest.raises(VerificationError, match="certificate missing field 'payload'"):
        verify_certificate(doc)
    path = tmp_path / "no-payload.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("", "error: certificate missing field 'payload'\n")


# ---------------------------------------------------------------------------
# the ColumnsWitness combo codec: "num" or "num/den", read back normalized
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("combo", ["0/0", "1/0"])
def test_zero_denominator_combo_is_malformed(combo, capsys, tmp_path):
    doc = _cli_certificate(tmp_path, "linear", "--matrix", "2 3 -5 1")
    doc["payload"]["combos"][0]["0"] = combo
    path = tmp_path / "zero-den.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == cli.EXIT_ERROR
    assert capsys.readouterr() == ("INVALID: malformed certificate: zero denominator\n", "")


@pytest.mark.parametrize(
    "argv,reduced,unreduced",
    [
        (("linear", "--matrix", "2 3 -5 1"), "1/2", "2/4"),
        (("linear", "--domain", "GF(3)[t]", "--matrix", "t 2*t 1 2"), "1/t", "t/t^2"),
    ],
)
def test_unreduced_combo_still_verifies(argv, reduced, unreduced, tmp_path):
    doc = _cli_certificate(tmp_path, *argv)
    assert doc["payload"]["combos"][0]["0"] == reduced
    doc["payload"]["combos"][0]["0"] = unreduced
    assert verify_certificate(doc) == (True, "witness equations hold")
    doc["payload"]["combos"][0]["0"] = "1"  # and a wrong coefficient still fails
    assert verify_certificate(doc) == (False, "witness equations fail")


def _linear_document(argv, matrix, cells, combos):
    domain = argv[argv.index("--domain") + 1] if "--domain" in argv else "Z"
    return {
        "command": list(argv),
        "domain": domain,
        "elapsed_ms": 0,
        "enumeration_scheme": "zigzag" if domain == "Z" else "base-3-digits",
        "kind": "ColumnsWitness",
        "matrix": [matrix],
        "payload": {"cells": cells, "combos": combos},
        "schema": 1,
        "tool_version": "0.1.0",
    }


PINNED_LINEAR = [
    (
        ["linear", "--matrix", "2 3 -5 1", "--print-cert"],
        "{1,2,3}, {4}",
        _linear_document(
            ["linear", "--matrix", "2 3 -5 1", "--print-cert"],
            ["2", "3", "-5", "1"],
            [[0, 1, 2], [3]],
            [{"0": "1/2", "1": "0", "2": "0"}],
        ),
    ),
    (
        ["linear", "--domain", "GF(3)[t]", "--matrix", "t 2*t 1 2", "--print-cert"],
        "{1,2}, {3}, {4}",
        _linear_document(
            ["linear", "--domain", "GF(3)[t]", "--matrix", "t 2*t 1 2", "--print-cert"],
            ["t", "2*t", "1", "2"],
            [[0, 1], [2], [3]],
            [{"0": "1/t", "1": "0"}, {"0": "2/t", "1": "0", "2": "0"}],
        ),
    ),
]


@pytest.mark.parametrize("argv,cells,expected", PINNED_LINEAR)
def test_columns_witness_certificate_bytes_are_pinned(argv, cells, expected, capsys):
    assert cli.main(argv) == cli.EXIT_DEFINITIVE
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    verdict = f"verdict: partition regular; witness cells (1-based): {cells}\n"
    assert out == verdict + json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_known_leaks_are_malformed_not_raised():
    doc = copy.deepcopy(every_kind_documents()[1])  # PartitionColorable
    doc["poly"]["terms"][0]["e"].append(0)  # exponent arity no longer nvars
    assert verify_certificate(doc)[0] is False
    doc = copy.deepcopy(every_kind_documents()[1])
    doc["window"]["elements"][1] = doc["window"]["elements"][0]  # repeated element
    assert verify_certificate(doc)[0] is False


# ---------------------------------------------------------------------------
# fuzz: any mutation gives (bool, str) or VerificationError
# ---------------------------------------------------------------------------


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.text("0123456789-/txyz+*^()", max_size=4),
    st.lists(st.integers(-2, 5), max_size=3),
    st.lists(st.text("12-", max_size=2), max_size=3),
    st.just({}),
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_fuzzed_certificates_verify_or_raise(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(every_kind_documents())))
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    operation = data.draw(st.sampled_from(["replace", "drop", "repeat"]))
    if operation == "replace":
        parent[path[-1]] = data.draw(JSON_VALUES)
    elif operation == "drop":
        del parent[path[-1]]
    elif isinstance(parent[path[-1]], list) and parent[path[-1]]:
        parent[path[-1]].append(copy.deepcopy(parent[path[-1]][0]))
    try:
        result = verify_certificate(doc)
    except VerificationError:
        return
    assert isinstance(result, tuple) and len(result) == 2
    assert isinstance(result[0], bool) and isinstance(result[1], str)
