"""End-to-end acceptance suite.

Each test covers one headline criterion, re-deriving every expected value
with an independent brute-force oracle before comparing it against the
library, and enforcing the stated runtime budget where one applies.
"""

import copy
import itertools
import random
import time

from oracles import enumerate_roots_naive, eval_field, field_from_ring
from partreg.certs import (
    from_window_certificate,
    make_certificate,
    verify_certificate,
    witness_to_json,
)
from partreg.colorings import ColoringSpec, refutation_scan
from partreg.polys import (
    MultiPoly,
    is_homogeneous,
    is_translation_invariant,
    parse_poly,
    poly_to_records,
)
from partreg.rado import LinearSystem, columns_condition, verify_witness
from partreg.reductions import apply_transform, diffquotient4_homogenize, quotient3_homogenize
from partreg.rings import (
    INTEGERS,
    from_int,
    gf_poly_domain,
    nonzero_prefix,
)
from partreg.windows import (
    Window,
    check_window_l_pr,
    density_window_check,
    semidecide_l_pr,
)

GF2 = gf_poly_domain(2)
GF3 = gf_poly_domain(3)


def pp(domain, text, var_order=None):
    poly, _ = parse_poly(domain, text, var_order=var_order)
    return poly


def zmat(rows):
    return LinearSystem(INTEGERS, [[from_int(INTEGERS, x) for x in row] for row in rows])


SCHUR = pp(INTEGERS, "x + y - z", var_order=["x", "y", "z"])
AP3 = pp(INTEGERS, "x + y - 2*z", var_order=["x", "y", "z"])
AP3_SQUARED = pp(INTEGERS, "(x1 - 2*x2 + x3)^2", var_order=["x1", "x2", "x3"])


def exhaustive_coloring(p, window, colors, injective=False):
    """Independent oracle: first valid coloring in full lexicographic order."""
    edges = enumerate_roots_naive(p, window, injective).edges
    for coloring in itertools.product(range(colors), repeat=len(window)):
        if all(len({coloring[i] for i in e}) > 1 for e in edges):
            return coloring
    return None


# ---------------------------------------------------------------------------
# 1. Schur pipeline
# ---------------------------------------------------------------------------


def test_criterion_1_schur_pipeline():
    start = time.monotonic()
    system = zmat([[1, 1, -1]])
    witness = columns_condition(system)
    assert witness is not None and verify_witness(system, witness)

    cert = semidecide_l_pr(SCHUR, 2, budget=10)
    assert cert.kind == "PartitionCertified"
    assert len(cert.window) <= 10

    # oracle: [1..4] is 2-colorable, [1..5] is not (all 2^5 colorings)
    assert exhaustive_coloring(SCHUR, Window.interval(INTEGERS, 1, 4), 2) is not None
    assert exhaustive_coloring(SCHUR, Window.interval(INTEGERS, 1, 5), 2) is None
    assert check_window_l_pr(SCHUR, Window.interval(INTEGERS, 1, 4), 2).kind == "PartitionColorable"
    assert check_window_l_pr(SCHUR, Window.interval(INTEGERS, 1, 5), 2).kind == "PartitionCertified"
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. van der Waerden 3-term progressions
# ---------------------------------------------------------------------------


def test_criterion_2_van_der_waerden():
    start = time.monotonic()
    assert columns_condition(zmat([[1, -2, 1]])) is not None

    w8, w9 = Window.interval(INTEGERS, 1, 8), Window.interval(INTEGERS, 1, 9)
    colorable = check_window_l_pr(AP3_SQUARED, w8, 2, injective=True)
    certified = check_window_l_pr(AP3_SQUARED, w9, 2, injective=True)
    assert colorable.kind == "PartitionColorable"
    assert certified.kind == "PartitionCertified"

    # oracle over all 2^8 and 2^9 colorings
    assert exhaustive_coloring(AP3_SQUARED, w8, 2, injective=True) is not None
    assert exhaustive_coloring(AP3_SQUARED, w9, 2, injective=True) is None
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 3. a non-regular equation
# ---------------------------------------------------------------------------


def test_criterion_3_non_regular():
    start = time.monotonic()
    assert columns_condition(zmat([[1, -2]])) is None
    p = pp(INTEGERS, "x - 2*y", var_order=["x", "y"])
    spec = ColoringSpec(family="DigitBaseP", p=3)
    # clean because doubling flips the least significant nonzero ternary
    # digit between 1 and 2, so x and 2x never share a color
    assert refutation_scan(p, spec, Window.interval(INTEGERS, 1, 200)) is None
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 4. reduction structure on random polynomials
# ---------------------------------------------------------------------------


def _random_poly_z(rng):
    k = rng.randrange(1, 4)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        exps = tuple(rng.randrange(4) for _ in range(k))
        if sum(exps) > 3:
            continue
        c = rng.choice([v for v in range(-5, 6) if v])
        terms[exps] = c
    if not terms:
        terms[(1,) + (0,) * (k - 1)] = 1
    return MultiPoly(INTEGERS, k, terms)


def _random_poly_gf3(rng):
    k = rng.randrange(1, 4)
    pool = nonzero_prefix(GF3, 8)  # all nonzero elements of degree <= 1
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        exps = tuple(rng.randrange(4) for _ in range(k))
        if sum(exps) > 3:
            continue
        terms[exps] = rng.choice(pool).value
    if not terms:
        terms[(1,) + (0,) * (k - 1)] = pool[0].value
    return MultiPoly(GF3, k, terms)


def _check_reduction_structure(p, rng, points_per_poly):
    domain = p.domain
    k, degree = p.nvars, p.degree()
    q3 = quotient3_homogenize(p)
    dq4 = diffquotient4_homogenize(p)
    assert is_homogeneous(q3) == k * degree
    assert is_homogeneous(dq4) == k * degree
    assert is_translation_invariant(dq4)
    pool = [field_from_ring(x) for x in nonzero_prefix(domain, 25)]
    one = field_from_ring(from_int(domain, 1))
    for _ in range(points_per_poly):
        # q3 identity at a random nonzero point
        zs = [rng.choice(pool) for _ in range(3 * k)]
        quotients, clearing = [], one
        for i in range(k):
            za, zb, zc = zs[3 * i : 3 * i + 3]
            quotients.append((za - zb) / zc)
            clearing = clearing * zc**degree
        assert eval_field(q3, zs) == eval_field(p, quotients) * clearing
        # dq4 identity (resample until the denominators are nonzero)
        while True:
            ws = [rng.choice(pool) for _ in range(4 * k)]
            if all(not (ws[4 * i + 2] - ws[4 * i + 3]).is_zero() for i in range(k)):
                break
        quotients, clearing = [], one
        for i in range(k):
            wa, wb, wc, wd = ws[4 * i : 4 * i + 4]
            diff = wc - wd
            quotients.append((wa - wb) / diff)
            clearing = clearing * diff**degree
        assert eval_field(dq4, ws) == eval_field(p, quotients) * clearing


def test_criterion_4_reduction_structure():
    rng = random.Random(2024)
    for _ in range(100):
        _check_reduction_structure(_random_poly_z(rng), rng, points_per_poly=10)
    for _ in range(100):
        _check_reduction_structure(_random_poly_gf3(rng), rng, points_per_poly=10)


# ---------------------------------------------------------------------------
# 5. density window
# ---------------------------------------------------------------------------


def test_criterion_5_density_window():
    start = time.monotonic()
    window = Window.interval(INTEGERS, 1, 9)
    edges = enumerate_roots_naive(AP3, window, injective=True).edges

    # brute-force oracle over all 2^9 subsets
    best = 0
    for mask in range(2**9):
        chosen = {i for i in range(9) if mask >> i & 1}
        if all(not set(e) <= chosen for e in edges):
            best = max(best, len(chosen))
    assert best == 5

    certified = density_window_check(AP3, window, "0.6", injective=True)
    assert certified.kind == "DensityCertified"
    assert certified.max_avoider_size == 5
    avoider = density_window_check(AP3, window, "5/9", injective=True)
    assert avoider.kind == "DensityAvoider"
    assert len(avoider.avoider) == 5
    chosen = set(avoider.avoider)
    assert all(not set(e) <= chosen for e in edges)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 6. characteristic-2 sanity
# ---------------------------------------------------------------------------


def test_criterion_6_char2():
    start = time.monotonic()
    one_gf2 = from_int(GF2, 1)
    system = LinearSystem(GF2, [[one_gf2, one_gf2, one_gf2]])  # -1 = 1
    witness = columns_condition(system)
    assert witness is not None
    assert witness.cells[0] == [0, 1]  # C1 = {1, 2} one-based
    assert verify_witness(system, witness)

    p = pp(GF2, "x + y - z", var_order=["x", "y", "z"])
    assert semidecide_l_pr(p, 1, budget=8).kind == "PartitionCertified"
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 7. certificate integrity
# ---------------------------------------------------------------------------


def _emitted_documents():
    docs = []
    system = zmat([[1, 1, -1]])
    docs.append(
        make_certificate(
            "ColumnsWitness",
            INTEGERS,
            matrix=system,
            payload=witness_to_json(INTEGERS, columns_condition(system)),
        )
    )
    for hi, _kind in ((4, "PartitionColorable"), (5, "PartitionCertified")):
        cert = check_window_l_pr(SCHUR, Window.interval(INTEGERS, 1, hi), 2)
        docs.append(from_window_certificate(cert, SCHUR))
    for delta in ("3/5", "5/9"):
        cert = density_window_check(AP3, Window.interval(INTEGERS, 1, 9), delta, injective=True)
        docs.append(from_window_certificate(cert, AP3))
    report = apply_transform(pp(INTEGERS, "x^2 - 2", var_order=["x"]), "dq4")
    docs.append(
        make_certificate(
            "Reduction",
            INTEGERS,
            poly=report.input,
            payload={
                "transform": "dq4",
                "output_poly": poly_to_records(report.output),
                "verified": list(report.verified),
            },
        )
    )
    return docs


def test_criterion_7_certificate_integrity():
    docs = _emitted_documents()
    # 100% of honestly emitted certificates re-verify
    for doc in docs:
        ok, message = verify_certificate(doc)
        assert ok, f"{doc['kind']}: {message}"

    # flipping any single color of the boundary coloring breaks it
    colorable = next(d for d in docs if d["kind"] == "PartitionColorable")
    coloring = colorable["payload"]["coloring"]
    flips = rejections = 0
    for i in range(len(coloring)):
        bad = copy.deepcopy(colorable)
        bad["payload"]["coloring"][i] = 1 - coloring[i]
        flips += 1
        ok, _ = verify_certificate(bad)
        rejections += not ok
    assert flips > 0 and rejections == flips

    # dropping any nonzero witness coefficient breaks the span equation
    witness_doc = next(d for d in docs if d["kind"] == "ColumnsWitness")
    drops = rejections = 0
    for combo_index, combo in enumerate(witness_doc["payload"]["combos"]):
        for key, value in combo.items():
            if value.split("/")[0] == "0":
                continue
            bad = copy.deepcopy(witness_doc)
            del bad["payload"]["combos"][combo_index][key]
            drops += 1
            ok, _ = verify_certificate(bad)
            rejections += not ok
    assert drops > 0 and rejections == drops


# ---------------------------------------------------------------------------
# 8. oracle equivalence of the coloring engine
# ---------------------------------------------------------------------------


def test_criterion_8_oracle_equivalence():
    fixtures = [
        (SCHUR, False),
        (AP3, False),
        (AP3, True),
        (AP3_SQUARED, True),
        (pp(INTEGERS, "x - 2*y", var_order=["x", "y"]), False),
        (pp(INTEGERS, "x*y - z", var_order=["x", "y", "z"]), True),
    ]
    discrepancies = 0
    for p, injective in fixtures:
        for size in (1, 2, 3, 4, 6, 8, 10, 12):
            for colors in (1, 2, 3):
                window = Window.enumeration_prefix(INTEGERS, size)
                cert = check_window_l_pr(p, window, colors, injective)
                oracle = exhaustive_coloring(p, window, colors, injective)
                certified = cert.kind == "PartitionCertified"
                if certified != (oracle is None):
                    discrepancies += 1
                elif not certified and cert.coloring != oracle:
                    # both engines must return the lexicographically least coloring
                    discrepancies += 1
    assert discrepancies == 0
