import gc
import itertools
import random

import pytest

from oracles import enumerate_roots_naive, exhaustive_l_pr_oracle
from partreg.polys import MultiPoly, parse_poly
from partreg.rings import (
    INTEGERS,
    enum_element,
    from_int,
    gf_poly_domain,
    parse_element,
)
from partreg.windows import (
    Window,
    _split_last_variable,
    check_window_l_pr,
    density_window_check,
    disjoint_solutions,
    enumerate_roots,
    max_avoiding_subset,
    semidecide_l_pr,
)

GF2 = gf_poly_domain(2)
GF3 = gf_poly_domain(3)
GF4 = gf_poly_domain(4)
GF9 = gf_poly_domain(9)


def pp(domain, text, var_order=None):
    poly, _ = parse_poly(domain, text, var_order=var_order)
    return poly


def zint(n):
    return from_int(INTEGERS, n)


SCHUR = pp(INTEGERS, "x + y - z", var_order=["x", "y", "z"])
AP3 = pp(INTEGERS, "x + y - 2*z", var_order=["x", "y", "z"])


def random_poly(domain, nvars, rng, max_terms=3, max_deg=2, coeff_pool=8):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        coeff = enum_element(domain, rng.randrange(1, coeff_pool)).value
        if coeff:
            terms[exps] = coeff
    if not terms:
        terms[(1,) + (0,) * (nvars - 1)] = enum_element(domain, 1).value
    return MultiPoly(domain, nvars, terms)


def separable_poly(domain, nvars, rng):
    """A random f(x1..x(n-1)), cross terms and a constant included, plus h(xn).

    h is one or two terms c*xn^d with d in 1..3; with two, h can vanish on
    the window.
    """
    terms = {}
    if nvars > 1:
        f = random_poly(domain, nvars - 1, rng, max_terms=4)
        terms = {exps + (0,): coeff for exps, coeff in f.terms.items()}
    terms[(0,) * nvars] = enum_element(domain, rng.randrange(8)).value
    for _ in range(rng.randrange(1, 3)):
        terms[(0,) * (nvars - 1) + (rng.randrange(1, 4),)] = enum_element(domain, rng.randrange(1, 8)).value
    return MultiPoly(domain, nvars, terms)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def test_window_constructors():
    w = Window.interval(INTEGERS, -2, 2)
    assert [x.value for x in w.elements] == [-2, -1, 1, 2]  # 0 is skipped
    p = Window.enumeration_prefix(INTEGERS, 4)
    assert [x.value for x in p.elements] == [1, -1, 2, -2]
    g = Window.enumeration_prefix(GF2, 3)
    assert g.elements == tuple(parse_element(GF2, s) for s in ["1", "t", "t+1"])


def test_window_validation():
    with pytest.raises(ValueError):
        Window.explicit(INTEGERS, [zint(0)])
    with pytest.raises(ValueError):
        Window.explicit(INTEGERS, [zint(1), zint(1)])
    with pytest.raises(ValueError):
        Window.interval(GF2, 1, 5)


# ---------------------------------------------------------------------------
# root enumeration
# ---------------------------------------------------------------------------


def test_schur_roots_in_small_window():
    w = Window.interval(INTEGERS, 1, 4)
    h = enumerate_roots(SCHUR, w)
    values = {tuple(w.elements[i].value for i in t) for t in h.tuples}
    assert values == {
        (1, 1, 2),
        (1, 2, 3),
        (2, 1, 3),
        (1, 3, 4),
        (3, 1, 4),
        (2, 2, 4),
    }


def test_injective_filters_diagonal_roots():
    w = Window.interval(INTEGERS, 1, 4)
    h = enumerate_roots(AP3, w, injective=True)
    # x = y = z solves x + y - 2z for every x; all such tuples must be gone
    for t in h.tuples:
        assert len(set(t)) == 3


def check_against_naive_oracle(domain, injective, draw, seed):
    rng = random.Random(seed)
    for _ in range(60):
        nvars = rng.randrange(1, 4)
        p = draw(domain, nvars, rng)
        window = Window.enumeration_prefix(domain, rng.randrange(2, 7))
        fast = enumerate_roots(p, window, injective)
        slow = enumerate_roots_naive(p, window, injective)
        assert fast.tuples == slow.tuples
        assert fast.edges == slow.edges


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4, GF9])
@pytest.mark.parametrize("injective", [False, True])
def test_enumeration_matches_naive_oracle(domain, injective):
    check_against_naive_oracle(domain, injective, random_poly, 51)


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4])
@pytest.mark.parametrize("injective", [False, True])
def test_separable_enumeration_matches_naive_oracle(domain, injective):
    check_against_naive_oracle(domain, injective, separable_poly, 53)


@pytest.mark.parametrize("injective", [False, True])
@pytest.mark.parametrize(
    "domain, text, through_minus_one",
    [
        (INTEGERS, "x*y + y - z", (0, 0)),  # f is 0*y at x = -1 (separable path)
        (INTEGERS, "x*z + z - 1", (0, 0)),  # the nonzero constant -1 prunes x = -1
        (INTEGERS, "x*z + z", (25, 12)),  # 0 at x = -1: every completion is a root
        (GF2, "x*z + z", (25, 12)),  # -1 = 1 over GF(2)[t]
    ],
)
def test_cancelling_coefficients_match_naive_oracle(domain, text, through_minus_one, injective):
    p = pp(domain, text, ["x", "y", "z"])
    window = Window.enumeration_prefix(domain, 5)
    fast = enumerate_roots(p, window, injective)
    slow = enumerate_roots_naive(p, window, injective)
    assert fast.tuples == slow.tuples
    assert fast.edges == slow.edges
    minus_one = window.elements.index(from_int(domain, -1))
    assert sum(t[0] == minus_one for t in fast.tuples) == through_minus_one[injective]


@pytest.mark.parametrize("domain", [INTEGERS, GF4])
@pytest.mark.parametrize("text", ["x+y+z", "x^2+y^2-z^2", "x^2+y^2+z^2"])
def test_coefficients_of_one_match_naive_oracle(domain, text):
    # a coefficient of one takes a cached power column as it is, so a column
    # changed in place would spoil the later rows, or a second call on the
    # same window if the cache ever outlived one call
    p = pp(domain, text, ["x", "y", "z"])
    window = Window.enumeration_prefix(domain, 15)
    slow = enumerate_roots_naive(p, window)
    for _ in range(2):
        fast = enumerate_roots(p, window)
        assert (fast.tuples, fast.edges) == (slow.tuples, slow.edges)


def test_sparse_exponents_are_not_tabulated():
    p = pp(INTEGERS, "x^1000000 + y^1000000 - z", ["x", "y", "z"])
    assert enumerate_roots(p, Window.interval(INTEGERS, 1, 2)).tuples == [(0, 0, 1)]


def test_separable_split():
    assert _split_last_variable(pp(INTEGERS, "x^2 + y^2 - z^2 + x*y + 3", ["x", "y", "z"]))
    assert _split_last_variable(SCHUR)
    assert _split_last_variable(pp(INTEGERS, "x*z - y", ["x", "y", "z"])) is None
    assert _split_last_variable(pp(INTEGERS, "x + y", ["x", "y", "z"])) is None


def test_pythagorean_large_window_matches_plain_int_oracle():
    n = 200
    p = pp(INTEGERS, "x^2 + y^2 - z^2", var_order=["x", "y", "z"])
    h = enumerate_roots(p, Window.interval(INTEGERS, 1, n))
    root_of = {v * v: v for v in range(1, n + 1)}
    # value v sits at window position v - 1
    tuples = [
        (x - 1, y - 1, root_of[x * x + y * y] - 1)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if x * x + y * y in root_of
    ]
    assert len(tuples) == 254
    assert h.tuples == tuples
    assert h.edges == sorted({tuple(sorted(set(t))) for t in tuples})


def test_enumerate_roots_rejects_constants():
    with pytest.raises(ValueError):
        enumerate_roots(MultiPoly.constant(INTEGERS, 0, zint(1)), Window.interval(INTEGERS, 1, 3))


@pytest.mark.parametrize(
    "domain,text,window",
    [
        (INTEGERS, "x + y - z", Window.interval(INTEGERS, 1, 12)),  # separable hash
        (INTEGERS, "x*z + y - 2*z", Window.interval(INTEGERS, 1, 12)),  # linear closed form
        (INTEGERS, "x*z^2 + y - 2*z", Window.interval(INTEGERS, 1, 8)),  # scan
        (GF3, "x^2 + y^2 + 2*z^2", Window.enumeration_prefix(GF3, 12)),
    ],
)
def test_enumerate_roots_leaves_no_cyclic_garbage(domain, text, window):
    """The descent's tables are freed by reference count, not left for the cyclic GC."""
    poly = pp(domain, text)
    gc.collect()
    gc.disable()
    try:
        assert enumerate_roots(poly, window).tuples
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# window partition regularity
# ---------------------------------------------------------------------------


def test_schur_boundary():
    colorable = check_window_l_pr(SCHUR, Window.interval(INTEGERS, 1, 4), 2)
    assert colorable.kind == "PartitionColorable"
    assert colorable.coloring == (0, 1, 1, 0)  # {1,4} vs {2,3}
    certified = check_window_l_pr(SCHUR, Window.interval(INTEGERS, 1, 5), 2)
    assert certified.kind == "PartitionCertified"


def test_three_ap_boundary_injective():
    colorable = check_window_l_pr(AP3, Window.interval(INTEGERS, 1, 8), 2, injective=True)
    assert colorable.kind == "PartitionColorable"
    certified = check_window_l_pr(AP3, Window.interval(INTEGERS, 1, 9), 2, injective=True)
    assert certified.kind == "PartitionCertified"


def test_coloring_is_lexicographically_least():
    rng = random.Random(55)
    for _ in range(40):
        p = random_poly(INTEGERS, rng.randrange(2, 4), rng, max_deg=1)
        size = rng.randrange(2, 7)
        window = Window.enumeration_prefix(INTEGERS, size)
        colors = rng.randrange(2, 4)
        cert = check_window_l_pr(p, window, colors)
        edges = enumerate_roots_naive(p, window).edges
        brute = next(
            (
                c
                for c in itertools.product(range(colors), repeat=size)
                if all(len({c[i] for i in e}) > 1 for e in edges)
            ),
            None,
        )
        if cert.kind == "PartitionCertified":
            assert brute is None
        else:
            assert cert.coloring == brute


@pytest.mark.parametrize("domain", [INTEGERS, GF2])
def test_verdict_matches_exhaustive_oracle(domain):
    rng = random.Random(57)
    for _ in range(30):
        p = random_poly(domain, rng.randrange(2, 4), rng, max_deg=1)
        window = Window.enumeration_prefix(domain, rng.randrange(2, 6))
        colors = rng.randrange(1, 4)
        cert = check_window_l_pr(p, window, colors)
        oracle = exhaustive_l_pr_oracle(p, window, colors)
        assert (cert.kind == "PartitionCertified") == (oracle is None)


def test_constant_root_forces_certification():
    # x + y - 2z has the constant root (c, c, c); with it in range no
    # coloring can work, whatever the palette size
    cert = check_window_l_pr(AP3, Window.interval(INTEGERS, 1, 3), 5)
    assert cert.kind == "PartitionCertified"
    assert cert.constant_root is not None


def test_certification_is_monotone_in_prefix_windows():
    for k in range(1, 12):
        cert = check_window_l_pr(SCHUR, Window.enumeration_prefix(INTEGERS, k), 2)
        if cert.kind == "PartitionCertified":
            for bigger in range(k + 1, k + 3):
                later = check_window_l_pr(SCHUR, Window.enumeration_prefix(INTEGERS, bigger), 2)
                assert later.kind == "PartitionCertified"
            break
    else:
        pytest.fail("Schur equation never certified on prefixes up to 11")


def test_semidecide_schur():
    cert = semidecide_l_pr(SCHUR, 2, budget=12)
    assert cert.kind == "PartitionCertified"
    assert cert.window.provenance == "prefix:9"


def test_semidecide_exhaustion_is_inconclusive():
    p = pp(INTEGERS, "x - 2*y", var_order=["x", "y"])
    cert = semidecide_l_pr(p, 2, budget=6)
    assert cert.kind == "Exhausted"
    assert cert.window.provenance == "prefix:6"
    assert cert.coloring == check_window_l_pr(p, cert.window, 2).coloring


def test_semidecide_char2_linear():
    p = pp(GF2, "x + y + z", var_order=["x", "y", "z"])
    assert semidecide_l_pr(p, 1, budget=8).kind == "PartitionCertified"


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_max_avoiding_subset_matches_brute_force():
    rng = random.Random(61)
    for _ in range(80):
        size = rng.randrange(1, 9)
        edges = sorted(
            {
                tuple(sorted(rng.sample(range(size), rng.randrange(1, min(3, size) + 1))))
                for _ in range(rng.randrange(0, 6))
            }
        )
        got = max_avoiding_subset(size, edges)
        best = 0
        for mask in range(2**size):
            chosen = {i for i in range(size) if mask >> i & 1}
            if all(not set(e) <= chosen for e in edges):
                best = max(best, len(chosen))
        assert len(got) == best
        assert all(not set(e) <= set(got) for e in edges)


def test_three_ap_density_boundary():
    window = Window.interval(INTEGERS, 1, 9)
    certified = density_window_check(AP3, window, "3/5", injective=True)
    assert certified.kind == "DensityCertified"
    assert certified.max_avoider_size == 5
    assert certified.transferable
    avoider = density_window_check(AP3, window, "5/9", injective=True)
    assert avoider.kind == "DensityAvoider"
    assert [window.elements[i].value for i in avoider.avoider] == [1, 3, 4, 8, 9]


def test_density_non_transferable_is_marked():
    p = pp(INTEGERS, "x + y - z", var_order=["x", "y", "z"])  # not translation invariant
    cert = density_window_check(p, Window.interval(INTEGERS, 1, 6), "1/2")
    assert cert.transferable is False


def test_density_multiplicative_transfer_requires_homogeneity():
    homogeneous = pp(INTEGERS, "x*y - z^2", var_order=["x", "y", "z"])
    cert = density_window_check(
        homogeneous, Window.interval(INTEGERS, 1, 8), "1/2", mode="multiplicative", injective=True
    )
    assert cert.transferable is True
    inhomogeneous = pp(INTEGERS, "x*y - z", var_order=["x", "y", "z"])
    cert2 = density_window_check(
        inhomogeneous, Window.interval(INTEGERS, 1, 8), "1/2", mode="multiplicative"
    )
    assert cert2.transferable is False


def test_density_avoider_never_contains_an_edge():
    rng = random.Random(63)
    for _ in range(30):
        p = random_poly(INTEGERS, 2, rng, max_deg=1)
        window = Window.enumeration_prefix(INTEGERS, rng.randrange(2, 8))
        cert = density_window_check(p, window, "1/2", mode="additive") if is_ti(p) else None
        if cert is None or cert.kind != "DensityAvoider":
            continue
        edges = enumerate_roots_naive(p, window).edges
        chosen = set(cert.avoider)
        assert all(not set(e) <= chosen for e in edges)


def is_ti(p):
    from partreg.polys import is_translation_invariant

    return is_translation_invariant(p)


def test_density_delta_validation():
    with pytest.raises(ValueError):
        density_window_check(AP3, Window.interval(INTEGERS, 1, 5), "0")
    with pytest.raises(ValueError):
        density_window_check(AP3, Window.interval(INTEGERS, 1, 5), "3/2")


# ---------------------------------------------------------------------------
# disjoint solutions
# ---------------------------------------------------------------------------


def test_disjoint_schur_solutions():
    window = Window.interval(INTEGERS, 1, 12)
    picked = disjoint_solutions(SCHUR, window, 2, injective=True)
    assert picked is not None and len(picked) == 2
    seen = set()
    for positions in picked:
        tup = [window.elements[i] for i in positions]
        assert sum(x.value for x in tup[:2]) == tup[2].value
        values = {x.value for x in tup}
        assert not values & seen
        seen |= values


def test_disjoint_solutions_impossible():
    window = Window.interval(INTEGERS, 1, 3)
    assert disjoint_solutions(SCHUR, window, 2, injective=True) is None
