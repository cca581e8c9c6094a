"""The pruning search engines against the plain searches they replaced.

The oracles below are the earlier recursive backtracking colorer, the
bound-by-|allowed| branch and bound, the all-pairs edge minimisation and the
recursive disjoint-family search; tests/oracles.py holds the forward-checking
colorer and the per-window semi-decider.  The engines must return exactly
what they return, avoider tuples, tuple families and certificates included.
"""

import math
import random

import pytest

from oracles import forward_checking_coloring, semidecide_per_window
from partreg.cli import EXIT_DEFINITIVE, main
from partreg.polys import parse_poly
from partreg.rings import INTEGERS, gf_poly_domain
from partreg.windows import (
    Window,
    _least_valid_coloring,
    _minimal_edges,
    check_window_l_pr,
    density_window_check,
    disjoint_solutions,
    enumerate_roots,
    max_avoiding_subset,
    semidecide_l_pr,
)

AP3 = parse_poly(INTEGERS, "x + y - 2*z", var_order=["x", "y", "z"])[0]
SCHUR = parse_poly(INTEGERS, "x + y - z", var_order=["x", "y", "z"])[0]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def minimal_edges_oracle(edges):
    sets = [frozenset(e) for e in edges]
    keep = []
    for i, e in enumerate(sets):
        if not any(i != j and other < e for j, other in enumerate(sets)) and not any(
            other == e for other in sets[:i]
        ):
            keep.append(edges[i])
    return keep


def least_valid_coloring_oracle(size, edges, colors):
    if any(len(e) == 1 for e in edges):
        return None
    by_last = [[] for _ in range(size)]
    for e in edges:
        by_last[e[-1]].append(e)
    assignment = [0] * size

    def backtrack(pos, used):
        if pos == size:
            return True
        limit = min(colors, used + 1)
        for c in range(limit):
            assignment[pos] = c
            ok = True
            for e in by_last[pos]:
                if all(assignment[i] == c for i in e[:-1]):
                    ok = False
                    break
            if ok and backtrack(pos + 1, max(used, c + 1)):
                return True
        return False

    if backtrack(0, 0):
        return tuple(assignment)
    return None


def max_avoiding_subset_oracle(size, edges):
    edges = [tuple(e) for e in minimal_edges_oracle(sorted(edges))]
    best = []

    def bound_and_branch(allowed):
        nonlocal best
        if len(allowed) <= len(best):
            return
        target = next((e for e in edges if all(i in allowed for i in e)), None)
        if target is None:
            if len(allowed) > len(best):
                best = sorted(allowed)
            return
        for v in target:
            bound_and_branch(allowed - {v})

    bound_and_branch(frozenset(range(size)))
    return tuple(best)


def random_hypergraph(rng, max_size=14):
    """Sorted distinct edges of sizes 1-4 on range(size), size 1-max_size."""
    size = rng.randrange(1, max_size + 1)
    edges = set()
    for _ in range(rng.randrange(0, 3 * size)):
        k = rng.randrange(1, min(4, size) + 1)
        if k == 1 and rng.random() < 0.8:
            continue  # singletons decide colorings at once; keep them rare
        edges.add(tuple(sorted(rng.sample(range(size), k))))
    edges = sorted(edges)
    rng.shuffle(edges)
    return size, edges


# ---------------------------------------------------------------------------
# equivalence on seeded random hypergraphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_minimal_edges_match_oracle(seed):
    rng = random.Random(700 + seed)
    for _ in range(150):
        _, edges = random_hypergraph(rng)
        edges += rng.sample(edges, min(len(edges), 3))  # repeats keep their first copy
        assert _minimal_edges(edges) == minimal_edges_oracle(edges)


@pytest.mark.parametrize("seed", range(4))
def test_coloring_matches_oracle(seed):
    rng = random.Random(710 + seed)
    for _ in range(150):
        size, edges = random_hypergraph(rng)
        colors = rng.randrange(1, 5)
        minimal = sorted(minimal_edges_oracle(edges))
        for hypergraph in (edges, minimal):
            got = _least_valid_coloring(size, hypergraph, colors)
            assert got == least_valid_coloring_oracle(size, hypergraph, colors)


@pytest.mark.parametrize("seed", range(4))
def test_unit_propagation_matches_forward_checking(seed):
    rng = random.Random(730 + seed)
    for _ in range(800):
        size, edges = random_hypergraph(rng, max_size=16)
        colors = rng.randrange(1, 5)
        expected = forward_checking_coloring(size, edges, colors)
        assert _least_valid_coloring(size, edges, colors) == expected
        # resumed from the least coloring of a prefix's sub-hypergraph
        k = rng.randrange(size + 1)
        start = _least_valid_coloring(k, [e for e in edges if e[-1] < k], colors)
        if start is None:
            assert expected is None
        else:
            assert _least_valid_coloring(size, edges, colors, start) == expected


@pytest.mark.parametrize("seed", range(4))
def test_max_avoiding_subset_matches_oracle(seed):
    rng = random.Random(720 + seed)
    for _ in range(150):
        size, edges = random_hypergraph(rng)
        assert max_avoiding_subset(size, edges) == max_avoiding_subset_oracle(size, edges)


# ---------------------------------------------------------------------------
# one search across the semi-decider's prefix windows
# ---------------------------------------------------------------------------

GF2 = gf_poly_domain(2)
GF4 = gf_poly_domain(4)


@pytest.mark.parametrize(
    "domain,text",
    [
        (INTEGERS, "x + y - z"),
        (INTEGERS, "x + y - 2*z"),
        (INTEGERS, "x - 2*y"),
        (INTEGERS, "x*y - z"),
        (GF2, "x + y + z"),
        (GF2, "x + t*y + z"),
        (GF4, "x + y + z"),
        (GF4, "x + t*y + t*z"),
    ],
    ids=str,
)
def test_semidecide_matches_per_window_oracle(domain, text):
    p = parse_poly(domain, text, var_order=["x", "y", "z"])[0]
    for injective in (False, True):
        for colors in (1, 2, 3):
            for budget in range(1, 13):
                got = semidecide_l_pr(p, colors, injective, budget)
                expected = semidecide_per_window(p, colors, injective, budget)
                assert (got.kind, got.window.provenance, got.coloring, got.constant_root) == (
                    expected.kind,
                    expected.window.provenance,
                    expected.coloring,
                    expected.constant_root,
                )
                assert got == expected  # the colors, flags and window elements too


# ---------------------------------------------------------------------------
# literature anchors
# ---------------------------------------------------------------------------


def test_van_der_waerden_three_colors():
    # W(3;3) = 27: 1..26 has a 3-coloring without a monochromatic 3-AP, 1..27 does not
    colorable = check_window_l_pr(AP3, Window.interval(INTEGERS, 1, 26), 3, injective=True)
    assert colorable.kind == "PartitionColorable"
    coloring = colorable.coloring
    for x in range(1, 27):
        for d in range(1, (26 - x) // 2 + 1):
            assert len({coloring[x - 1], coloring[x + d - 1], coloring[x + 2 * d - 1]}) > 1
    certified = check_window_l_pr(AP3, Window.interval(INTEGERS, 1, 27), 3, injective=True)
    assert certified.kind == "PartitionCertified"


def test_three_ap_free_density_r3_20():
    # r3(20) = 9, OEIS A003002: the largest 3-AP-free subset of 1..20
    window = Window.interval(INTEGERS, 1, 20)
    cert = density_window_check(AP3, window, "1/2", injective=True)
    assert cert.kind == "DensityCertified"
    assert cert.max_avoider_size == 9


def disjoint_solutions_oracle(p, window, count, injective=False):
    tuples = enumerate_roots(p, window, injective).tuples

    def backtrack(start, chosen, used):
        if len(chosen) == count:
            return list(chosen)
        for idx in range(start, len(tuples)):
            values = set(tuples[idx])
            if values & used:
                continue
            result = backtrack(idx + 1, chosen + [tuples[idx]], used | values)
            if result is not None:
                return result
        return None

    return backtrack(0, [], set())


@pytest.mark.parametrize("poly", [SCHUR, AP3], ids=["schur", "ap3"])
@pytest.mark.parametrize("injective", [False, True], ids=["any", "injective"])
def test_disjoint_solutions_match_recursive_oracle(poly, injective):
    for hi in range(1, 16):
        window = Window.interval(INTEGERS, 1, hi)
        for count in range(1, 6):
            expected = disjoint_solutions_oracle(poly, window, count, injective)
            assert disjoint_solutions(poly, window, count, injective) == expected


# ---------------------------------------------------------------------------
# depth safety
# ---------------------------------------------------------------------------


def test_long_chain_window_is_colorable(capsys):
    code = main(
        ["window", "--poly", "x-2*y", "--colors", "2", "--window", "1..1500", "--print-cert"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_DEFINITIVE
    assert "verdict: PartitionColorable" in out
    coloring = [int(c) for c in out.split("[", 1)[1].split("]", 1)[0].split(",")]
    assert len(coloring) == 1500
    assert set(coloring) <= {0, 1}
    # value v sits at position v - 1; the roots of x - 2y are (2y, y)
    assert all(coloring[2 * y - 1] != coloring[y - 1] for y in range(1, 751))


def test_many_disjoint_edges_do_not_recurse():
    edges = [(2 * i, 2 * i + 1) for i in range(1000)]
    avoider = max_avoiding_subset(2000, edges)
    assert len(avoider) == 1000
    assert all(not set(e) <= set(avoider) for e in edges)


def test_thirty_colors_match_the_oracle(capsys):
    # no table is indexed by color mask, so a large palette costs no 2**colors
    code = main(["window", "--poly", "x+y-z", "--colors", "30", "--window", "1..60"])
    out = capsys.readouterr().out
    assert code == EXIT_DEFINITIVE
    coloring = tuple(int(c) for c in out.split("[", 1)[1].split("]", 1)[0].split(","))
    # value v sits at position v - 1; the roots of x + y - z are (a, b, a + b)
    sums = ((a, b) for a in range(1, 60) for b in range(1, 61 - a))
    edges = sorted({tuple(sorted({a - 1, b - 1, a + b - 1})) for a, b in sums})
    assert coloring == forward_checking_coloring(60, edges, 30)


def test_pythagorean_two_coloring_of_1_to_300(capsys):
    # forward checking backtracked without end here; 2-colorable up to 7824
    # (Heule-Kullmann-Marek 2016)
    argv = ["window", "--poly", "x^2+y^2-z^2", "--colors", "2", "--window", "1..300"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_DEFINITIVE
    assert out.startswith("verdict: PartitionColorable")
    coloring = [int(c) for c in out.split("[", 1)[1].split("]", 1)[0].split(",")]
    assert len(coloring) == 300 and set(coloring) <= {0, 1}
    color = dict(zip(range(1, 301), coloring))  # value v sits at position v - 1
    for a in range(1, 301):
        for b in range(a, 301):
            c = math.isqrt(a * a + b * b)
            if c <= 300 and c * c == a * a + b * b:
                assert len({color[a], color[b], color[c]}) == 2, (a, b, c)


def test_color_count_beyond_the_window_is_harmless():
    # a certificate may claim any color count; only len(window) colors can
    # ever be used, so a huge count must cost no more than that
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    assert _least_valid_coloring(4, edges, 2**40) == _least_valid_coloring(4, edges, 4)
