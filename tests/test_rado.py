import gc
import itertools
import random
from fractions import Fraction

import pytest

from oracles import field_from_pair, field_from_ring, solve_in_span_on_elements
from partreg.rado import (
    ColumnsWitness,
    LinearSystem,
    _cell_sum,
    _lex_subsets,
    columns_condition,
    solve_in_span,
    verify_witness,
)
from partreg.rings import (
    INTEGERS,
    enum_element,
    frac_normalize,
    from_int,
    gf_poly_domain,
    parse_element,
    zero,
)

GF2 = gf_poly_domain(2)
GF3 = gf_poly_domain(3)
GF4 = gf_poly_domain(4)


def zmat(rows):
    return LinearSystem(INTEGERS, [[from_int(INTEGERS, x) for x in row] for row in rows])


def gfmat(domain, rows):
    return LinearSystem(domain, [[parse_element(domain, x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# span solving
# ---------------------------------------------------------------------------


def test_solve_in_span_example():
    # 2*(1,0) + (-1)*(0,1) = (2,-1)
    cols = [[from_int(INTEGERS, 1), from_int(INTEGERS, 0)], [from_int(INTEGERS, 0), from_int(INTEGERS, 1)]]
    target = [from_int(INTEGERS, 2), from_int(INTEGERS, -1)]
    sol = solve_in_span(INTEGERS, cols, target)
    assert sol is not None
    assert sol == [(2, 1), (-1, 1)]


def test_solve_in_span_inconsistent():
    cols = [[from_int(INTEGERS, 1), from_int(INTEGERS, 2)]]
    target = [from_int(INTEGERS, 1), from_int(INTEGERS, 3)]
    assert solve_in_span(INTEGERS, cols, target) is None


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3])
def test_solve_in_span_solutions_check_out(domain):
    rng = random.Random(21)
    for _ in range(150):
        m, k = rng.randrange(1, 4), rng.randrange(1, 4)
        cols = [[enum_element(domain, rng.randrange(9)) for _ in range(m)] for _ in range(k)]
        target = [enum_element(domain, rng.randrange(9)) for _ in range(m)]
        sol = solve_in_span(domain, cols, target)
        if sol is None:
            continue
        for i in range(m):
            acc = field_from_ring(target[i])
            for j in range(k):
                acc = acc - field_from_pair(domain, sol[j]) * field_from_ring(cols[j][i])
            assert acc.is_zero()


def test_solve_in_span_none_verified_by_fraction_reference():
    # compare refusals against a dense rational-arithmetic reference over Z
    rng = random.Random(23)
    for _ in range(200):
        m, k = rng.randrange(1, 4), rng.randrange(1, 4)
        cols_int = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(k)]
        target_int = [rng.randrange(-4, 5) for _ in range(m)]
        cols = [[from_int(INTEGERS, x) for x in col] for col in cols_int]
        target = [from_int(INTEGERS, x) for x in target_int]
        sol = solve_in_span(INTEGERS, cols, target)
        solvable = _fraction_gauss_solvable(cols_int, target_int)
        assert (sol is not None) == solvable


def _fraction_gauss_solvable(cols, target):
    m, k = len(target), len(cols)
    a = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return all(a[i][k] == 0 for i in range(r, m))


def _random_system(domain, rng, kind):
    """(columns, target) of a random system that is inconsistent, rank-deficient
    (consistent, with a dependent column) or full-rank (square, triangular up
    to a row shuffle)."""

    def pick(nonzero=False):
        return enum_element(domain, rng.randrange(1 if nonzero else 0, 9))

    k = rng.randrange(1, 4)
    if kind == "inconsistent":  # every column has row 3 = row 1 + row 2; the target does not
        columns = [[a, b, a + b] for a, b in ((pick(), pick()) for _ in range(k))]
        a, b = pick(), pick()
        return columns, [a, b, a + b + pick(nonzero=True)]
    if kind == "rank-deficient":
        columns = [[pick() for _ in range(3)] for _ in range(k)]
        columns.append([x + y for x, y in zip(columns[0], columns[-1])])
        coeffs = [pick() for _ in columns]
        target = [
            sum((c * column[i] for c, column in zip(coeffs, columns)), zero(domain))
            for i in range(3)
        ]
        return columns, target
    rows = [
        [pick(nonzero=True) if i == j else pick() if i < j else zero(domain) for j in range(k)]
        for i in range(k)
    ]
    rng.shuffle(rows)
    return [[row[j] for row in rows] for j in range(k)], [pick() for _ in range(k)]


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4])
@pytest.mark.parametrize("kind", ["inconsistent", "rank-deficient", "full-rank"])
def test_solve_in_span_matches_element_oracle(domain, kind):
    rng = random.Random(25)
    for _ in range(40):
        columns, target = _random_system(domain, rng, kind)
        sol = solve_in_span(domain, columns, target)
        assert sol == solve_in_span_on_elements(domain, columns, target)
        assert (sol is None) == (kind == "inconsistent")


# ---------------------------------------------------------------------------
# columns condition
# ---------------------------------------------------------------------------


def test_schur_witness():
    # x + y - z: witness {x, z} summing to 0, {y} in the span
    system = zmat([[1, 1, -1]])
    witness = columns_condition(system)
    assert witness is not None
    assert witness.cells == [[0, 2], [1]]
    assert verify_witness(system, witness)


def test_three_ap_witness():
    system = zmat([[1, 1, -2]])
    witness = columns_condition(system)
    assert witness is not None
    assert verify_witness(system, witness)


def test_columns_condition_leaves_no_cyclic_garbage():
    """Each stage stops _lex_subsets early; the generators die by reference count."""
    system = zmat([[1, 1, -1, 2, -2]])
    gc.collect()
    gc.disable()
    try:
        assert columns_condition(system) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_non_regular_single_row():
    # x - 2y admits no columns-condition witness over Z
    assert columns_condition(zmat([[1, -2]])) is None
    assert columns_condition(zmat([[2, -3]])) is None


def test_char2_all_ones_row():
    # over GF(2)[t], 1+1 = 0, so {col0, col1} already sums to zero
    system = gfmat(GF2, [["1", "1", "1"]])
    witness = columns_condition(system)
    assert witness is not None
    assert witness.cells[0] == [0, 1]
    assert verify_witness(system, witness)
    # the same row over Z needs all three columns interacting
    z_witness = columns_condition(zmat([[1, 1, 1]]))
    assert z_witness is None  # no sub-multiset of {1,1,1} sums to 0 over Z


def test_multirow_system():
    # x + y = z, y + z = w (two Schur-type rows sharing variables)
    system = zmat([[1, 1, -1, 0], [0, 1, 1, -1]])
    witness = columns_condition(system)
    if witness is not None:
        assert verify_witness(system, witness)


def test_witness_soundness_random():
    rng = random.Random(31)
    for domain in (INTEGERS, GF3):
        for _ in range(120):
            m, n = rng.randrange(1, 3), rng.randrange(2, 5)
            entries = [
                [enum_element(domain, rng.randrange(7)) for _ in range(n)] for _ in range(m)
            ]
            if all(x.is_zero() for row in entries for x in row):
                continue
            system = LinearSystem(domain, entries)
            witness = columns_condition(system)
            if witness is not None:
                assert verify_witness(system, witness)


def test_witness_rejects_tampering():
    system = zmat([[1, 1, -1]])
    witness = columns_condition(system)
    # swapping the partition breaks the zero-sum first cell
    bad = ColumnsWitness([[0, 1], [2]], witness.combos)
    assert not verify_witness(system, bad)
    # wrong combo coefficient breaks the span equation
    two = frac_normalize(INTEGERS, 2, 1)
    bad2 = ColumnsWitness(witness.cells, [{j: two for j in witness.combos[0]}])
    assert not verify_witness(system, bad2)


def test_witness_with_a_zero_denominator_is_refused():
    # cross-multiplied, 1/0 * 1 + 1/0 * (-1) would leave a zero residual numerator
    system = zmat([[1, 1, -1]])
    bad = ColumnsWitness([[0, 2], [1]], [{0: (1, 0), 2: (1, 0)}])
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        verify_witness(system, bad)


def test_column_permutation_preserves_existence():
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randrange(2, 5)
        row = [rng.choice([-2, -1, 1, 2]) for _ in range(n)]
        system = zmat([row])
        base = columns_condition(system) is not None
        for perm in itertools.permutations(range(n)):
            permuted = zmat([[row[j] for j in perm]])
            assert (columns_condition(permuted) is not None) == base


def test_exhaustive_agreement_with_naive_search():
    # enumerate all ordered set partitions naively and compare existence
    def naive_has_witness(system):
        n = system.ncols
        cols = list(range(n))

        def all_ordered_partitions(rest):
            if not rest:
                yield []
                return
            # any nonempty subset may serve as the next cell
            for mask in range(1, 2 ** len(rest)):
                cell = [o for b, o in enumerate(rest) if mask >> b & 1]
                remaining = [o for b, o in enumerate(rest) if not mask >> b & 1]
                for tail in all_ordered_partitions(remaining):
                    yield [cell] + tail

        for cells in all_ordered_partitions(cols):
            ok = True
            zero_vec = [from_int(INTEGERS, 0)] * system.nrows
            if _cell_sum(system, cells[0]) != zero_vec:
                continue
            used = list(cells[0])
            for cell in cells[1:]:
                total = _cell_sum(system, cell)
                if solve_in_span(INTEGERS, [system.column(j) for j in used], total) is None:
                    ok = False
                    break
                used.extend(cell)
            if ok:
                return True
        return False

    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(2, 5)
        row = [rng.randrange(-3, 4) for _ in range(n)]
        if all(x == 0 for x in row):
            continue
        system = zmat([row])
        assert (columns_condition(system) is not None) == naive_has_witness(system)


def test_cap_on_column_count():
    wide = zmat([[1] * 10 + [-1] * 0])
    with pytest.raises(ValueError):
        columns_condition(wide)
    witness = columns_condition(zmat([[1] * 9 + [-9]]), force=True)  # 10 columns
    assert witness is not None


# ---------------------------------------------------------------------------
# the greedy chain against the backtracking search it replaced
# ---------------------------------------------------------------------------


def backtracking_columns_condition(system):
    """Oracle: depth-first search over ordered partitions, cells in
    _lex_subsets order, backtracking past any cell that does not extend."""
    zero_vec = [from_int(system.domain, 0)] * system.nrows

    def search(remaining, used_cols, cells, combos):
        if not remaining:
            return ColumnsWitness([list(c) for c in cells], [dict(c) for c in combos])
        for cell in _lex_subsets(remaining):
            total = _cell_sum(system, cell)
            if not cells:
                if total != zero_vec:
                    continue
                combo = None
            else:
                coeffs = solve_in_span(
                    system.domain, [system.column(j) for j in used_cols], total
                )
                if coeffs is None:
                    continue
                combo = {j: coeffs[idx] for idx, j in enumerate(used_cols)}
            rest = [j for j in remaining if j not in cell]
            result = search(
                rest,
                used_cols + list(cell),
                cells + [cell],
                combos + ([combo] if combo is not None else []),
            )
            if result is not None:
                return result
        return None

    return search(list(range(system.ncols)), [], [], [])


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4], ids=str)
def test_greedy_chain_matches_backtracking_oracle(domain):
    rng = random.Random(f"greedy:{domain}")
    found = 0
    for _ in range(400):
        m, n = rng.randrange(1, 4), rng.randrange(1, 7)
        # few distinct small entries, many zeros: zero-sum cells are common
        entries = [
            [enum_element(domain, rng.choice((0, 0, 1, 1, 2, 3))) for _ in range(n)]
            for _ in range(m)
        ]
        system = LinearSystem(domain, entries)
        greedy = columns_condition(system)
        oracle = backtracking_columns_condition(system)
        if oracle is None:
            assert greedy is None
            continue
        found += 1
        assert greedy is not None
        assert greedy.cells == oracle.cells
        assert greedy.combos == oracle.combos
    assert 40 <= found <= 360  # both verdicts are exercised


def non_regular_family(n):
    """2 x n, top row 1 -1 1 -1 2 -2 3 -3 ..., bottom row marks the last column.

    The marked column can neither join the zero-sum first cell nor lie in the
    span of the others (all with bottom entry 0), so no witness exists.
    """
    top = [(1 if k < 4 else (k - 4) // 2 + 2) * (-1) ** k for k in range(n)]
    return zmat([top, [0] * (n - 1) + [1]])


def test_non_regular_family_wide():
    assert backtracking_columns_condition(non_regular_family(6)) is None
    assert columns_condition(non_regular_family(9)) is None
    assert columns_condition(non_regular_family(12), force=True) is None
