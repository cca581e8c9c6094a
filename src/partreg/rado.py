"""Columns-condition decision procedure for homogeneous linear systems.

A finite homogeneous linear system A x = 0 is partition regular over the
nonzero elements of the domain exactly when A satisfies the columns
condition: an ordered partition of the columns whose first cell sums to
zero, every later cell-sum lying in the K-span of the columns of earlier
cells.  The search is complete, so this module decides partition regularity
for linear systems outright.

Greedy is exact: if S is a valid cell after the used columns U and (D_1..D_k)
is any valid continuation, the non-empty D_j minus S continue validly after
U and S, since sum(D_j - S) = sum(D_j) - sum(D_j & S).  So the first valid
cell never needs to be taken back.

Column indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import DomainTag, frac_normalize, zero

DEFAULT_MAX_COLS = 9  # a stage scans up to 2^n subsets of the remaining columns


@dataclass
class LinearSystem:
    domain: DomainTag
    entries: list  # m rows, each a list of n DomainElements

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("empty matrix")
        n = len(self.entries[0])
        for row in self.entries:
            if len(row) != n:
                raise ValueError("ragged matrix")
            for x in row:
                if x.domain != self.domain:
                    raise ValueError("entry domain mismatch")

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    def column(self, j):
        return [row[j] for row in self.entries]


@dataclass
class ColumnsWitness:
    """Ordered partition of columns plus the certifying span coefficients.

    combos[j-1] maps earlier column indices to K-coefficients expressing the
    sum of the j-th cell (j >= 1, i.e. cells[1:]).  A coefficient is a raw
    (num, den) pair as frac_normalize returns it.
    """

    cells: list  # list of sorted lists of column indices
    combos: list  # list of dicts {column index: (num, den)}


def _cell_sum(system, cell):
    return [sum((row[j] for j in cell), zero(system.domain)) for row in system.entries]


def _residual(ops, target, terms):
    """target - sum of a * n/d over terms (a, (n, d)), as one raw (num, den)
    pair, unnormalized; terms with a or n zero are skipped."""
    add, neg, mul = ops.add, ops.neg, ops.mul
    num, den = target, ops.one
    for a, (n, d) in terms:
        if a and n:
            num = add(mul(num, d), neg(mul(mul(a, n), den)))
            den = mul(den, d)
    return num, den


def solve_in_span(domain, columns, target):
    """Solve sum_j x_j * columns[j] = target over K, or return None.

    The solution is a list of raw (num, den) pairs from frac_normalize.
    Fraction-free (Bareiss) forward elimination on raw ring values keeps
    entries exactly divisible; back substitution folds each unknown's
    numerator and denominator with _residual and normalizes it once.  Free
    variables are set to zero.
    """
    ops = domain.ops
    add, neg, mul = ops.add, ops.neg, ops.mul
    k = len(columns)
    a = [[column[i].value for column in columns] + [t.value] for i, t in enumerate(target)]
    prev, pivots = ops.one, []  # pivots[r]: the pivot column of row r
    for c in range(k):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r]
        for row in a[r + 1 :]:  # column c below the pivot is never read again
            for j in range(c + 1, k + 1):
                minor = add(mul(pivot[c], row[j]), neg(mul(row[c], pivot[j])))
                row[j] = ops.divmod(minor, prev)[0]  # exact, by Bareiss
        prev = pivot[c]
        pivots.append(c)
    if any(row[k] for row in a[len(pivots) :]):
        return None
    x = [(ops.zero, ops.one)] * k
    for row, c in reversed(list(zip(a, pivots))):
        num, den = _residual(ops, row[k], zip(row[c + 1 : k], x[c + 1 :]))
        x[c] = frac_normalize(domain, num, mul(den, row[c]))
    return x


def _lex_subsets(items, start=0, current=()):
    """Nonempty subsets of a sorted list in lexicographic index order.

    Each subset extends current by items from index start on.
    """
    for i in range(start, len(items)):
        chosen = [*current, items[i]]
        yield chosen
        yield from _lex_subsets(items, i + 1, chosen)


def columns_condition(system, force=False):
    """Build a columns-condition witness greedily; None means no witness exists.

    Each stage takes the first cell, in _lex_subsets order of the remaining
    columns, whose sum lies in the span of the used columns (span of none is
    {0}).  By the lemma in the module docstring a stage with no such cell
    means no witness, and the chain built is the lexicographically least
    witness (cells compared as sorted index tuples, cell by cell).  More than
    DEFAULT_MAX_COLS columns need force=True.
    """
    n = system.ncols
    if n > DEFAULT_MAX_COLS and not force:
        raise ValueError(
            f"{n} columns exceeds the default cap of {DEFAULT_MAX_COLS}; "
            "pass force=True to override"
        )
    remaining = list(range(n))
    used, cells, combos = [], [], []
    while remaining:
        span = [system.column(j) for j in used]
        for cell in _lex_subsets(remaining):
            coeffs = solve_in_span(system.domain, span, _cell_sum(system, cell))
            if coeffs is not None:
                break
        else:
            return None
        cells.append(cell)
        combos.append(dict(zip(used, coeffs)))
        used += cell
        remaining = [j for j in remaining if j not in cell]
    return ColumnsWitness(cells, combos[1:])


def verify_witness(system, witness):
    """Re-check a witness with exact arithmetic, independent of the search."""
    n = system.ncols
    seen = set()
    for cell in witness.cells:
        if not cell:
            raise ValueError("empty cell in witness")
        for j in cell:
            if not 0 <= j < n or j in seen:
                raise ValueError("witness cells do not partition the columns")
            seen.add(j)
    if len(seen) != n:
        raise ValueError("witness cells do not partition the columns")
    if len(witness.combos) != len(witness.cells) - 1:
        raise ValueError("witness has the wrong number of combinations")

    ops = system.domain.ops
    if any(_cell_sum(system, witness.cells[0])):
        return False
    earlier = list(witness.cells[0])
    for cell, combo in zip(witness.cells[1:], witness.combos):
        if any(j not in earlier for j in combo):
            return False
        if any(not den for _, den in combo.values()):
            raise ZeroDivisionError("zero denominator")
        for target, row in zip(_cell_sum(system, cell), system.entries):
            terms = [(row[j].value, coeff) for j, coeff in combo.items()]
            if _residual(ops, target.value, terms)[0]:  # the cell sum is not the combination
                return False
        earlier.extend(cell)
    return True

