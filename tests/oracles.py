"""Brute-force oracles that the engines in partreg are tested against."""

import itertools

from partreg.polys import eval_ring
from partreg.rings import DomainElement, enum_element, field_from_ring, field_zero, one, zero
from partreg.windows import RootHypergraph


def enumerate_roots_naive(p, window, injective=False):
    """Reference product scan; oracle for enumerate_roots."""
    n = p.nvars
    elems = window.elements
    found = []
    for combo in itertools.product(range(len(elems)), repeat=n):
        if injective and len(set(combo)) != n:
            continue
        if eval_ring(p, tuple(elems[i] for i in combo)).is_zero():
            found.append(combo)
    edges = sorted({tuple(sorted(set(tup))) for tup in found})
    return RootHypergraph(window, found, edges)


def exhaustive_l_pr_oracle(p, window, colors, injective=False):
    """Independent oracle: try every coloring of the window."""
    hypergraph = enumerate_roots_naive(p, window, injective)
    edges = hypergraph.edges
    for coloring in itertools.product(range(colors), repeat=len(window)):
        if all(len({coloring[i] for i in e}) > 1 for e in edges):
            return coloring  # a valid coloring: not certified
    return None  # certified


def is_irreducible_by_trial_division(x):
    """Oracle for is_irreducible over GF(q)[t]: divide by every monic
    polynomial of degree 1..deg(x)/2."""
    d = x.degree()
    if d <= 0:
        return False
    domain, ops = x.domain, x.domain.ops
    for deg in range(1, d // 2 + 1):
        for index in range(domain.q**deg, 2 * domain.q**deg):  # the monic ones of degree deg
            if not ops.divmod(x.value, enum_element(domain, index).value)[1]:
                return False
    return True


def eval_field_stepwise(p, point):
    """Oracle for eval_field: FieldElement arithmetic, normalized after every operation."""
    total = field_zero(p.domain)
    for exps, coeff in p.terms.items():
        term = field_from_ring(DomainElement(p.domain, coeff))
        for x, e in zip(point, exps):
            if e:
                term = term * x**e
        total = total + term
    return total


def solve_in_span_on_elements(domain, columns, target):
    """Oracle for solve_in_span: Bareiss elimination on DomainElements, with
    FieldElement back substitution normalized after every operation."""
    m, k = len(target), len(columns)
    a = [[columns[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    prev = one(domain)
    pivot_cols = []
    r = 0
    for c in range(k):
        pivot_row = next((i for i in range(r, m) if not a[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, m):
            for j in range(c + 1, k + 1):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]).exact_div(prev)
            a[i][c] = zero(domain)
        prev = a[r][c]
        pivot_cols.append(c)
        r += 1
    if any(not a[i][k].is_zero() for i in range(r, m)):
        return None
    x = [field_zero(domain)] * k
    for idx in range(r - 1, -1, -1):
        c = pivot_cols[idx]
        s = field_from_ring(a[idx][k])
        for j in range(c + 1, k):
            s = s - field_from_ring(a[idx][j]) * x[j]
        x[c] = s / field_from_ring(a[idx][c])
    return x
