"""Independent references for the benchmark's correctness checks.

Nothing in this module imports partreg.  Every expected verdict comes either
from a published constant or from plain brute force written here: integer
arithmetic for Z, a small table-driven GF(q)[t] for q in {2, 3, 4}, exact
`Fraction`s for linear algebra.  The formats parsed here (window element
strings, fractions, polynomial records) follow the certificate schema
described in partreg's README; the arithmetic behind them is our own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# ---------------------------------------------------------------------------
# published constants
# ---------------------------------------------------------------------------

# Schur numbers S(k): [1, S(k)] is k-colourable without a monochromatic
# x + y = z, [1, S(k) + 1] is not.  S(4) = 44 is Baumert (1965).
SCHUR = {1: 1, 2: 4, 3: 13, 4: 44}
# van der Waerden numbers W(3; k): every k-colouring of [1, W] has a
# monochromatic 3-term progression, some k-colouring of [1, W - 1] has none.
VDW3 = {2: 9, 3: 27}
# r_3(n) = largest subset of [1, n] without a 3-term progression, OEIS A003002
# (offset 0).
R3 = (0, 1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 10)
# Heule-Kullmann-Marek (SAT 2016): [1, 7824] can be 2-coloured with no
# monochromatic Pythagorean triple, [1, 7825] cannot.
PYTHAGOREAN_2COLOURABLE_UP_TO = 7824


def schur_search_prefix(colors):
    """Prefix size at which `search` certifies x + y - z over zig-zag Z.

    The zig-zag prefix of size 2m is {+-1, ..., +-m}.  Taking absolute values
    maps every root of x + y = z in it to a Schur triple of [1, m], and
    colouring -x like x maps a valid colouring of [1, m] back, so prefix 2m is
    k-colourable iff [1, m] is.  Prefix 2 S(k) + 1 contains [1, S(k) + 1].
    """
    return 2 * SCHUR[colors] + 1


# ---------------------------------------------------------------------------
# rings: Z and GF(q)[t] with elements as ints / little-endian code tuples
# ---------------------------------------------------------------------------


class IntRing:
    zero = 0

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def fmt(x):
        return str(x)

    @staticmethod
    def interval(lo, hi):
        return [v for v in range(lo, hi + 1) if v != 0]

    @staticmethod
    def prefix(k):
        """First k nonzero integers in zig-zag order 1, -1, 2, -2, ..."""
        return [(i + 1) // 2 if i % 2 else -(i // 2) for i in range(1, k + 1)]


class GFtRing:
    """GF(q)[t] for q = p (prime) or q = 4 (codes d0 + 2*d1 over a^2 = a + 1)."""

    def __init__(self, q):
        if q == 4:
            self.p = 2
            self._mul = [[self._gf4_mul(a, b) for b in range(4)] for a in range(4)]
            self._add = [[a ^ b for b in range(4)] for a in range(4)]
        else:
            self.p = q
            self._mul = [[(a * b) % q for b in range(q)] for a in range(q)]
            self._add = [[(a + b) % q for b in range(q)] for a in range(q)]
        self.q = q
        self._neg = [next(b for b in range(q) if self._add[a][b] == 0) for a in range(q)]
        self._inv = [None] + [next(b for b in range(q) if self._mul[a][b] == 1) for a in range(1, q)]
        self.zero = ()
        self.one = (1,)

    @staticmethod
    def _gf4_mul(a, b):
        # (a0 + a1 u)(b0 + b1 u) with u^2 = u + 1
        a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
        c0 = (a0 & b0) ^ (a1 & b1)
        c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
        return c0 | (c1 << 1)

    @staticmethod
    def _trim(coeffs):
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self._add[out[i]][c]
        return self._trim(out)

    def neg(self, a):
        return tuple(self._neg[c] for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                row = self._mul[ca]
                for j, cb in enumerate(b):
                    out[i + j] = self._add[out[i + j]][row[cb]]
        return self._trim(out)

    def const(self, c):
        """The image of the integer c under Z -> GF(q)[t]."""
        code = c % self.p
        return (code,) if code else ()

    def inv_const(self, a):
        if len(a) != 1:
            return None
        return (self._inv[a[0]],)

    def fmt(self, x):
        if not x:
            return "0"
        parts = []
        for d in range(len(x) - 1, -1, -1):
            c = x[d]
            if not c:
                continue
            mono = "" if d == 0 else ("t" if d == 1 else f"t^{d}")
            if not mono:
                parts.append(str(c))
            else:
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return "+".join(parts)

    def parse(self, text):
        """Inverse of fmt: '+'-separated parts 'c', 'c*t^d', 't', 't^d'."""
        text = text.strip()
        if text == "0":
            return ()
        out = []
        for part in text.split("+"):
            if "*" in part:
                coeff, mono = part.split("*")
            elif "t" in part:
                coeff, mono = "1", part
            else:
                coeff, mono = part, ""
            degree = 0 if not mono else (int(mono[2:]) if mono.startswith("t^") else 1)
            while len(out) <= degree:
                out.append(0)
            out[degree] = self._add[out[degree]][int(coeff) % self.q]
        return self._trim(out)

    def prefix(self, k):
        """Elements with enumeration index 1..k: base-q digits of the index."""
        out = []
        for index in range(1, k + 1):
            digits = []
            while index:
                digits.append(index % self.q)
                index //= self.q
            out.append(tuple(digits))
        return out


# ---------------------------------------------------------------------------
# polynomials: tuples of (coefficient, exponent tuple) terms
# ---------------------------------------------------------------------------

VAR_NAMES = "xyzw"


class Poly:
    """A sparse polynomial over `ring` with ring-element coefficients.

    Variables are numbered in order of first appearance in `text()`, which
    is the order the CLI parser assigns.
    """

    def __init__(self, ring, nvars, terms):
        self.ring = ring
        self.nvars = nvars
        self.terms = tuple((c, tuple(e)) for c, e in terms)

    def canonical(self):
        """The same polynomial with variables renumbered by first appearance."""
        order = []
        for _, exps in self.terms:
            order += [i for i, e in enumerate(exps) if e and i not in order]
        terms = [(c, tuple(exps[i] for i in order)) for c, exps in self.terms]
        return Poly(self.ring, len(order), terms)

    def text(self):
        parts = []
        for coeff, exps in self.terms:
            factors = [
                VAR_NAMES[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
            ]
            parts.append((coeff, factors))
        out = ""
        for coeff, factors in parts:
            if isinstance(self.ring, IntRing):
                sign = "-" if coeff < 0 else "+"
                mag = abs(coeff)
                body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
            else:
                sign = "+"
                body = "*".join(([self._coeff_text(coeff)] if coeff != (1,) or not factors else []) + factors)
            out += (sign if out or sign == "-" else "") + body
        return out

    def _coeff_text(self, coeff):
        # prime-field constant times t^k, as the CLI's polynomial parser reads it
        degree = len(coeff) - 1
        c = coeff[-1]
        mono = "" if degree == 0 else ("t" if degree == 1 else f"t^{degree}")
        if not mono:
            return str(c)
        return mono if c == 1 else f"{c}*{mono}"

    def evaluate(self, point):
        ring = self.ring
        total = ring.zero
        for coeff, exps in self.terms:
            term = coeff
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = ring.mul(term, x)
            total = ring.add(total, term)
        return total

    def degree(self):
        return max(sum(e) for _, e in self.terms)


def roots(poly, elems, injective=False):
    """All index tuples of `elems` where poly vanishes, lexicographically.

    When the last variable occurs only as c * z with c a nonzero integer (Z)
    or a nonzero constant (GF(q)[t]), it is solved from the others through a
    value -> index table; otherwise every tuple is evaluated.
    """
    ring = poly.ring
    n = poly.nvars
    last = [(c, e) for c, e in poly.terms if e[-1]]
    solve = None
    if len(last) == 1 and last[0][1] == (0,) * (n - 1) + (1,):
        c = last[0][0]
        if isinstance(ring, IntRing):
            solve = lambda v: None if v % c else -v // c  # noqa: E731
        elif len(c) == 1:
            inv = ring.inv_const(c)
            solve = lambda v: ring.mul(ring.neg(v), inv)  # noqa: E731
    if solve is None:
        found = [
            combo
            for combo in itertools.product(range(len(elems)), repeat=n)
            if poly.evaluate([elems[i] for i in combo]) == ring.zero
        ]
    else:
        rest = Poly(ring, n, [(k, e) for k, e in poly.terms if not e[-1]])
        index_of = {x: i for i, x in enumerate(elems)}
        found = []
        for head in itertools.product(range(len(elems)), repeat=n - 1):
            i = index_of.get(solve(rest.evaluate([elems[j] for j in head] + [ring.zero])))
            if i is not None:
                found.append(head + (i,))
    if injective:
        found = [t for t in found if len(set(t)) == n]
    return found


def edges_of(tuples):
    return sorted({tuple(sorted(set(t))) for t in tuples})


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------


def valid_colouring(edges, colouring, colors, size):
    """None if `colouring` leaves every edge non-monochromatic, else a reason."""
    if len(colouring) != size:
        return f"colouring has {len(colouring)} entries for {size} elements"
    if any(not (isinstance(c, int) and 0 <= c < colors) for c in colouring):
        return "colour out of range"
    for edge in edges:
        if len({colouring[i] for i in edge}) == 1:
            return f"monochromatic edge {list(edge)}"
    return None


def colourable(size, edges, colors):
    """Exhaustive search: is there a colouring with no monochromatic edge?"""
    by_max = [[] for _ in range(size)]
    for edge in edges:
        by_max[max(edge)].append(edge)
    colour = [0] * size
    # iterative depth-first search; colour[pos] = next colour to try
    pos, used = 0, [0] * (size + 1)
    trial = [0] * size
    while 0 <= pos:
        if pos == size:
            return True
        limit = min(colors, used[pos] + 1)
        placed = False
        while trial[pos] < limit:
            c = trial[pos]
            trial[pos] += 1
            if all(any(colour[i] != c for i in e if i != pos) for e in by_max[pos]):
                colour[pos] = c
                used[pos + 1] = max(used[pos], c + 1)
                placed = True
                break
        if placed:
            pos += 1
            if pos < size:
                trial[pos] = 0
        else:
            pos -= 1
    return False


def colour_basep(x, p):
    """Least significant nonzero base-p digit of |x|."""
    n = abs(x)
    while n % p == 0:
        n //= p
    return n % p


def colour_ordmod_int(x, prime, modulus):
    n, v = abs(x), 0
    while n % prime == 0:
        n //= prime
        v += 1
    return v % modulus


def colour_ordmod_t(x, modulus):
    """Valuation at the prime t of a GF(q)[t] element, mod `modulus`."""
    v = 0
    while x[v] == 0:
        v += 1
    return v % modulus


def first_monochromatic(tuples, palette):
    for tup in tuples:
        if len({palette[i] for i in tup}) == 1:
            return tup
    return None


def avoider_problem(avoider, edges, size):
    if len(set(avoider)) != len(avoider) or any(not 0 <= i < size for i in avoider):
        return "avoider is not a subset of the window"
    chosen = set(avoider)
    for edge in edges:
        if set(edge) <= chosen:
            return f"avoider contains edge {list(edge)}"
    return None


# ---------------------------------------------------------------------------
# Rado's columns condition over Q, with exact Fractions
# ---------------------------------------------------------------------------


def _in_span(columns, target):
    """Is `target` a Q-combination of `columns`?  Gaussian elimination."""
    rows = len(target)
    mat = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(rows)]
    k = len(columns)
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return all(mat[i][k] == 0 for i in range(r, rows))


def rado_regular(matrix):
    """Columns condition for an integer matrix by exhaustive ordered search."""
    n = len(matrix[0])
    cols = [[row[j] for row in matrix] for j in range(n)]

    def cell_sum(cell):
        return [sum(cols[j][i] for j in cell) for i in range(len(matrix))]

    def extend(used, remaining):
        if not remaining:
            return True
        for size in range(1, len(remaining) + 1):
            for cell in itertools.combinations(remaining, size):
                total = cell_sum(cell)
                ok = all(v == 0 for v in total) if not used else _in_span(
                    [cols[j] for j in used], total
                )
                if ok and extend(used + list(cell), [j for j in remaining if j not in cell]):
                    return True
        return False

    return extend([], list(range(n)))


def witness_problem(matrix, witness):
    """None if the witness proves the columns condition for an integer matrix."""
    n = len(matrix[0])
    cells = witness["cells"]
    flat = [j for cell in cells for j in cell]
    if sorted(flat) != list(range(n)) or any(not cell for cell in cells):
        return "cells do not partition the columns"
    if len(witness["combos"]) != len(cells) - 1:
        return "wrong number of combinations"
    rows = len(matrix)
    if any(sum(matrix[i][j] for j in cells[0]) for i in range(rows)):
        return "first cell does not sum to zero"
    earlier = list(cells[0])
    for cell, combo in zip(cells[1:], witness["combos"]):
        coeffs = {int(j): Fraction(v) for j, v in combo.items()}
        if any(j not in earlier for j in coeffs):
            return "combination uses a later column"
        for i in range(rows):
            lhs = sum(Fraction(matrix[i][j]) for j in cell)
            rhs = sum(c * matrix[i][j] for j, c in coeffs.items())
            if lhs != rhs:
                return "cell sum is not the claimed combination"
        earlier.extend(cell)
    return None


def gf_witness_problem(ring, row, witness):
    """None if the witness proves the columns condition for one GF(q)[t] row."""
    n = len(row)
    cells = witness["cells"]
    flat = [j for cell in cells for j in cell]
    if sorted(flat) != list(range(n)) or any(not cell for cell in cells):
        return "cells do not partition the columns"
    if len(witness["combos"]) != len(cells) - 1:
        return "wrong number of combinations"

    def total(cell):
        acc = ring.zero
        for j in cell:
            acc = ring.add(acc, row[j])
        return acc

    if total(cells[0]) != ring.zero:
        return "first cell does not sum to zero"
    earlier = list(cells[0])
    for cell, combo in zip(cells[1:], witness["combos"]):
        fracs = {}
        for j, text in combo.items():
            num, _, den = text.partition("/")
            fracs[int(j)] = (ring.parse(num), ring.parse(den) if den else ring.one)
        if any(j not in earlier for j in fracs):
            return "combination uses a later column"
        # clear denominators: D * sum(cell) == sum_j num_j * (D / den_j) * row_j
        common = ring.one
        for _, den in fracs.values():
            common = ring.mul(common, den)
        rhs = ring.zero
        for j, (num, den) in fracs.items():
            others = ring.one
            for k, (_, d) in fracs.items():
                if k != j:
                    others = ring.mul(others, d)
            rhs = ring.add(rhs, ring.mul(ring.mul(num, others), row[j]))
        if ring.mul(common, total(cell)) != rhs:
            return "cell sum is not the claimed combination"
        earlier.extend(cell)
    return None


def gf_single_row_regular(ring, row):
    """One equation is regular iff some nonempty set of coefficients sums to 0."""
    for size in range(1, len(row) + 1):
        for cell in itertools.combinations(row, size):
            acc = ring.zero
            for c in cell:
                acc = ring.add(acc, c)
            if acc == ring.zero:
                return True
    return False


# ---------------------------------------------------------------------------
# reductions over Z, from their definitions
# ---------------------------------------------------------------------------


class IntPoly(dict):
    """exponent tuple -> nonzero int."""

    @classmethod
    def var(cls, nvars, i):
        return cls({tuple(1 if k == i else 0 for k in range(nvars)): 1})

    @classmethod
    def const(cls, nvars, c):
        return cls({(0,) * nvars: c} if c else {})

    def __add__(self, other):
        out = dict(self)
        for e, c in other.items():
            out[e] = out.get(e, 0) + c
        return IntPoly({e: c for e, c in out.items() if c})

    def __neg__(self):
        return IntPoly({e: -c for e, c in self.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly({e: c for e, c in out.items() if c})

    def __pow__(self, k):
        nvars = len(next(iter(self))) if self else 0
        out = IntPoly.const(nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def homogeneous_degree(self):
        degrees = {sum(e) for e in self}
        return degrees.pop() if len(degrees) == 1 else None


def reduce_reference(poly, transform, var_index=0):
    """Output polynomial of a reduction, computed from its definition."""
    n = poly.nvars
    deg = poly.degree()
    if transform == "shift":
        total = 2 * n
        subs = [IntPoly.var(total, i) + IntPoly.var(total, n + i) for i in range(n)]
        clear = [IntPoly.const(total, 1)] * n
        exps_clear = [0] * n
    elif transform == "q3":
        total = 3 * n
        subs = [IntPoly.var(total, 3 * i) - IntPoly.var(total, 3 * i + 1) for i in range(n)]
        clear = [IntPoly.var(total, 3 * i + 2) for i in range(n)]
        exps_clear = [deg] * n
    elif transform == "dq4":
        total = 4 * n
        subs = [IntPoly.var(total, 4 * i) - IntPoly.var(total, 4 * i + 1) for i in range(n)]
        clear = [IntPoly.var(total, 4 * i + 2) - IntPoly.var(total, 4 * i + 3) for i in range(n)]
        exps_clear = [deg] * n
    elif transform == "gate:add":
        total = n + 1
        subs = [IntPoly.var(total, i) for i in range(n)]
        subs[var_index] = IntPoly.var(total, var_index) - IntPoly.var(total, n)
        clear = [IntPoly.const(total, 1)] * n
        exps_clear = [0] * n
    elif transform == "gate:mul":
        total = n + 1
        out = IntPoly()
        for c, e in poly.terms:
            out = out + IntPoly({tuple(e) + (deg - e[var_index],): c})
        return out
    else:
        raise ValueError(transform)
    out = IntPoly()
    for c, e in poly.terms:
        term = IntPoly.const(total, c)
        for i, k in enumerate(e):
            term = term * subs[i] ** k * clear[i] ** (exps_clear[i] - k if exps_clear[i] else 0)
        out = out + term
    return out


def translation_invariant(p):
    """p(x1 + r, ..., xn + r) == p(x1, ..., xn), by symbolic expansion."""
    nvars = len(next(iter(p))) if p else 0
    total = nvars + 1
    subs = [IntPoly.var(total, i) + IntPoly.var(total, nvars) for i in range(nvars)]
    shifted = IntPoly()
    for e, c in p.items():
        term = IntPoly.const(total, c)
        for i, k in enumerate(e):
            term = term * subs[i] ** k
        shifted = shifted + term
    return shifted == IntPoly({e + (0,): c for e, c in p.items()})
