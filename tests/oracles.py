"""Brute-force oracles that the engines in partreg are tested against."""

import itertools
from dataclasses import dataclass, replace

from partreg.polys import eval_ring, substitute_and_clear
from partreg.rings import DomainElement, enum_element, frac_normalize, one, zero
from partreg.windows import RootHypergraph, Window, check_window_l_pr


@dataclass(frozen=True)
class FieldElement:
    """A reduced fraction num/den of DomainElements, with canonical sign/lead.

    partreg keeps fractions as raw (num, den) pairs; this object form is the
    reference its fraction arithmetic is checked against.
    """

    num: DomainElement
    den: DomainElement

    @property
    def domain(self):
        return self.num.domain

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        return frac(self.domain, self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return FieldElement(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return frac(self.domain, self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("field division by zero")
        return frac(self.domain, self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("0 has no negative power")
            return frac(self.domain, self.den ** (-n), self.num ** (-n))
        return FieldElement(self.num**n, self.den**n)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"{self.num}/{self.den}"


def frac(domain, num, den):
    """num/den of two DomainElements of `domain`, normalized by frac_normalize."""
    for x in (num, den):
        if x.domain is not domain and x.domain != domain:
            raise TypeError("mixed-domain arithmetic")
    n, d = frac_normalize(domain, num.value, den.value)
    return FieldElement(DomainElement(domain, n), DomainElement(domain, d))


def field_zero(domain):
    return FieldElement(zero(domain), one(domain))


def field_from_ring(x):
    return FieldElement(x, one(x.domain))


def field_from_pair(domain, pair):
    """The FieldElement of a raw (num, den) pair as frac_normalize returns it."""
    return FieldElement(DomainElement(domain, pair[0]), DomainElement(domain, pair[1]))


def eval_field(p, point):
    """Exact value of p at a point of K^nvars (FieldElements).

    With x_i = n_i/d_i and E_i the largest exponent of variable i, the
    numerator sum_e c_e prod n_i^e_i d_i^(E_i - e_i) over the common
    denominator prod d_i^E_i is folded on raw values and normalized once.
    """
    if len(point) != p.nvars:
        raise ValueError(f"expected {p.nvars} coordinates, got {len(point)}")
    domain, ops = p.domain, p.domain.ops
    for x in point:
        if not isinstance(x, FieldElement) or x.domain != domain:
            raise TypeError("mixed-domain arithmetic")
    blocks = [(x.num.value, None if x.den.is_one() else x.den.value) for x in point]
    clear = [max(column) for column in zip(*p.terms)] or [0] * p.nvars
    num = substitute_and_clear(ops, p.terms, blocks, clear)
    den = substitute_and_clear(ops, {(0,) * p.nvars: ops.one}, blocks, clear)  # prod d_i^E_i
    return frac(domain, DomainElement(domain, num), DomainElement(domain, den))


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


# the coloring search of windows before unit propagation, kept as it was
def forward_checking_coloring(size, edges, colors):
    """Lexicographically least coloring with no monochromatic edge, or None.

    Edges are sorted tuples of distinct positions.  Depth-first over
    positions in window order, iteratively (per-position arrays replace the
    call stack); a fresh color is only tried as the single next unused
    color, which is sound for lexicographic minimality (relabeling any valid
    coloring canonically never increases it).

    Forward checking: positions are colored in order, so an edge has one
    uncolored member, its last, right after its second-to-last member is
    colored.  If the other members then share a color c, c leaves the last
    member's mask of allowed colors, and an empty mask closes the branch.
    This only cuts branches without a valid completion, so the first valid
    leaf, and the result, are those of plain backtracking.
    """
    if any(len(e) == 1 for e in edges):
        return None
    if size == 0:
        return ()
    colors = min(colors, size)  # a fresh color beyond the size is never reached
    closing = [[] for _ in range(size)]  # (mask of the other members, last member)
    for e in edges:
        closing[e[-2]].append((sum(1 << i for i in e[:-2]), e[-1]))
    allowed = [(1 << colors) - 1] * size
    trail = []  # (position, its mask before a removal)
    assignment = [0] * size
    # classes[c] has bit i when assignment[i] == c; bits at or past the
    # current position may be stale, and closing masks never read them
    classes = [0] * colors
    used = [0] * size  # colors used before each position
    next_color = [0] * size
    mark = [0] * size  # trail length when the position was entered
    pos = 0
    while True:
        while len(trail) > mark[pos]:
            i, mask = trail.pop()
            allowed[i] = mask
        c = next_color[pos]
        limit = min(colors, used[pos] + 1)
        while c < limit and not allowed[pos] >> c & 1:
            c += 1
        if c == limit:
            if pos == 0:
                return None
            pos -= 1
            continue
        next_color[pos] = c + 1
        here = 1 << pos
        classes[assignment[pos]] &= ~here
        assignment[pos] = c
        same = classes[c] = classes[c] | here
        bit = 1 << c
        for rest, last in closing[pos]:
            if rest & same == rest and allowed[last] & bit:
                trail.append((last, allowed[last]))
                allowed[last] ^= bit
                if not allowed[last]:
                    break  # wiped out: try the next color
        else:
            if pos + 1 == size:
                return tuple(assignment)
            pos += 1
            used[pos] = max(used[pos - 1], c + 1)
            next_color[pos] = 0
            mark[pos] = len(trail)


def semidecide_per_window(p, colors, injective=False, budget=20):
    """The per-window semi-decider: each prefix window enumerated and searched afresh."""
    if budget < 1:
        raise ValueError("budget must be positive")
    for k in range(1, budget + 1):
        cert = check_window_l_pr(p, Window.enumeration_prefix(p.domain, k), colors, injective)
        if cert.kind == "PartitionCertified":
            return cert
    return replace(cert, kind="Exhausted")


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
    FieldElement back substitution normalized after every operation.  The
    solution is returned as raw (num, den) pairs, as solve_in_span returns it."""
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
    return [(v.num.value, v.den.value) for v in x]


# ---------------------------------------------------------------------------
# per-coefficient GF(q)[t] kernels
# ---------------------------------------------------------------------------


class DigitField:
    """GF(p^e) on the codes rings uses (base-p digit vectors of residues
    modulo a monic `modulus`, low degree first), by schoolbook digit
    arithmetic.  A prime field is the case modulus = (0, 1)."""

    def __init__(self, p, modulus):
        self.p, self.modulus, self.e = p, tuple(modulus), len(modulus) - 1
        self.q = p**self.e

    def _digits(self, code):
        return [code // self.p**i % self.p for i in range(self.e)]

    def _code(self, digits):
        return sum(d % self.p * self.p**i for i, d in enumerate(digits))

    def add(self, a, b):
        return self._code(x + y for x, y in zip(self._digits(a), self._digits(b)))

    def sub(self, a, b):
        return self._code(x - y for x, y in zip(self._digits(a), self._digits(b)))

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        product = [0] * (2 * self.e - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                product[i + j] += x * y
        for k in range(len(product) - 1, self.e - 1, -1):  # reduce by the monic modulus
            c = product.pop()
            for i, m in enumerate(self.modulus[:-1]):
                product[k - self.e + i] -= c * m
        return self._code(product)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        if self.e == 1:
            return pow(a, -1, self.p)
        result, n = 1, self.q - 2  # a^(q-2) by square-and-multiply
        while n:
            if n & 1:
                result = self.mul(result, a)
            a, n = self.mul(a, a), n >> 1
        return result


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = F.add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _trim(out)


def poly_neg(F, a):
    return [F.neg(c) for c in a]


def poly_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    add, mul = F.add, F.mul
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = add(out[i + j], mul(ca, cb))
    return _trim(out)


def poly_divmod(F, a, b):
    """Quotient and remainder of a by a nonzero b."""
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = F.inv(b[-1])
    sub, mul = F.sub, F.mul
    while len(rem) >= len(b):
        c = mul(rem[-1], inv_lead)
        d = len(rem) - len(b)
        quo[d] = c
        for i, cb in enumerate(b):
            rem[d + i] = sub(rem[d + i], mul(c, cb))
        _trim(rem)
    return _trim(quo), rem


def poly_gcd(F, a, b):
    """The monic gcd (zero for two zeros) as a tuple, by Euclid on poly_divmod."""
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    return tuple(poly_mul(F, a, (F.inv(a[-1]),) if a else (1,)))
