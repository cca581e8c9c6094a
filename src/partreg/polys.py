"""Sparse multivariate polynomials over Z or GF(q)[t].

Variables are positional.  MultiPoly.terms maps exponent tuples to nonzero
raw coefficients, stored frozen (ops.freeze): ints over Z, code tuples over
GF(q)[t].  Raw terms are checked at three edges, the MultiPoly constructor,
parse_poly and poly_from_records, all by the constructor's check.  All
arithmetic runs on raw term dicts (raw_add, raw_neg, raw_mul, and powers by
rings.power).  MultiPoly.compose is the one entry point for substituting
polynomials, with or without clearing denominators: the reductions and system
combination go through it.  One substitute_and_clear fold serves it, the
reductions' sampled identity checks and exact evaluation in the ring.  The
module also decides homogeneity and additive translation invariance (by Hasse
derivatives, without expanding p(x+r)), and folds a polynomial system into one
polynomial with the same roots.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from . import rings
from .rings import DomainElement, DomainTag, ParseError
from .rings import from_int, one, t_element, zero


@dataclass
class MultiPoly:
    """terms maps exponent tuples of length nvars to nonzero raw coefficients.

    The constructor is the check on incoming terms, parse_poly's and
    poly_from_records' included: arity, nonnegative exponents, and coefficients
    by DomainTag.canonical (as for DomainElement); zero ones are dropped.
    """

    domain: DomainTag
    nvars: int
    terms: dict = field(default_factory=dict)  # exponent tuple -> raw coefficient

    def __post_init__(self):
        canonical = self.domain.canonical
        clean = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError("exponent tuple arity mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            coeff = canonical(coeff)
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, domain, nvars):
        return cls(domain, nvars, {})

    @classmethod
    def constant(cls, domain, nvars, coeff):
        """The constant polynomial coeff: an int, or a DomainElement of domain."""
        if isinstance(coeff, int):
            coeff = from_int(domain, coeff)
        elif coeff.domain != domain:
            raise TypeError("mixed-domain arithmetic")
        return cls(domain, nvars, {(0,) * nvars: coeff.value})

    @classmethod
    def variable(cls, domain, nvars, index):
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        return cls(domain, nvars, {_unit_exponent(nvars, index): domain.ops.one})

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Max total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.domain != other.domain or self.nvars != other.nvars:
            raise ValueError("mixed-arity or mixed-domain polynomial arithmetic")

    def __add__(self, other):
        self._check(other)
        return MultiPoly(self.domain, self.nvars, raw_add(self.domain.ops, self.terms, other.terms))

    def __neg__(self):
        return MultiPoly(self.domain, self.nvars, raw_neg(self.domain.ops, self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return MultiPoly(self.domain, self.nvars, raw_mul(self.domain.ops, self.terms, other.terms))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        ring = poly_ring(self.domain.ops, self.nvars)
        return MultiPoly(self.domain, self.nvars, ring.pow(self.terms, n))

    def compose(self, blocks):
        """Clear p(n_1/d_1, ..., n_k/d_k) with (prod d_i)^deg(p).

        blocks[i] is the (numerator, denominator) pair of polynomials, all of
        one arity, that replaces variable i; a None denominator substitutes
        the numerator alone and clears nothing, so all-None blocks compose.  A
        polynomial in no variables, given no blocks, is its own constant.
        """
        if len(blocks) != self.nvars:
            raise ValueError("substitution arity mismatch")
        nvars = blocks[0][0].nvars if blocks else 0
        subs = [n for n, _ in blocks] + [d for _, d in blocks if d is not None]
        if any(s.domain != self.domain or s.nvars != nvars for s in subs):
            raise ValueError("mixed-arity or mixed-domain polynomial arithmetic")
        ring = poly_ring(self.domain.ops, nvars)
        raw = [(n.terms, None if d is None else d.terms) for n, d in blocks]
        out = substitute_and_clear(ring, ring.lift(self.terms), raw, [self.degree()] * self.nvars)
        return MultiPoly(self.domain, nvars, out)

    def substitute_first(self, value):
        """Plug a ring element into variable 0, dropping one variable."""
        domain = self.domain
        if not isinstance(value, DomainElement) or value.domain != domain:
            raise TypeError("mixed-domain arithmetic")
        ops = domain.ops
        raw = substitute_first_raw(ops, self.terms, RawPowers(ops.pow, value.value))
        return MultiPoly(domain, self.nvars - 1, raw)

    def __str__(self):
        return poly_to_string(self)


# ---------------------------------------------------------------------------
# raw polynomial kernels
# ---------------------------------------------------------------------------
# Raw terms map exponent tuples of one arity to nonzero raw coefficients.  The
# kernels drop cancelled terms; GF(q)[t] coefficients may be lists until a
# MultiPoly stores them frozen.


def _unit_exponent(nvars, index):
    return tuple(1 if i == index else 0 for i in range(nvars))


def raw_add(ops, a, b):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = ops.add(out[exps], c) if exps in out else c
    return {exps: c for exps, c in out.items() if c}


def raw_neg(ops, a):
    return {exps: ops.neg(c) for exps, c in a.items()}


def raw_mul(ops, a, b):
    add, mul = ops.add, ops.mul
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(map(operator.add, e1, e2))
            prod = mul(c1, c2)
            out[exps] = add(out[exps], prod) if exps in out else prod
    return {exps: c for exps, c in out.items() if c}


class PolyRing(NamedTuple):
    """Raw polynomials of one arity, shaped like RawOps for substitute_and_clear;
    lift turns raw coefficients into constant polynomials."""

    zero: dict
    add: object
    mul: object
    pow: object
    lift: object


def poly_ring(ops, nvars):
    mul = functools.partial(raw_mul, ops)
    constant = (0,) * nvars
    return PolyRing(
        {},
        functools.partial(raw_add, ops),
        mul,
        lambda a, n: rings.power(mul, {constant: ops.one}, a, n),
        lambda terms: {exps: {constant: c} for exps, c in terms.items()},
    )


def substitute_and_clear(ring, terms, blocks, clear=None):
    """sum over terms of c_e * prod_i n_i^(e_i) * d_i^(clear_i - e_i), in `ring`.

    ring is a RawOps (raw values) or a PolyRing (raw polynomials), and the
    coefficients and blocks (n_i, d_i) are its elements.  A None d_i clears
    nothing; clear (per variable, at least every e_i) is read only for the
    other blocks.  Each factor is built once per (variable, exponent).
    """
    add, mul, pow = ring.add, ring.mul, ring.pow
    clears = clear and [0 if d is None else k for (_, d), k in zip(blocks, clear)]
    total, factors = ring.zero, {}
    for exps, coeff in terms.items():
        for i, e in enumerate(exps):
            if e or clears and clears[i]:
                factor = factors.get((i, e))
                if factor is None:
                    numerator, denominator = blocks[i]
                    factor = pow(numerator, e)
                    if clears and clears[i] > e:
                        factor = mul(factor, pow(denominator, clears[i] - e))
                    factors[i, e] = factor
                coeff = mul(coeff, factor)
        total = add(total, coeff)
    return total


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_ring(p, point):
    """Exact value of p at a point of R^nvars, folded on raw values and wrapped once."""
    if len(point) != p.nvars:
        raise ValueError(f"expected {p.nvars} coordinates, got {len(point)}")
    domain = p.domain
    for x in point:
        if not isinstance(x, DomainElement) or (x.domain is not domain and x.domain != domain):
            raise TypeError("mixed-domain arithmetic")
    blocks = [(x.value, None) for x in point]
    return DomainElement(p.domain, substitute_and_clear(p.domain.ops, p.terms, blocks))


class RawPowers(dict):
    """exponent -> value**exponent on raw values, each power computed on first use.

    Only the exponents asked for are ever computed, so x^1000000 costs one
    ops.pow, not a table up to the exponent.
    """

    __slots__ = ("pow", "value")

    def __init__(self, pow, value):
        super().__init__()
        self.pow = pow
        self.value = value

    def __missing__(self, e):
        power = self[e] = self.pow(self.value, e)
        return power


def substitute_first_raw(ops, terms, powers):
    """Raw terms (exponent tuple -> nonzero raw coefficient) with variable 0
    replaced by the value whose RawPowers are `powers`.

    The result maps the remaining exponents to nonzero raw coefficients: a
    coefficient sum that cancels to zero is dropped, as MultiPoly drops zero
    coefficients, so an empty result is the zero polynomial.
    """
    add, mul = ops.add, ops.mul
    out = {}
    for exps, c in terms.items():
        e0 = exps[0]
        if e0:
            c = mul(c, powers[e0])
            if not c:
                continue  # only when the value is 0
        rest = exps[1:]
        acc = out.get(rest)
        if acc is None:
            out[rest] = c
        else:
            acc = add(acc, c)
            if acc:
                out[rest] = acc
            else:
                del out[rest]
    return out


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------


def is_homogeneous(p):
    """Total degree d if every term has degree d, else None.

    The zero polynomial is reported homogeneous of degree 0.
    """
    degrees = {sum(e) for e in p.terms} or {0}
    return degrees.pop() if len(degrees) == 1 else None


def is_translation_invariant(p):
    """Decide whether p(x1+r, ..., xn+r) - p(x1, ..., xn) is identically 0.

    The coefficient of r^k in p(x+r) is the Hasse derivative along (1,...,1),
    D^(k)p = sum_e c_e sum_{j <= e, |j| = k} prod C(e_i, j_i) x^(e-j), so p is
    invariant iff D^(k)p = 0 for all k >= 1.  In characteristic 0,
    D^(k) = (D^(1))^k / k!, so k = 1 suffices.  In characteristic p,
    D^(a) D^(b) = C(a+b, a) D^(a+b), and by Lucas' theorem the product of the
    D^(p^s) taken along the base-p digits of k is a nonzero multiple of D^(k),
    so testing k = p^s <= deg p suffices.  Nothing is expanded, and the answer
    is a theorem, not a sampling result.
    """
    if p.nvars == 0 or p.is_zero():
        return True
    ops = p.domain.ops
    degree = p.degree()
    k = 1
    while k <= degree:
        derivative = {}
        for exps, coeff in p.terms.items():
            for lowered, binomial in _lowerings(exps, k):
                term = ops.mul(coeff, ops.from_int(binomial))
                acc = derivative.get(lowered)
                derivative[lowered] = term if acc is None else ops.add(acc, term)
        if any(derivative.values()):
            return False
        if not ops.characteristic:
            break
        k *= ops.characteristic
    return True


def _lowerings(exps, k):
    """(exps - j, prod C(e_i, j_i)) for every j <= exps with |j| = k."""
    if not k:
        return [(exps, 1)]
    if not exps:
        return []
    e = exps[0]
    return [
        ((e - j,) + rest, math.comb(e, j) * binomial)
        for j in range(min(e, k) + 1)
        for rest, binomial in _lowerings(exps[1:], k - j)
    ]


# ---------------------------------------------------------------------------
# system combination via a rootless quadratic
# ---------------------------------------------------------------------------


def rootless_quadratic(domain):
    """Coefficients (a0, a1) of a monic quadratic w^2 + a1*w + a0 with no root in K.

    Over Q: w^2 + 1.  Over GF(q)(t), q odd: w^2 - t (t is not a square, by
    degree parity).  Over GF(2^l)(t): w^2 + w + t (an Artin-Schreier
    polynomial with no rational root, again by degree parity).
    """
    characteristic = domain.ops.characteristic
    if not characteristic:
        return one(domain), zero(domain)
    if characteristic == 2:
        return t_element(domain), one(domain)
    return -t_element(domain), zero(domain)


def combine_system(ps):
    """A single polynomial whose K-roots are the common K-roots of ps.

    Iterates acc -> acc^2 * f(next/acc) = acc^2*a0 + acc*next*a1 + next^2,
    where f(w) = w^2 + a1*w + a0 is rootless in K: f.compose with the block
    (next, acc).
    """
    if not ps:
        raise ValueError("empty system")
    domain = ps[0].domain
    nvars = ps[0].nvars
    if any(p.domain != domain or p.nvars != nvars for p in ps):
        raise ValueError("mixed domains or arities in system")
    a0, a1 = rootless_quadratic(domain)
    f = MultiPoly(domain, 1, {(2,): domain.ops.one, (1,): a1.value, (0,): a0.value})
    acc = ps[0]
    for p in ps[1:]:
        acc = f.compose([(p, acc)])
    return acc


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|\+|-|\(|\)))")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character", text, pos)
        kind = ("int", "name", "op")[m.lastindex - 1]
        tokens.append((kind, int(m[1]) if m[1] else m[m.lastindex], pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


_MAX_NESTING = 200  # each open parenthesis costs the parser four stack frames


class _PolyParser:
    """The expression parser: named variables, t over GF(q)[t], integer literals.

    An integer literal over GF(q)[t] is a coefficient code in [0, q), exactly
    as rings.format_element prints it, so printed output parses back.  Unless
    var_order pins them, the variables are the names in order of appearance,
    so sub-expressions are raw term dicts of the final arity from the start.
    """

    def __init__(self, domain, text, var_order=None):
        self.domain = domain
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0  # open parentheses; bounded so parsing never exhausts the stack
        if var_order is None:
            names = (val for kind, val, _ in self.tokens if kind == "name" and not self._is_t(val))
            var_order = dict.fromkeys(names)
        self.var_order = list(var_order)
        self.ring = poly_ring(domain.ops, len(self.var_order))

    def _is_t(self, name):
        return name == "t" and self.domain.kind == "GFqt"

    def _constant(self, value):
        return {(0,) * len(self.var_order): value} if value else {}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        raw = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)
        return MultiPoly(self.domain, len(self.var_order), raw), self.var_order

    def expr(self):
        ops = self.domain.ops
        acc, sign = {}, "+"
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":  # a leading sign
            sign = self.next()[1]
        while True:
            rhs = self.term()
            acc = raw_add(ops, acc, rhs if sign == "+" else raw_neg(ops, rhs))
            kind, sign, _ = self.peek()
            if not (kind == "op" and sign in "+-"):
                return acc
            self.next()

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
            elif not (kind in ("int", "name") or (kind == "op" and val == "(")):
                return acc
            # an explicit "*", or juxtaposition such as "2x" or "2(x+y)"
            acc = self.ring.mul(acc, self.factor())

    def factor(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", self.text, pos)
            return self.ring.pow(base, val)
        return base

    def atom(self):
        kind, val, pos = self.next()
        negate = False
        while kind == "op" and val == "-":  # a run of unary minuses, read in a loop
            negate = not negate
            kind, val, pos = self.next()
        if kind == "int":
            if self.domain.kind == "Z":
                result = self._constant(val)
            else:
                code = val % self.domain.q
                result = self._constant((code,) if code else ())
        elif kind == "name":
            if self._is_t(val):
                result = self._constant((0, 1))
            elif val not in self.var_order:
                raise ParseError(f"unknown variable {val!r}", self.text, pos)
            else:
                index = self.var_order.index(val)
                result = {_unit_exponent(len(self.var_order), index): self.domain.ops.one}
        elif kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError("parentheses nested too deeply", self.text, pos)
            self.depth += 1
            result = self.expr()
            self.depth -= 1
            kind, val, pos = self.next()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", self.text, pos)
        else:
            raise ParseError("expected a term", self.text, pos)
        return raw_neg(self.domain.ops, result) if negate else result


def parse_poly(domain, text, var_order=None):
    """Parse an expression like "x+y-z" or "(x1-2*x2+x3)^2".

    Returns (poly, variable names).  Variables are positional in order of
    first appearance unless var_order pins them.
    """
    return _PolyParser(domain, text, var_order).parse()


def poly_to_string(p):
    if p.is_zero():
        return "0"
    names = [f"x{i+1}" for i in range(p.nvars)]
    parts = []
    for exps in sorted(p.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        coeff = p.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        coeff_str = rings.format_element(DomainElement(p.domain, coeff))
        if not factors:
            parts.append(coeff_str)
        elif coeff == p.domain.ops.one:
            parts.append("*".join(factors))
        elif p.domain.kind == "Z" and coeff == -1:
            parts.append("-" + "*".join(factors))
        else:
            wrapped = f"({coeff_str})" if "+" in coeff_str else coeff_str
            parts.append(wrapped + "*" + "*".join(factors))
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out


def poly_to_records(p):
    """Serialized form: a list of {coefficient, exponent-tuple} records."""
    records = []
    for exps in sorted(p.terms):
        coeff = DomainElement(p.domain, p.terms[exps])
        records.append({"c": rings.format_element(coeff), "e": list(exps)})
    return {"nvars": p.nvars, "terms": records}


def poly_from_records(domain, data):
    terms = {tuple(r["e"]): rings.parse_element(domain, r["c"]).value for r in data["terms"]}
    return MultiPoly(domain, data["nvars"], terms)
