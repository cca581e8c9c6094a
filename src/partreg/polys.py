"""Sparse multivariate polynomials over Z or GF(q)[t].

Variables are positional; terms map exponent tuples to nonzero ring
coefficients.  Besides arithmetic and exact evaluation (over the ring on raw
values, and over the fraction field), this module hosts the two decidable
structural predicates (homogeneity, and additive translation invariance by
Hasse derivatives along (1,...,1) without expanding p(x+r)) and the
rootless-quadratic combination that folds a polynomial system into a single
polynomial with the same solution set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import rings
from .rings import (
    DomainElement,
    DomainTag,
    ParseError,
    field_from_ring,
    field_zero,
    from_int,
    one,
    t_element,
    zero,
)


@dataclass
class MultiPoly:
    domain: DomainTag
    nvars: int
    terms: dict = field(default_factory=dict)  # exponent tuple -> DomainElement

    def __post_init__(self):
        clean = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError("exponent tuple arity mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if not coeff.is_zero():
                clean[exps] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, domain, nvars):
        return cls(domain, nvars, {})

    @classmethod
    def constant(cls, domain, nvars, coeff):
        if isinstance(coeff, int):
            coeff = from_int(domain, coeff)
        return cls(domain, nvars, {(0,) * nvars: coeff})

    @classmethod
    def variable(cls, domain, nvars, index, coeff=None):
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(domain, nvars, {exps: coeff if coeff is not None else one(domain)})

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Max total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.domain == other.domain
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.domain != other.domain or self.nvars != other.nvars:
            raise ValueError("mixed-arity or mixed-domain polynomial arithmetic")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            terms[exps] = coeff if acc is None else acc + coeff
        return MultiPoly(self.domain, self.nvars, terms)

    def __neg__(self):
        return MultiPoly(self.domain, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = terms.get(exps)
                terms[exps] = prod if acc is None else acc + prod
        return MultiPoly(self.domain, self.nvars, terms)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        unit = MultiPoly.constant(self.domain, self.nvars, one(self.domain))
        return rings.power(MultiPoly.__mul__, unit, self, n)

    def scale(self, coeff):
        if coeff.is_zero():
            return MultiPoly.zero(self.domain, self.nvars)
        return MultiPoly(self.domain, self.nvars, {e: c * coeff for e, c in self.terms.items()})

    def compose(self, subs):
        """Substitute subs[i] (all sharing one arity) for variable i."""
        if len(subs) != self.nvars:
            raise ValueError("substitution arity mismatch")
        if not subs:
            raise ValueError("compose requires at least one variable")
        nvars = subs[0].nvars
        domain = self.domain
        out = MultiPoly.zero(domain, nvars)
        power_cache = {}
        for exps, coeff in self.terms.items():
            prod = MultiPoly.constant(domain, nvars, coeff)
            for i, e in enumerate(exps):
                if e:
                    key = (i, e)
                    if key not in power_cache:
                        power_cache[key] = subs[i] ** e
                    prod = prod * power_cache[key]
            out = out + prod
        return out

    def substitute_first(self, value):
        """Plug a ring element into variable 0, dropping one variable."""
        domain = self.domain
        if not isinstance(value, DomainElement) or value.domain != domain:
            raise TypeError("mixed-domain arithmetic")
        ops = domain.ops
        raw = substitute_first_raw(
            ops, {e: c.value for e, c in self.terms.items()}, RawPowers(ops.pow, value.value)
        )
        terms = {e: DomainElement(domain, c) for e, c in raw.items()}
        return MultiPoly(domain, self.nvars - 1, terms)

    def lift(self, nvars):
        """Reinterpret in a larger ring; new trailing variables are unused."""
        if nvars < self.nvars:
            raise ValueError("cannot drop variables")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly(self.domain, nvars, {e + pad: c for e, c in self.terms.items()})

    def __str__(self):
        return poly_to_string(self)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_field(p, point):
    """Exact value of p at a point of K^nvars."""
    if len(point) != p.nvars:
        raise ValueError(f"expected {p.nvars} coordinates, got {len(point)}")
    total = field_zero(p.domain)
    cache = {}
    for exps, coeff in p.terms.items():
        term = field_from_ring(coeff)
        for i, e in enumerate(exps):
            if e:
                key = (i, e)
                if key not in cache:
                    cache[key] = point[i] ** e
                term = term * cache[key]
        total = total + term
    return total


def eval_ring(p, point):
    """Exact value of p at a point of R^nvars, folded on raw values and wrapped once."""
    if len(point) != p.nvars:
        raise ValueError(f"expected {p.nvars} coordinates, got {len(point)}")
    domain = p.domain
    values = []
    for x in point:
        if not isinstance(x, DomainElement) or (x.domain is not domain and x.domain != domain):
            raise TypeError("mixed-domain arithmetic")
        values.append(x.value)
    ops = domain.ops
    total = ops.zero
    powers = {}
    for exps, coeff in p.terms.items():
        term = coeff.value
        for i, e in enumerate(exps):
            if e:
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = ops.pow(values[i], e)
                term = ops.mul(term, power)
        total = ops.add(total, term)
    return DomainElement(domain, total)


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
    degrees = {sum(e) for e in p.terms}
    if not degrees:
        return 0
    if len(degrees) == 1:
        return degrees.pop()
    return None


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
                multiple = ops.from_int(binomial)
                if multiple:
                    term = ops.mul(coeff.value, multiple)
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

    Iterates acc -> acc^2*a0 + acc*next*a1 + next^2 where w^2 + a1*w + a0 is
    rootless in K, i.e. acc^2 * f(next/acc).
    """
    if not ps:
        raise ValueError("empty system")
    domain = ps[0].domain
    nvars = ps[0].nvars
    for p in ps:
        if p.domain != domain or p.nvars != nvars:
            raise ValueError("mixed domains or arities in system")
    a0, a1 = rootless_quadratic(domain)
    acc = ps[0]
    for p in ps[1:]:
        acc = (acc * acc).scale(a0) + (acc * p).scale(a1) + p * p
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
        if m.group(1):
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2):
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


_MAX_NESTING = 200  # each open parenthesis costs the parser four stack frames


class _PolyParser:
    """The expression parser: named variables, t over GF(q)[t], integer literals.

    An integer literal over GF(q)[t] is a coefficient code in [0, q), exactly
    as rings.format_element prints it, so printed output parses back.
    """

    def __init__(self, domain, text, var_order=None):
        self.domain = domain
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0  # open parentheses; bounded so parsing never exhausts the stack
        self.fixed_order = var_order is not None
        self.var_order = list(var_order) if var_order else []

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def var_index(self, name, pos):
        if name in self.var_order:
            return self.var_order.index(name)
        if self.fixed_order:
            raise ParseError(f"unknown variable {name!r}", self.text, pos)
        self.var_order.append(name)
        return len(self.var_order) - 1

    def parse(self):
        raw = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)
        return self._pad(raw), self.var_order

    # raw polynomials during parsing use the running variable count; terms are
    # re-padded at the end once all variables are known.
    def _pad(self, p):
        n = len(self.var_order)
        return MultiPoly(self.domain, n, {e + (0,) * (n - len(e)): c for e, c in p.terms.items()})

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                acc, rhs = self._pad(acc), self._pad(rhs)
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
            elif not (kind in ("int", "name") or (kind == "op" and val == "(")):
                return acc
            # an explicit "*", or juxtaposition such as "2x" or "2(x+y)"
            rhs = self.factor()
            acc = self._pad(acc) * self._pad(rhs)

    def factor(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", self.text, pos)
            return self._pad(base) ** val
        return base

    def atom(self):
        kind, val, pos = self.next()
        negate = False
        while kind == "op" and val == "-":  # a run of unary minuses, read in a loop
            negate = not negate
            kind, val, pos = self.next()
        n = len(self.var_order)
        if kind == "int":
            if self.domain.kind == "Z":
                result = MultiPoly.constant(self.domain, n, val)
            else:
                code = val % self.domain.q
                coeff = DomainElement(self.domain, (code,) if code else ())
                result = MultiPoly.constant(self.domain, n, coeff)
        elif kind == "name":
            if val == "t" and self.domain.kind == "GFqt":
                result = MultiPoly.constant(self.domain, n, t_element(self.domain))
            else:
                idx = self.var_index(val, pos)
                result = MultiPoly.variable(self.domain, len(self.var_order), idx)
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
        return -result if negate else result


def parse_poly(domain, text, var_order=None):
    """Parse an expression like "x+y-z" or "(x1-2*x2+x3)^2".

    Returns (poly, variable names).  Variables are positional in order of
    first appearance unless var_order pins them.
    """
    return _PolyParser(domain, text, var_order).parse()


def poly_to_string(p, names=None):
    if p.is_zero():
        return "0"
    if names is None:
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
        coeff_str = rings.format_element(coeff)
        if not factors:
            parts.append(coeff_str)
        elif coeff.is_one():
            parts.append("*".join(factors))
        elif p.domain.kind == "Z" and coeff.value == -1:
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
        records.append({"c": rings.format_element(p.terms[exps]), "e": list(exps)})
    return {"nvars": p.nvars, "terms": records}


def poly_from_records(domain, data):
    terms = {}
    for record in data["terms"]:
        coeff = rings.parse_element(domain, record["c"])
        terms[tuple(record["e"])] = coeff
    return MultiPoly(domain, data["nvars"], terms)
