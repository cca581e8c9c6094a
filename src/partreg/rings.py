"""Exact arithmetic for the supported coefficient domains.

Two Euclidean domains are implemented: the ring of integers Z (arbitrary
precision) and the univariate polynomial ring GF(q)[t] for a prime power q.
A fraction over either domain is a raw (num, den) pair that frac_normalize
reduces by gcd, so the fraction field (Q or GF(q)(t)) has syntactic equality.

Each domain has one arithmetic path: the RawOps table that raw_ops builds and
every DomainTag carries as `ops`.  DomainElement, fraction normalization and
the raw-value kernels (polynomial evaluation, translation invariance, root
tables) all go through it.

Elements of GF(q)[t] are stored as little-endian coefficient tuples with no
trailing zeros; the empty tuple is zero.  Coefficients are integer codes in
[0, q): the residue itself for prime q, and the base-p digit vector of a
representative for q = p^e (the extension is built over a fixed lex-least
irreducible modulus).

Primality over Z (the prime of a valuation colouring, the base of a digit
colouring, the characteristic p of q = p^e) is decided by isprime, a
deterministic Miller-Rabin test with the first 13 primes as bases.  It is
exact below psi_13 = 3,317,044,064,679,887,385,961,981 (Sorenson and Webster,
Math. Comp. 2017) and refuses n >= psi_13 with ValueError rather than guess.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple


class ParseError(ValueError):
    """Malformed element/polynomial text; the message names the offending position."""

    def __init__(self, message, text=None, pos=None):
        if text is not None and pos is not None:
            message = f"{message} at position {pos}: {text!r}"
        super().__init__(message)


class DivisibilityError(ArithmeticError):
    """exact_div called with a zero divisor or a non-divisor."""


# ---------------------------------------------------------------------------
# primality over Z
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13: least strong pseudoprime to all of _MR_BASES


def isprime(n):
    """True iff the integer n is prime; ValueError for n >= psi_13."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError("prime too large to certify")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, e):
    """floor(n^(1/e)) for n >= 1 by integer Newton steps (no float overflow)."""
    x = 1 << -(-n.bit_length() // e)  # 2^ceil(bits/e) > n^(1/e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# coefficient fields GF(q)
# ---------------------------------------------------------------------------


def _factor_prime_power(q):
    """(p, e) with q = p^e, p prime.

    With e the largest exponent for which q is a perfect e-th power r^e, q is
    a prime power iff r is prime, since any other root of q is a power of r.
    """
    if q >= 2:
        for e in range(q.bit_length() - 1, 0, -1):
            r = _iroot(q, e)
            if r**e == q:
                if isprime(r):
                    return r, e
                break
    raise ValueError(f"{q} is not a prime power")


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# Coefficient-list arithmetic (little-endian lists, results trimmed), one kernel
# set per kind of coefficient field.  The _fp_* kernels run on prime-field codes
# as plain ints, with one % p per output coefficient; the _poly_* kernels call
# an extension field's ops per coefficient pair (GF(2^e) adds codes by XOR).


def _fp_add(p, a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + y) % p for x, y in zip(a, b)] + list(a[len(b) :]))


def _fp_mul(p, a, b):
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return []
    if len(b) == 1:  # a constant: nothing to accumulate
        return list(a) if b[0] == 1 else [x * b[0] % p for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            for j, y in enumerate(a, i):
                out[j] += x * y
    return [c % p for c in out]  # GF(p) has no zero divisors: the lead stays nonzero


def _fp_divmod(p, a, b):
    """Quotient and remainder of a by a nonzero b."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv_lead, n = pow(b[-1], -1, p), len(b) - 1
    while len(rem) > n:
        d = len(rem) - 1 - n
        quo[d] = c = rem.pop() * inv_lead % p  # the leading coefficient cancels
        rem[d:] = [(r - c * y) % p for r, y in zip(rem[d:], b)]
        _trim(rem)
    return quo, rem


def _poly_add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim(list(map(F.add, a, b)) + list(a[len(b) :]))


def _poly_mul(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return []
    add, mul = F.add, F.mul
    if len(b) == 1:  # a constant: nothing to accumulate
        return list(a) if b[0] == 1 else [mul(x, b[0]) for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            for j, y in enumerate(a, i):
                out[j] = add(out[j], mul(x, y))
    return out  # a field has no zero divisors: the lead stays nonzero


def _poly_divmod(F, a, b):
    """Quotient and remainder of a by a nonzero b."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv_lead, n, sub, mul = F.inv(b[-1]), len(b) - 1, F.sub, F.mul
    while len(rem) > n:
        d = len(rem) - 1 - n
        quo[d] = c = mul(rem.pop(), inv_lead)  # the leading coefficient cancels
        rem[d:] = [sub(r, mul(c, y)) for r, y in zip(rem[d:], b)]
        _trim(rem)
    return quo, rem


@functools.lru_cache(maxsize=None)
def _least_irreducible(p, e):
    """The lex-least monic irreducible of degree e over GF(p), low degree first."""
    domain = gf_poly_domain(p)
    for index in range(p**e, 2 * p**e):  # the monic polynomials of degree e
        f = enum_element(domain, index)
        if is_irreducible(f):
            return f.value
    raise AssertionError("no irreducible modulus found")  # unreachable


class _PrimeField:
    def __init__(self, p):
        self.q = self.p = p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return pow(a, -1, self.q)

    def from_int(self, n):
        return n % self.q


_OP_CACHE_SIZE = 1 << 16  # memoised results per GF(p^e) op


class _ExtensionField:
    """GF(p^e) as GF(p)[u] modulo the lex-least monic irreducible of degree e.

    The code of a residue is its enumeration index in GF(p)[t]: the base-p
    digits are its coefficients, low degree first.  Each op but XOR in
    characteristic 2 is memoised per operand pair in a fixed-size cache
    instead of a q x q table, so a large field such as GF(2^16) costs nothing
    up front.
    """

    def __init__(self, p, e):
        self.p, self.q = p, p**e
        self.modulus = _least_irreducible(p, e)
        base = gf_poly_domain(p)
        modulus = DomainElement(base, self.modulus)
        residue = functools.partial(enum_element, base)
        memo = functools.lru_cache(maxsize=_OP_CACHE_SIZE)
        if p == 2:  # codes are base-2 digit vectors, so adding or subtracting is XOR
            self.add = self.sub = operator.xor
        else:
            self.add = memo(lambda a, b: enum_index(residue(a) + residue(b)))
            self.sub = memo(lambda a, b: enum_index(residue(a) - residue(b)))
        self.mul = memo(lambda a, b: enum_index((residue(a) * residue(b)).divmod(modulus)[1]))
        self.inv = memo(self._inv)

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return power(self.mul, 1, a, self.q - 2)  # a^(q-1) = 1 for a != 0

    def from_int(self, n):
        return n % self.p


@functools.lru_cache(maxsize=None)
def _coeff_field(q):
    p, e = _factor_prime_power(q)
    return _PrimeField(p) if e == 1 else _ExtensionField(p, e)


def power(mul, one, a, n):
    """a^n for n >= 0 by square-and-multiply, never multiplying by one."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return one if result is None else result


class RawOps(NamedTuple):
    """The ring interface of one domain, on raw values: ints over Z, and over
    GF(q)[t] little-endian coefficient sequences with no trailing zeros.

    GF(q)[t] ops take lists or tuples and return either; zero, one, gcd and
    unit give tuples, so they compare equal to stored element values, and
    freeze turns any raw value into that stored, hashable form.  Zero is
    falsy in both rings.  gcd is normalized (nonnegative over Z, monic over
    GF(q)[t]), and unit(a) is the unit u that normalizes a * u (one at 0).
    """

    zero: object
    one: object
    add: object
    neg: object
    mul: object
    pow: object
    divmod: object
    gcd: object
    unit: object
    from_int: object
    freeze: object
    characteristic: int


def _int_unit(a):
    return -1 if a < 0 else 1


def _poly_unit(F, a):
    return (F.inv(a[-1]),) if a else (1,)


@functools.lru_cache(maxsize=None)
def raw_ops(kind, q):
    """The RawOps of Z (q None) or GF(q)[t]; only here does arithmetic depend on kind."""
    if kind == "Z":
        return RawOps(
            0,
            1,
            operator.add,
            operator.neg,
            operator.mul,
            pow,
            divmod,
            math.gcd,
            _int_unit,
            int,
            int,
            0,
        )
    F = _coeff_field(q)
    if isinstance(F, _PrimeField):
        add, mul, divmod_ = (functools.partial(k, F.p) for k in (_fp_add, _fp_mul, _fp_divmod))
    else:
        add, mul, divmod_ = (functools.partial(k, F) for k in (_poly_add, _poly_mul, _poly_divmod))
    unit = functools.partial(_poly_unit, F)
    minus_one = (F.p - 1,)  # -1 has code p - 1 in any GF(p^e): one in characteristic 2

    def gcd(a, b):
        while b:
            a, b = b, divmod_(a, b)[1]
        return tuple(mul(a, unit(a)))

    return RawOps(
        (),
        (1,),
        add,
        lambda a: mul(a, minus_one),
        mul,
        lambda a, n: power(mul, (1,), a, n),
        divmod_,
        gcd,
        unit,
        lambda n: _trim([F.from_int(n)]),
        tuple,
        F.p,
    )


# ---------------------------------------------------------------------------
# domain tags and elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainTag:
    """Identifies a supported domain: Z, or GF(q)[t] for a prime power q."""

    kind: str  # "Z" or "GFqt"
    q: int | None = None
    ops: RawOps = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("Z", "GFqt"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "Z" and self.q is not None:
            raise ValueError("Z carries no field size")
        object.__setattr__(self, "ops", raw_ops(self.kind, self.q))  # validates q

    def __reduce__(self):
        # ops holds closures; a copy or unpickled tag looks its table up again
        return DomainTag, (self.kind, self.q)

    def canonical(self, value):
        """value in stored form, or TypeError/ValueError when it is not canonical."""
        if self.kind == "Z":
            if not isinstance(value, int):
                raise TypeError("Z elements are ints")
            return value
        value = tuple(value)
        if value and value[-1] == 0:
            raise ValueError("trailing zero coefficient")
        if value and not (0 <= min(value) and max(value) < self.q):
            raise ValueError("coefficient out of range")
        return value

    @property
    def coeff_field(self):
        if self.kind != "GFqt":
            raise ValueError("only GF(q)[t] has a coefficient field")
        return _coeff_field(self.q)

    def __str__(self):
        return "Z" if self.kind == "Z" else f"GF({self.q})[t]"


INTEGERS = DomainTag("Z")


def gf_poly_domain(q):
    return DomainTag("GFqt", q)


_DOMAIN_RE = re.compile(r"^GF\((\d+)\)\[t\]$")


def parse_domain(text):
    text = text.strip()
    if text in ("Z", "ℤ"):
        return INTEGERS
    m = _DOMAIN_RE.match(text)
    if m:
        try:
            return gf_poly_domain(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown domain {text!r} (expected 'Z' or 'GF(q)[t]')")


@dataclass(frozen=True)
class DomainElement:
    """An element of Z or GF(q)[t], always in canonical form."""

    domain: DomainTag
    value: int | tuple

    def __post_init__(self):
        object.__setattr__(self, "value", self.domain.canonical(self.value))

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.value

    def __bool__(self):
        return not self.is_zero()

    def is_one(self):
        return self.value == self.domain.ops.one

    def degree(self):
        """Degree in t; -1 for the zero polynomial (GF domains only)."""
        if self.domain.kind == "Z":
            raise ValueError("degree is only defined over GF(q)[t]")
        return len(self.value) - 1

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, DomainElement) or other.domain != self.domain:
            raise TypeError("mixed-domain arithmetic")

    def __add__(self, other):
        self._check(other)
        return DomainElement(self.domain, self.domain.ops.add(self.value, other.value))

    def __neg__(self):
        return DomainElement(self.domain, self.domain.ops.neg(self.value))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return DomainElement(self.domain, self.domain.ops.mul(self.value, other.value))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power in a ring")
        if n == 1:
            return self
        return DomainElement(self.domain, self.domain.ops.pow(self.value, n))

    def divmod(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisibilityError("division by zero")
        quo, rem = self.domain.ops.divmod(self.value, other.value)
        return DomainElement(self.domain, quo), DomainElement(self.domain, rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise DivisibilityError(f"{self} is not divisible by {other}")
        return q

    def divides(self, other):
        """True iff self divides other (self nonzero)."""
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def __str__(self):
        return format_element(self)


def zero(domain):
    return DomainElement(domain, domain.ops.zero)


def one(domain):
    return DomainElement(domain, domain.ops.one)


def from_int(domain, n):
    """The image of the integer n under the unique ring map Z -> R."""
    return DomainElement(domain, domain.ops.from_int(n))


def t_element(domain):
    if domain.kind != "GFqt":
        raise ValueError("t only exists in GF(q)[t]")
    return DomainElement(domain, (0, 1))


def gcd(a, b):
    """Euclidean gcd, normalized (nonnegative over Z, monic over GF(q)[t])."""
    return DomainElement(a.domain, a.domain.ops.gcd(a.value, b.value))


# ---------------------------------------------------------------------------
# canonical enumeration
# ---------------------------------------------------------------------------


def enum_element(domain, index):
    """The fixed bijection N -> R: zig-zag over Z, base-q digits over GF(q)[t]."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    if domain.kind == "Z":
        if index % 2:
            return DomainElement(domain, (index + 1) // 2)
        return DomainElement(domain, -(index // 2))
    q = domain.q
    coeffs = []
    while index:
        coeffs.append(index % q)
        index //= q
    return DomainElement(domain, tuple(coeffs))


def enum_index(x):
    """Inverse of enum_element; also the canonical ordering key."""
    if x.domain.kind == "Z":
        n = x.value
        return 2 * n - 1 if n > 0 else -2 * n
    idx = 0
    for c in reversed(x.value):
        idx = idx * x.domain.q + c
    return idx


def enumeration_scheme_id(domain):
    return "zigzag" if domain.kind == "Z" else f"base-{domain.q}-digits"


def nonzero_prefix(domain, k):
    """The first k nonzero elements in enumeration order."""
    return [enum_element(domain, i) for i in range(1, k + 1)]  # index 0 is the only zero


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------


def frac_normalize(domain, num, den):
    """num/den on raw values as the reduced pair (num, den) in stored form:
    den > 0 over Z, monic over GF(q)[t], and gcd(num, den) = 1 (0 is 0/1)."""
    ops = domain.ops
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ops.zero, ops.one
    g = ops.gcd(num, den)
    if g != ops.one:
        num = ops.divmod(num, g)[0]
        den = ops.divmod(den, g)[0]
    unit = ops.unit(den)
    if unit != ops.one:
        num = ops.mul(num, unit)
        den = ops.mul(den, unit)
    return ops.freeze(num), ops.freeze(den)


# ---------------------------------------------------------------------------
# irreducibility and valuations
# ---------------------------------------------------------------------------


def is_irreducible(x):
    """True iff x is irreducible in its domain (prime in Z, irreducible poly).

    Over GF(q)[t] this is Rabin's test (SIAM J. Comput. 1980): f of degree
    n >= 1 is irreducible iff t^(q^n) = t mod f and, for each prime r | n,
    gcd(t^(q^(n/r)) - t, f) = 1.  The powers t^(q^k) mod f come from n
    Frobenius steps of log2(q) squarings each.
    """
    if x.domain.kind == "Z":
        return isprime(abs(x.value))
    n = x.degree()
    if n <= 0:
        return False
    ops, f = x.domain.ops, x.value
    t = ops.divmod((0, 1), f)[1]

    def mulmod(a, b):
        return ops.divmod(ops.mul(a, b), f)[1]

    frobenius = [t]  # frobenius[k] = t^(q^k) mod f
    for _ in range(n):
        frobenius.append(power(mulmod, ops.one, frobenius[-1], x.domain.q))
    primes = [r for r in range(2, n + 1) if n % r == 0 and isprime(r)]
    return frobenius[n] == t and all(
        ops.gcd(ops.add(frobenius[n // r], ops.neg(t)), f) == ops.one for r in primes
    )


class OrdResult(NamedTuple):
    value: int
    degenerate: bool


def ord_at(x, prime):
    """Multiplicity of `prime` in x; ord(0) is 0 with the degenerate flag set."""
    if not is_irreducible(prime):
        raise ValueError(f"{prime} is not irreducible")
    return OrdResult(_multiplicity(x, prime), x.is_zero())


def _multiplicity(x, prime):
    """The multiplicity of a prime already known to be irreducible in x (0 at x = 0)."""
    n = 0
    while x:
        x, r = x.divmod(prime)
        if r:
            break
        n += 1
    return n


# ---------------------------------------------------------------------------
# element text syntax
# ---------------------------------------------------------------------------


def parse_element(domain, text):
    """int() over Z; over GF(q)[t] a variable-free polynomial expression in t."""
    if domain.kind == "Z":
        try:
            return DomainElement(domain, int(text.strip()))
        except ValueError:
            raise ParseError(f"bad integer {text!r}", text, 0) from None
    from .polys import parse_poly

    poly, _ = parse_poly(domain, text, var_order=[])
    return DomainElement(domain, poly.terms.get((), domain.ops.zero))


def format_element(x):
    if x.domain.kind == "Z":
        return str(x.value)
    if x.is_zero():
        return "0"
    parts = []
    for d in range(len(x.value) - 1, -1, -1):
        c = x.value[d]
        if not c:
            continue
        if d == 0:
            parts.append(str(c))
        elif d == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{d}" if c == 1 else f"{c}*t^{d}")
    return "+".join(parts)
