import copy
import operator
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import frac, is_irreducible_by_trial_division
from partreg import rings
from partreg.rings import (
    INTEGERS,
    DivisibilityError,
    DomainTag,
    DomainElement,
    ParseError,
    enum_element,
    enum_index,
    frac_normalize,
    from_int,
    gcd,
    gf_poly_domain,
    isprime,
    one,
    ord_at,
    parse_domain,
    parse_element,
    t_element,
    zero,
)

GF2 = gf_poly_domain(2)
GF3 = gf_poly_domain(3)
GF4 = gf_poly_domain(4)
GF9 = gf_poly_domain(9)


def zint(n):
    return from_int(INTEGERS, n)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enum_examples():
    assert enum_element(INTEGERS, 0) == zint(0)
    assert enum_element(INTEGERS, 1) == zint(1)
    assert enum_element(INTEGERS, 2) == zint(-1)
    assert enum_element(INTEGERS, 3) == zint(2)
    # 5 = 101 in base 2 -> t^2 + 1
    assert enum_element(GF2, 5) == parse_element(GF2, "t^2+1")
    assert enum_element(GF2, 0) == zero(GF2)


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4])
def test_enum_injective_prefix(domain):
    seen = {enum_element(domain, i) for i in range(10_000)}
    assert len(seen) == 10_000


@given(st.integers(min_value=0, max_value=10**9))
def test_enum_index_roundtrip_z(i):
    assert enum_index(enum_element(INTEGERS, i)) == i


@given(st.integers(min_value=0, max_value=10**9))
def test_enum_index_roundtrip_gf3(i):
    assert enum_index(enum_element(GF3, i)) == i


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def test_arith_examples():
    assert zint(-3) * zint(7) == zint(-21)
    # characteristic-2 cancellation
    assert parse_element(GF2, "t+1") + t_element(GF2) == one(GF2)
    assert parse_element(GF3, "t+1") * parse_element(GF3, "t+2") == parse_element(GF3, "t^2+2")


def test_exact_div_errors():
    with pytest.raises(DivisibilityError):
        zint(7).exact_div(zint(2))
    with pytest.raises(DivisibilityError):
        zint(7).exact_div(zint(0))
    with pytest.raises(DivisibilityError):
        parse_element(GF2, "t^2+1").exact_div(parse_element(GF2, "t^2+t+1"))


def _sympy_gf_ref(q, op, a, b):
    # naive reference via sympy polynomials over GF(q), prime q only
    from sympy import GF, Poly, symbols

    u = symbols("u")

    def to_poly(x):
        return Poly(list(reversed(x.value)) or [0], u, domain=GF(q))

    pa, pb = to_poly(a), to_poly(b)
    res = pa + pb if op == "add" else pa * pb if op == "mul" else pa - pb
    coeffs = [int(c) % q for c in reversed(res.all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return DomainElement(a.domain, tuple(coeffs))


@pytest.mark.parametrize("domain,q", [(GF2, 2), (GF3, 3)])
def test_arith_against_reference(domain, q):
    rng = random.Random(7)
    for _ in range(1000):
        a = enum_element(domain, rng.randrange(200))
        b = enum_element(domain, rng.randrange(200))
        op = rng.choice(["add", "sub", "mul"])
        assert ARITH[op](a, b) == _sympy_gf_ref(q, op, a, b)


def test_arith_z_reference():
    rng = random.Random(11)
    for _ in range(1000):
        x, y = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
        assert (zint(x) + zint(y)).value == x + y
        assert (zint(x) * zint(y)).value == x * y


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_extension_field_structure(q):
    # GF(p^e) codes are base-p digit vectors of residues modulo the modulus;
    # sympy's galoistools works on dense lists, high degree first
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_rem

    F = gf_poly_domain(q).coeff_field
    p = F.p

    def dense(code):
        return list(reversed(enum_element(gf_poly_domain(p), code).value))

    def code(poly):
        value = 0
        for c in poly:
            value = value * p + int(c)
        return value

    modulus = list(reversed(F.modulus))
    assert modulus[0] == 1 and p ** (len(modulus) - 1) == q
    assert gf_irreducible_p(modulus, p, ZZ)
    # lex-least: every monic polynomial of the same degree before it is reducible
    assert not any(gf_irreducible_p(dense(index), p, ZZ) for index in range(q, code(modulus)))
    for a in range(q):
        for b in range(q):
            assert F.add(a, b) == code(gf_add(dense(a), dense(b), p, ZZ))
            assert F.mul(a, b) == code(gf_rem(gf_mul(dense(a), dense(b), p, ZZ), modulus, p, ZZ))
        if a:
            assert gf_rem(gf_mul(dense(a), dense(F.inv(a)), p, ZZ), modulus, p, ZZ) == [1]
            # a nonzero constant times its inverse is one in GF(q)[t]
            x = DomainElement(gf_poly_domain(q), (a,))
            assert x * DomainElement(x.domain, (F.inv(a),)) == one(x.domain)


def _size(x):
    # the Euclidean size: |x| over Z, the length of the coefficient tuple over GF(q)[t]
    return abs(x.value) if x.domain == INTEGERS else len(x.value)


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4, GF9])
def test_power_divmod_and_gcd(domain):
    rng = random.Random(17)
    for _ in range(150):
        a = enum_element(domain, rng.randrange(400))
        b = enum_element(domain, rng.randrange(1, 400))
        product = one(domain)
        for n in range(6):
            assert a**n == product
            product = product * a
        assert a**1 is a
        with pytest.raises(ValueError):
            a**-1
        q, r = a.divmod(b)
        assert q * b + r == a
        assert _size(r) < _size(b)
        g = gcd(a, b)
        assert g.divides(a) and g.divides(b)
        assert (g.value > 0) if domain == INTEGERS else (g.value[-1] == 1)
        assert gcd(a.exact_div(g), b.exact_div(g)).is_one()
    assert gcd(zero(domain), zero(domain)) == zero(domain)


def test_ops_table_stays_out_of_tag_identity():
    tag = DomainTag("GFqt", 4)
    assert gf_poly_domain(4) == tag
    assert hash(gf_poly_domain(4)) == hash(tag)
    assert repr(tag) == "DomainTag(kind='GFqt', q=4)"
    assert repr(INTEGERS) == "DomainTag(kind='Z', q=None)"
    assert (str(tag), str(INTEGERS)) == ("GF(4)[t]", "Z")
    assert gf_poly_domain(4).ops is tag.ops
    for twin in (pickle.loads(pickle.dumps(tag)), copy.deepcopy(tag)):
        assert twin == tag and twin.ops is tag.ops


@pytest.mark.parametrize("q", [2, 3, 5, 2**61 - 1, 4, 8, 9])
def test_kernels_match_per_coefficient_oracle(q):
    # rings runs GF(p)[t] on plain ints and adds GF(2^e) codes by XOR; the
    # oracle calls a digit-arithmetic field once per coefficient pair
    domain = gf_poly_domain(q)
    ops, field = domain.ops, domain.coeff_field
    F = oracles.DigitField(field.p, getattr(field, "modulus", (0, 1)))
    rng = random.Random(q)

    def draw():
        shape = rng.randrange(6)
        if shape < 3:  # zero, the constant one, another constant
            return [(), (1,), (rng.randrange(1, q),)][shape]
        return tuple(rng.randrange(q) for _ in range(rng.randrange(1, 8))) + (rng.randrange(1, q),)

    for _ in range(400):
        a, b = draw(), draw()
        results = [
            (ops.add(a, b), oracles.poly_add(F, a, b)),
            (ops.neg(a), oracles.poly_neg(F, a)),
            (ops.mul(a, b), oracles.poly_mul(F, a, b)),
            (ops.gcd(a, b), list(oracles.poly_gcd(F, a, b))),
        ]
        if b:  # a divisor longer than the dividend leaves it as the remainder
            quo, rem = ops.divmod(a, b)
            want_quo, want_rem = oracles.poly_divmod(F, a, b)
            results += [(quo, want_quo), (rem, want_rem)]
        for got, want in results:
            assert list(got) == want, (a, b)
            assert not got or got[-1] != 0  # trimmed


def test_large_extension_field_inverse():
    F = gf_poly_domain(2**16).coeff_field
    rng = random.Random(13)
    for _ in range(200):
        a = rng.randrange(1, 2**16)
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------


def test_frac_examples():
    assert frac_normalize(INTEGERS, 6, -4) == (-3, 2)
    g = frac_normalize(GF2, parse_element(GF2, "t^2+t").value, t_element(GF2).value)
    assert g == (parse_element(GF2, "t+1").value, one(GF2).value)
    assert frac_normalize(INTEGERS, 0, 5) == (0, 1)
    assert frac_normalize(GF3, [], [2, 1]) == ((), (1,))
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        frac_normalize(INTEGERS, 1, 0)
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        frac_normalize(GF3, (), ())


def test_frac_pairs_are_in_stored_form():
    # raw lists in, hashable tuples out, so pairs compare and hash like stored values
    n, d = frac_normalize(GF3, [0, 2], [1, 1, 2])  # 2t / (2t^2 + t + 1)
    assert (n, d) == ((0, 1), (2, 2, 1))  # monic denominator: both scaled by 2^-1 = 2
    assert hash((n, d)) == hash(((0, 1), (2, 2, 1)))


@pytest.mark.parametrize("domain", [INTEGERS, GF3, GF2, GF4, GF9])
def test_frac_idempotent_and_field_laws(domain):
    rng = random.Random(3)
    for _ in range(200):
        num = enum_element(domain, rng.randrange(1, 60))
        den = enum_element(domain, rng.randrange(1, 60))
        if den.is_zero():
            continue
        f = frac_normalize(domain, num.value, den.value)
        assert frac_normalize(domain, *f) == f
    for _ in range(200):
        a, b, c = (
            frac(
                domain,
                enum_element(domain, rng.randrange(60)),
                enum_element(domain, rng.randrange(1, 60)),
            )
            for _ in range(3)
        )
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)


def test_gf_fraction_monic_denominator():
    f = frac_normalize(GF3, parse_element(GF3, "t").value, parse_element(GF3, "2*t+1").value)
    assert f[1][-1] == 1


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------


def test_ord_examples():
    assert ord_at(zint(12), zint(2)) == (2, False)
    assert ord_at(parse_element(GF2, "t^3+t^2"), t_element(GF2)) == (2, False)
    res = ord_at(zint(0), zint(3))
    assert res.value == 0 and res.degenerate


def test_ord_requires_irreducible():
    with pytest.raises(ValueError):
        ord_at(zint(12), zint(4))
    with pytest.raises(ValueError):
        ord_at(parse_element(GF2, "t"), parse_element(GF2, "t^2+1"))  # (t+1)^2


@pytest.mark.parametrize(
    "domain,prime",
    [
        (INTEGERS, "3"),
        (GF2, "t"),
        (GF3, "t+1"),
    ],
)
def test_ord_is_additive_on_products(domain, prime):
    prime = parse_element(domain, prime)
    rng = random.Random(5)
    for _ in range(300):
        x = enum_element(domain, rng.randrange(1, 400))
        y = enum_element(domain, rng.randrange(1, 400))
        if x.is_zero() or y.is_zero():
            continue
        assert ord_at(x * y, prime).value == ord_at(x, prime).value + ord_at(y, prime).value


# ---------------------------------------------------------------------------
# primality and prime powers
# ---------------------------------------------------------------------------

PSI_13 = 3317044064679887385961981


def test_isprime_matches_sympy():
    from sympy import primerange

    primes = set(primerange(0, 10**5 + 1))
    assert [n for n in range(-5, 10**5 + 1) if isprime(n)] == sorted(primes)


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the first 9 prime bases
        318665857834031151167461,  # psi_12, strong pseudoprime to the first 12
    ],
)
def test_isprime_rejects_strong_pseudoprimes(n):
    from sympy import isprime as sympy_isprime

    assert not sympy_isprime(n)
    assert not isprime(n)


@pytest.mark.parametrize("n", [PSI_13, 2**127 - 1])
def test_isprime_refuses_past_its_bound(n):
    with pytest.raises(ValueError, match="prime too large to certify"):
        isprime(n)


def test_factor_prime_power_matches_factorint():
    from sympy import factorint

    for q in range(-3, 5000):
        factors = factorint(q) if q >= 2 else {}
        expected = next(iter(factors.items())) if len(factors) == 1 else None
        try:
            got = rings._factor_prime_power(q)
        except ValueError:
            got = None
        assert got == expected, q


@pytest.mark.parametrize("domain", [GF2, GF3, GF4])
def test_rabin_irreducibility_matches_trial_division(domain):
    q = domain.q
    for degree in range(7):
        for index in range(q**degree, 2 * q**degree):  # the monic polynomials of this degree
            f = enum_element(domain, index)
            assert rings.is_irreducible(f) == is_irreducible_by_trial_division(f), str(f)


def test_large_prime_field_parses_fast():
    start = time.perf_counter()
    domain = parse_domain("GF(2305843009213693951)[t]")  # 2^61 - 1
    assert time.perf_counter() - start < 0.5
    assert domain.coeff_field.p == 2**61 - 1
    assert rings._factor_prime_power(3**300) == (3, 300)  # integer roots, no float overflow
    with pytest.raises(ParseError, match="prime too large to certify"):
        parse_domain(f"GF({2**127 - 1})[t]")


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------


def test_parse_domain():
    assert parse_domain("Z") == INTEGERS
    assert parse_domain("GF(3)[t]") == GF3
    with pytest.raises(ParseError):
        parse_domain("GF(6)[t]")  # 6 is not a prime power
    with pytest.raises(ParseError):
        parse_domain("Q")


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4])
def test_element_text_roundtrip(domain):
    rng = random.Random(9)
    for _ in range(200):
        x = enum_element(domain, rng.randrange(500))
        assert parse_element(domain, rings.format_element(x)) == x


def test_parse_element_gf_expressions():
    assert parse_element(GF3, "2*t^2+t+1") == DomainElement(GF3, (1, 1, 2))
    assert parse_element(GF2, "-1") == one(GF2)
    assert parse_element(GF3, "(t+1)*(t+2)") == parse_element(GF3, "t^2+2")
    with pytest.raises(ParseError):
        parse_element(GF2, "x+1")
    with pytest.raises(ParseError):
        parse_element(INTEGERS, "abc")
