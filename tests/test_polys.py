import random

import pytest

from oracles import eval_field, eval_field_stepwise, field_from_ring, frac
from partreg.polys import (
    MultiPoly,
    combine_system,
    eval_ring,
    is_homogeneous,
    is_translation_invariant,
    parse_poly,
    poly_from_records,
    poly_to_records,
    poly_to_string,
    rootless_quadratic,
)
from partreg.rings import (
    INTEGERS,
    DomainElement,
    enum_element,
    from_int,
    gf_poly_domain,
    parse_element,
    zero,
)

GF2 = gf_poly_domain(2)
GF3 = gf_poly_domain(3)
GF4 = gf_poly_domain(4)
GF9 = gf_poly_domain(9)


def pp(domain, text, var_order=None):
    poly, _names = parse_poly(domain, text, var_order=var_order)
    return poly


def zint(n):
    return from_int(INTEGERS, n)


def random_poly(domain, nvars, rng, max_terms=4, max_deg=3, coeff_pool=24):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        coeff = enum_element(domain, rng.randrange(1, coeff_pool)).value
        if coeff:
            terms[exps] = coeff
    return MultiPoly(domain, nvars, terms)


# ---------------------------------------------------------------------------
# parsing, arithmetic, evaluation
# ---------------------------------------------------------------------------


def test_parse_examples():
    p = pp(INTEGERS, "x^2 - 2*y*z + 5")
    assert p.nvars == 3
    assert p.terms[(2, 0, 0)] == 1
    assert p.terms[(0, 1, 1)] == -2
    assert p.terms[(0, 0, 0)] == 5
    q = pp(GF2, "x^2 + t*x + 1")
    assert q.nvars == 1
    assert q.terms[(1,)] == parse_element(GF2, "t").value


def test_parse_juxtaposition_and_var_order():
    assert pp(INTEGERS, "2x*y") == pp(INTEGERS, "2*x*y")
    # a multi-letter identifier is one variable, not a product
    p, names = parse_poly(INTEGERS, "2xy")
    assert names == ["xy"] and p.nvars == 1
    q = pp(INTEGERS, "y + x", var_order=["x", "y"])
    assert q.terms[(1, 0)] == 1 and q.terms[(0, 1)] == 1


def test_parse_t_is_a_constant_over_gf():
    p = pp(GF3, "t*x + t^2")
    assert p.nvars == 1
    assert p.terms[(0,)] == parse_element(GF3, "t^2").value
    # over Z, t is just another variable name
    q, names = parse_poly(INTEGERS, "t*x")
    assert names == ["t", "x"] and q.nvars == 2


def test_string_roundtrip():
    rng = random.Random(2)
    # coeff_pool 24 > q, so coefficients with several base-q digits occur
    for domain in (INTEGERS, GF2, GF3, GF4, GF9):
        for _ in range(100):
            p = random_poly(domain, 3, rng)
            assert pp(domain, poly_to_string(p), var_order=["x1", "x2", "x3"]) == p


def test_records_roundtrip():
    rng = random.Random(4)
    for domain in (INTEGERS, GF2, GF4, GF9):
        for _ in range(50):
            p = random_poly(domain, 2, rng)
            assert poly_from_records(domain, poly_to_records(p)) == p


def test_parse_poly_builds_one_multipoly(monkeypatch):
    built = []
    original = MultiPoly.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(MultiPoly, "__post_init__", counted)
    cases = [(INTEGERS, "(x1 - 2*x2 + x3)^2 - 3*x1*(x2 + 5)"), (GF9, "t*x^3 - (y + 4t)^2")]
    for domain, text in cases:
        built.clear()
        parse_poly(domain, text)
        assert len(built) == 1


def test_eval_examples():
    p = pp(INTEGERS, "x + y - 2*z")  # 3-term progressions
    assert eval_ring(p, (zint(1), zint(5), zint(3))).is_zero()
    assert eval_ring(p, (zint(1), zint(5), zint(4))) == zint(-2)
    q = pp(GF2, "x + y", var_order=["x", "y"])
    a = parse_element(GF2, "t+1")
    assert eval_ring(q, (a, a)).is_zero()


def test_eval_is_a_ring_homomorphism():
    rng = random.Random(6)
    for domain in (INTEGERS, GF3):
        for _ in range(80):
            p = random_poly(domain, 2, rng)
            q = random_poly(domain, 2, rng)
            point = tuple(enum_element(domain, rng.randrange(30)) for _ in range(2))
            assert eval_ring(p + q, point) == eval_ring(p, point) + eval_ring(q, point)
            assert eval_ring(p * q, point) == eval_ring(p, point) * eval_ring(q, point)


def test_eval_field_matches_eval_ring_on_ring_points():
    rng = random.Random(8)
    for domain in (INTEGERS, GF2):
        for _ in range(60):
            p = random_poly(domain, 2, rng)
            point = tuple(enum_element(domain, rng.randrange(30)) for _ in range(2))
            field_point = tuple(field_from_ring(x) for x in point)
            assert eval_field(p, field_point) == field_from_ring(eval_ring(p, point))


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4])
def test_eval_field_matches_stepwise_oracle(domain):
    rng = random.Random(9)
    nonzero = [enum_element(domain, i) for i in range(1, 12)]
    for _ in range(80):
        nvars = rng.randrange(1, 4)
        p = random_poly(domain, nvars, rng, max_terms=5, max_deg=3)
        numerators = [zero(domain)] + [rng.choice(nonzero) for _ in range(nvars - 1)]
        rng.shuffle(numerators)  # a point with a zero coordinate
        point = [frac(domain, n, rng.choice(nonzero)) for n in numerators]
        assert eval_field(p, point) == eval_field_stepwise(p, point)
        point = [frac(domain, rng.choice(nonzero), rng.choice(nonzero)) for _ in point]
        assert eval_field(p, point) == eval_field_stepwise(p, point)


def test_compose_against_direct_expansion():
    # p(x, y) = x^2 + y composed with x -> u + v, y -> u*v
    p = pp(INTEGERS, "x^2 + y", var_order=["x", "y"])
    u_plus_v = pp(INTEGERS, "u + v", var_order=["u", "v"])
    uv = pp(INTEGERS, "u*v", var_order=["u", "v"])
    composed = p.compose([(u_plus_v, None), (uv, None)])
    assert composed == pp(INTEGERS, "u^2 + 2*u*v + v^2 + u*v", var_order=["u", "v"])


def test_compose_clears_denominators_and_checks_its_blocks():
    p = pp(INTEGERS, "x^2 + y", var_order=["x", "y"])
    u, v = (pp(INTEGERS, name, var_order=["u", "v"]) for name in ("u", "v"))
    # (u/v)^2 + u cleared by v^2, the one denominator to the degree of p
    assert p.compose([(u, v), (u, None)]) == pp(INTEGERS, "u^2 + u*v^2", var_order=["u", "v"])
    with pytest.raises(ValueError, match="substitution arity mismatch"):
        p.compose([(u, None)])
    with pytest.raises(ValueError, match="substitution arity mismatch"):
        p.compose([(u, None)] * 3)
    w = MultiPoly.variable(INTEGERS, 3, 0)
    u_gf3 = MultiPoly.variable(GF3, 2, 0)
    for blocks in (
        [(u, None), (w, None)],  # a numerator of another arity
        [(u, None), (u_gf3, None)],  # a numerator of another domain
        [(u, w), (u, None)],  # a denominator of another arity
        [(u, None), (u, u_gf3)],  # a denominator of another domain
    ):
        with pytest.raises(ValueError, match="mixed-arity or mixed-domain"):
            p.compose(blocks)
    five = MultiPoly.constant(INTEGERS, 0, 5)
    assert five.compose([]) == five


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------


def test_is_homogeneous_examples():
    assert is_homogeneous(pp(INTEGERS, "x + y - 2*z")) == 1
    assert is_homogeneous(pp(INTEGERS, "x^2 - y*z")) == 2
    assert is_homogeneous(pp(INTEGERS, "x^2 - y")) is None
    assert is_homogeneous(MultiPoly.zero(INTEGERS, 2)) == 0


def test_homogeneous_iff_scaling_law():
    # syntactic verdict agrees with p(c*x) == c^d * p(x) over Z, where
    # scaling at 2 distinct |c| > 1 separates degrees
    rng = random.Random(10)
    for _ in range(200):
        p = random_poly(INTEGERS, 3, rng)
        d = is_homogeneous(p)
        scaling_holds = True
        for c in (zint(2), zint(-3)):
            for trial in range(5):
                point = tuple(zint(rng.randrange(-6, 7)) for _ in range(3))
                scaled = tuple(c * x for x in point)
                deg = d if d is not None else p.degree()
                if eval_ring(p, scaled) != c**deg * eval_ring(p, point):
                    scaling_holds = False
        assert (d is not None) == scaling_holds


def test_is_translation_invariant_examples():
    assert is_translation_invariant(pp(INTEGERS, "x + y - 2*z"))
    assert is_translation_invariant(pp(INTEGERS, "(x-y)^2 - (z-w)^2"))
    assert not is_translation_invariant(pp(INTEGERS, "x + y - z"))
    assert not is_translation_invariant(pp(INTEGERS, "x^2 - y^2"))


def test_translation_invariance_matches_sampled_shifts():
    rng = random.Random(12)
    for domain in (INTEGERS, GF3):
        for _ in range(100):
            p = random_poly(domain, 2, rng)
            verdict = is_translation_invariant(p)
            sampled = True
            for _ in range(8):
                point = tuple(enum_element(domain, rng.randrange(20)) for _ in range(2))
                r = enum_element(domain, rng.randrange(1, 20))
                shifted = tuple(x + r for x in point)
                if eval_ring(p, shifted) != eval_ring(p, point):
                    sampled = False
                    break
            # the symbolic verdict must imply every sampled shift agrees
            if verdict:
                assert sampled
            # and sampled disagreement must imply a negative verdict
            if not sampled:
                assert not verdict


def shifted_by_expansion(p):
    """Oracle: expand p(x1+r, ..., xn+r) in n+1 variables and compare with p."""
    n = p.nvars
    r = MultiPoly.variable(p.domain, n + 1, n)
    shifted = [MultiPoly.variable(p.domain, n + 1, i) + r for i in range(n)]
    unshifted = MultiPoly(p.domain, n + 1, {e + (0,): c for e, c in p.terms.items()})
    return p.compose([(s, None) for s in shifted]) == unshifted


@pytest.mark.parametrize(
    "domain,text,invariant",
    [
        # D^(1) alone would wrongly accept x^2 and x^4 over GF(2)[t], x^3 over GF(3)[t]
        (GF2, "x^2", False),
        (GF2, "x^2 + y^2", True),
        (GF2, "x^4 + y^4", True),
        (GF2, "x^4", False),  # D^(1) and D^(2) vanish; only D^(4) does not
        (GF3, "x^3 - y^3", True),
        (GF3, "x^3", False),
        (GF2, "(x + y)^2 + x*y", False),
        (INTEGERS, "x^2", False),
        (INTEGERS, "(x - y)^3 + 5", True),
    ],
)
def test_translation_invariance_in_characteristic_p(domain, text, invariant):
    p = pp(domain, text)
    assert is_translation_invariant(p) == invariant
    assert shifted_by_expansion(p) == invariant


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4])
def test_translation_invariance_matches_expansion_oracle(domain):
    from partreg.reductions import diffquotient4_homogenize

    rng = random.Random(16)
    for _ in range(60):
        p = random_poly(domain, rng.randrange(1, 4), rng, max_deg=4)
        assert is_translation_invariant(p) == shifted_by_expansion(p)
    for _ in range(6):
        # dq4 outputs are invariant; changing one nonconstant coefficient breaks it
        out = diffquotient4_homogenize(random_poly(domain, rng.randrange(1, 3), rng, max_deg=2))
        assert is_translation_invariant(out) and shifted_by_expansion(out)
        exps = rng.choice(sorted(out.terms)) if rng.random() < 0.5 else None
        while not exps or not any(exps):
            exps = tuple(rng.randrange(3) for _ in range(out.nvars))
        bump = MultiPoly(domain, out.nvars, {exps: enum_element(domain, rng.randrange(1, 9)).value})
        perturbed = out + bump
        assert not is_translation_invariant(perturbed)
        assert not shifted_by_expansion(perturbed)


def element_fold(p, point):
    """eval_ring's value, folded on DomainElements by repeated multiplication."""
    total = from_int(p.domain, 0)
    for exps, coeff in p.terms.items():
        term = DomainElement(p.domain, coeff)
        for x, e in zip(point, exps):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4])
def test_eval_ring_matches_element_fold(domain):
    rng = random.Random(18)
    for _ in range(80):
        nvars = rng.randrange(1, 4)
        p = random_poly(domain, nvars, rng, max_terms=6, max_deg=4, coeff_pool=200)
        point = tuple(enum_element(domain, rng.randrange(300)) for _ in range(nvars))
        assert eval_ring(p, point) == element_fold(p, point)
    assert eval_ring(MultiPoly.zero(domain, 2), (from_int(domain, 1),) * 2).is_zero()


def test_eval_ring_rejects_a_point_from_another_domain():
    with pytest.raises(TypeError):
        eval_ring(pp(GF2, "x + y"), (from_int(GF2, 1), from_int(GF3, 1)))
    with pytest.raises(TypeError):
        eval_ring(pp(INTEGERS, "x"), (from_int(GF3, 1),))


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3, GF4])
def test_substitute_first_agrees_with_eval_ring(domain):
    rng = random.Random(19)
    for _ in range(60):
        nvars = rng.randrange(2, 4)
        p = random_poly(domain, nvars, rng, max_terms=6, coeff_pool=50)
        point = tuple(enum_element(domain, rng.randrange(40)) for _ in range(nvars))
        q = p.substitute_first(point[0])
        assert q.nvars == nvars - 1
        assert all(q.terms.values())
        assert eval_ring(q, point[1:]) == eval_ring(p, point)


def test_substitute_first_drops_cancelled_terms():
    q = pp(INTEGERS, "x*y + y - 3").substitute_first(zint(-1))
    assert q == MultiPoly.constant(INTEGERS, 1, -3)
    assert pp(GF2, "x*y + y").substitute_first(from_int(GF2, 1)).is_zero()
    with pytest.raises(TypeError):
        pp(GF2, "x*y").substitute_first(from_int(GF3, 1))


# ---------------------------------------------------------------------------
# rootless quadratics and system combination
# ---------------------------------------------------------------------------


def test_rootless_quadratic_z():
    a0, a1 = rootless_quadratic(INTEGERS)
    assert (a0, a1) == (zint(1), zint(0))  # w^2 + 1


@pytest.mark.parametrize(
    "domain,max_deg", [(GF2, 4), (GF3, 2), (GF4, 1)]
)
def test_rootless_quadratic_has_no_small_rational_root(domain, max_deg):
    # brute force w = num/den over all numerators and denominators up to max_deg
    a0, a1 = rootless_quadratic(domain)
    f0, f1 = field_from_ring(a0), field_from_ring(a1)
    count = domain.q ** (max_deg + 1)  # indices covering all elements of degree <= max_deg
    for i in range(count):
        num = enum_element(domain, i)
        for j in range(1, count):
            den = enum_element(domain, j)
            w = frac(domain, num, den)
            assert not (w * w + f1 * w + f0).is_zero()


@pytest.mark.parametrize("domain", [INTEGERS, GF2, GF3])
def test_combine_system_root_iff(domain):
    rng = random.Random(14)
    for _ in range(60):
        ps = [random_poly(domain, 2, rng, max_terms=3, max_deg=2) for _ in range(2)]
        combined = combine_system(ps)
        for _ in range(30):
            point = tuple(enum_element(domain, rng.randrange(12)) for _ in range(2))
            common = all(eval_ring(p, point).is_zero() for p in ps)
            assert combined.is_zero() or eval_ring(combined, point).is_zero() == common
            if combined.is_zero():
                assert common


def test_combine_system_example():
    # {x - y, x + y - z} over Z combines to (x-y)^2 + (x+y-z)^2
    order = ["x", "y", "z"]
    ps = [
        pp(INTEGERS, "x - y", var_order=order),
        pp(INTEGERS, "x + y - z", var_order=order),
    ]
    assert combine_system(ps) == pp(INTEGERS, "(x-y)^2 + (x+y-z)^2", var_order=order)


def test_combine_system_rejects_mixed_arity():
    with pytest.raises(ValueError):
        combine_system(
            [
                pp(INTEGERS, "x + y", var_order=["x", "y"]),
                pp(INTEGERS, "x", var_order=["x"]),
            ]
        )
