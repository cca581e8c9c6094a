import random

import pytest

from oracles import eval_field, field_from_ring, frac
from partreg import reductions
from partreg.polys import (
    MultiPoly,
    is_homogeneous,
    is_translation_invariant,
    parse_poly,
)
from partreg.reductions import (
    TRANSFORM_IDS,
    apply_transform,
    diffquotient4_homogenize,
    htp_shift,
    quotient3_homogenize,
    ratio_gate,
)
from partreg.rings import (
    INTEGERS,
    enum_element,
    from_int,
    gf_poly_domain,
    nonzero_prefix,
)

GF3 = gf_poly_domain(3)


def pp(domain, text, var_order=None):
    poly, _ = parse_poly(domain, text, var_order=var_order)
    return poly


def random_poly(domain, nvars, rng, max_terms=3, max_deg=3, coeff_pool=12):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        coeff = enum_element(domain, rng.randrange(1, coeff_pool)).value
        if coeff:
            terms[exps] = coeff
    if not terms:
        terms[(1,) + (0,) * (nvars - 1)] = enum_element(domain, 1).value
    return MultiPoly(domain, nvars, terms)


def random_nonzero_fraction(domain, rng):
    pool = nonzero_prefix(domain, 20)
    return frac(domain, rng.choice(pool), rng.choice(pool))


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def test_shift_example():
    p = pp(INTEGERS, "x - 5", var_order=["x"])
    assert htp_shift(p) == pp(INTEGERS, "y + z - 5", var_order=["y", "z"])


def test_shift_identity_everywhere():
    rng = random.Random(81)
    for domain in (INTEGERS, GF3):
        for _ in range(40):
            n = rng.randrange(1, 3)
            p = random_poly(domain, n, rng)
            shifted = htp_shift(p)
            assert shifted.nvars == 2 * n
            for _ in range(10):
                ys = [random_nonzero_fraction(domain, rng) for _ in range(n)]
                zs = [random_nonzero_fraction(domain, rng) for _ in range(n)]
                assert eval_field(shifted, ys + zs) == eval_field(
                    p, [y + z for y, z in zip(ys, zs)]
                )


# ---------------------------------------------------------------------------
# quotient substitutions
# ---------------------------------------------------------------------------


def test_q3_example():
    p = pp(INTEGERS, "x^2 - 2", var_order=["x"])
    expected = pp(INTEGERS, "(z1 - z2)^2 - 2*z3^2", var_order=["z1", "z2", "z3"])
    assert quotient3_homogenize(p) == expected


def test_dq4_examples():
    p = pp(INTEGERS, "x^2 - 2", var_order=["x"])
    expected = pp(
        INTEGERS, "(z1 - z2)^2 - 2*(z3 - z4)^2", var_order=["z1", "z2", "z3", "z4"]
    )
    assert diffquotient4_homogenize(p) == expected
    linear = pp(INTEGERS, "x", var_order=["x"])
    out = diffquotient4_homogenize(linear)
    assert out == pp(INTEGERS, "z1 - z2", var_order=["z1", "z2", "z3", "z4"])


@pytest.mark.parametrize("domain", [INTEGERS, GF3])
def test_q3_structure_and_identity(domain):
    rng = random.Random(83)
    for _ in range(30):
        k = rng.randrange(1, 3)
        p = random_poly(domain, k, rng)
        out = quotient3_homogenize(p)
        assert out.nvars == 3 * k
        assert is_homogeneous(out) == k * p.degree()
        degree = p.degree()
        for _ in range(10):
            zs = [random_nonzero_fraction(domain, rng) for _ in range(3 * k)]
            quotients, clearing = [], field_from_ring(from_int(domain, 1))
            for i in range(k):
                za, zb, zc = zs[3 * i : 3 * i + 3]
                quotients.append((za - zb) / zc)
                clearing = clearing * zc**degree
            assert eval_field(out, zs) == eval_field(p, quotients) * clearing


@pytest.mark.parametrize("domain", [INTEGERS, GF3])
def test_dq4_structure_and_identity(domain):
    rng = random.Random(85)
    for _ in range(30):
        k = rng.randrange(1, 3)
        p = random_poly(domain, k, rng)
        out = diffquotient4_homogenize(p)
        assert out.nvars == 4 * k
        assert is_homogeneous(out) == k * p.degree()
        assert is_translation_invariant(out)
        degree = p.degree()
        for _ in range(10):
            zs = [random_nonzero_fraction(domain, rng) for _ in range(4 * k)]
            quotients, clearing = [], field_from_ring(from_int(domain, 1))
            ok = True
            for i in range(k):
                za, zb, zc, zd = zs[4 * i : 4 * i + 4]
                diff = zc - zd
                if diff.is_zero():
                    ok = False
                    break
                quotients.append((za - zb) / diff)
                clearing = clearing * diff**degree
            if not ok:
                continue
            assert eval_field(out, zs) == eval_field(p, quotients) * clearing


# ---------------------------------------------------------------------------
# ratio gates
# ---------------------------------------------------------------------------


def test_gate_examples():
    mul = ratio_gate(pp(INTEGERS, "x^2 + x", var_order=["x"]), "multiplicative", 0)
    assert mul == pp(INTEGERS, "y1^2 + y1*y2", var_order=["y1", "y2"])
    add = ratio_gate(pp(INTEGERS, "x - 3", var_order=["x"]), "additive", 0)
    assert add == pp(INTEGERS, "y1 - y2 - 3", var_order=["y1", "y2"])


def test_gate_keeps_variable_positions():
    p = pp(INTEGERS, "x + 2*y", var_order=["x", "y"])
    gated = ratio_gate(p, "additive", 1)
    # y became y1 in place; the new variable is appended last
    assert gated == pp(INTEGERS, "x + 2*y - 2*w", var_order=["x", "y", "w"])


@pytest.mark.parametrize("domain", [INTEGERS, GF3])
@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
def test_gate_identity(domain, mode):
    rng = random.Random(89)
    for _ in range(30):
        n = rng.randrange(1, 3)
        p = random_poly(domain, n, rng)
        var_index = rng.randrange(n)
        out = ratio_gate(p, mode, var_index)
        assert out.nvars == n + 1
        degree = p.degree()
        for _ in range(10):
            point = [random_nonzero_fraction(domain, rng) for _ in range(n + 1)]
            inner = list(point[:-1])
            if mode == "multiplicative":
                inner[var_index] = point[var_index] / point[-1]
                expected = eval_field(p, inner) * point[-1] ** degree
            else:
                inner[var_index] = point[var_index] - point[-1]
                expected = eval_field(p, inner)
            assert eval_field(out, point) == expected


def test_gate_validation():
    p = pp(INTEGERS, "x", var_order=["x"])
    with pytest.raises(ValueError):
        ratio_gate(p, "multiplicative", 1)
    with pytest.raises(ValueError):
        ratio_gate(p, "divided", 0)


# ---------------------------------------------------------------------------
# verified application
# ---------------------------------------------------------------------------


def test_apply_transform_reports():
    p = pp(INTEGERS, "x^2 - 2", var_order=["x"])
    for transform in TRANSFORM_IDS:
        report = apply_transform(p, transform)
        assert "identity-checked" in report.verified
        if transform == "q3":
            assert "homogeneous" in report.verified
        if transform == "dq4":
            assert {"homogeneous", "translation-invariant"} <= set(report.verified)


@pytest.mark.parametrize("transform", TRANSFORM_IDS)
def test_identity_check_rejects_perturbed_output(transform, monkeypatch):
    # every transform's output comes from one MultiPoly.compose; perturb it
    honest = MultiPoly.compose

    def perturbed(self, blocks):
        out = honest(self, blocks)
        return out + MultiPoly.variable(out.domain, out.nvars, out.nvars - 1)

    for domain in (INTEGERS, GF3):
        p = pp(domain, "x^2*y + 2*y - 1", var_order=["x", "y"])
        assert "identity-checked" in apply_transform(p, transform, var_index=1).verified
        monkeypatch.setattr(MultiPoly, "compose", perturbed)
        assert "identity-checked" not in apply_transform(p, transform, var_index=1).verified
        monkeypatch.setattr(MultiPoly, "compose", honest)


def test_identity_check_needs_a_checked_point():
    # a zero block denominator vanishes at every sample, so nothing is checked
    p = pp(INTEGERS, "x", var_order=["x"])
    x = MultiPoly.variable(INTEGERS, 1, 0)
    rng = random.Random(0)
    assert reductions._identity_sampled(p, p, [(x, None)], rng)
    assert not reductions._identity_sampled(p, p, [(x, MultiPoly.zero(INTEGERS, 1))], rng)


def test_apply_transform_unknown():
    with pytest.raises(ValueError):
        apply_transform(pp(INTEGERS, "x", var_order=["x"]), "fold")
