import random

import pytest

from partreg.colorings import ColoringSpec, color_of, parse_coloring_spec, refutation_scan
from partreg.polys import parse_poly
from partreg.rings import (
    INTEGERS,
    ParseError,
    from_int,
    gf_poly_domain,
    parse_element,
    t_element,
)
from partreg.windows import Window, check_window_l_pr

GF2 = gf_poly_domain(2)
GF3 = gf_poly_domain(3)


def pp(domain, text, var_order=None):
    poly, _ = parse_poly(domain, text, var_order=var_order)
    return poly


def zint(n):
    return from_int(INTEGERS, n)


BASE3 = ColoringSpec(family="DigitBaseP", p=3)


# ---------------------------------------------------------------------------
# spec construction and parsing
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ColoringSpec(family="DigitBaseP", p=4)  # not prime
    with pytest.raises(ValueError):
        ColoringSpec(family="OrdMod", irreducible=zint(4), modulus=2)  # reducible
    with pytest.raises(ValueError):
        ColoringSpec(family="OrdMod", irreducible=zint(2), modulus=0)
    with pytest.raises(ValueError):
        ColoringSpec(family="Rainbow")


def test_parse_roundtrip():
    for text in ["basep:3", "basep:3:msd", "basep:5:signed"]:
        assert str(parse_coloring_spec(INTEGERS, text)) == text
    spec = parse_coloring_spec(GF2, "ordmod:t:4")
    assert spec.family == "OrdMod" and spec.modulus == 4
    assert spec.irreducible == t_element(GF2)
    with pytest.raises(ParseError):
        parse_coloring_spec(INTEGERS, "basep:3:loud")
    with pytest.raises(ParseError):
        parse_coloring_spec(INTEGERS, "rainbow:7")


# ---------------------------------------------------------------------------
# color values
# ---------------------------------------------------------------------------


def test_base3_examples():
    # least significant nonzero ternary digit of |x|
    assert color_of(BASE3, zint(1)) == 1
    assert color_of(BASE3, zint(2)) == 2
    assert color_of(BASE3, zint(3)) == 1  # 3 = 10_3
    assert color_of(BASE3, zint(6)) == 2  # 6 = 20_3
    assert color_of(BASE3, zint(9)) == 1
    assert color_of(BASE3, zint(-2)) == 2  # unsigned convention uses |x|
    with pytest.raises(ValueError):
        color_of(BASE3, zint(0))


def test_signed_and_msd_flags():
    signed = ColoringSpec(family="DigitBaseP", p=3, signed=True)
    assert color_of(signed, zint(2)) == 2
    assert color_of(signed, zint(-2)) == 4  # offset by p - 1
    msd = ColoringSpec(family="DigitBaseP", p=3, msd=True)
    assert color_of(msd, zint(7)) == 2  # 7 = 21_3
    assert color_of(msd, zint(5)) == 1  # 5 = 12_3


def test_basep_scaling_periodicity():
    # the lsd color is invariant under multiplication by p
    rng = random.Random(71)
    for _ in range(300):
        x = rng.randrange(1, 10**6) * rng.choice([1, -1])
        assert color_of(BASE3, zint(3 * x)) == color_of(BASE3, zint(x))
        assert 1 <= color_of(BASE3, zint(x)) <= 2


def test_ordmod_examples():
    spec = ColoringSpec(family="OrdMod", irreducible=zint(2), modulus=2)
    assert color_of(spec, zint(8)) == 1  # ord_2(8) = 3
    assert color_of(spec, zint(12)) == 0  # ord_2(12) = 2
    assert color_of(spec, zint(5)) == 0
    gf = ColoringSpec(family="OrdMod", irreducible=t_element(GF2), modulus=2)
    assert color_of(gf, parse_element(GF2, "t^3")) == 1
    assert color_of(gf, parse_element(GF2, "t^2+t")) == 1  # ord_t = 1


def test_ordmod_multiplicative_shift():
    # multiplying by the irreducible advances the color cyclically
    spec = ColoringSpec(family="OrdMod", irreducible=zint(3), modulus=4)
    rng = random.Random(73)
    for _ in range(200):
        x = rng.randrange(1, 10**5)
        assert color_of(spec, zint(3 * x)) == (color_of(spec, zint(x)) + 1) % 4


# ---------------------------------------------------------------------------
# refutation scans
# ---------------------------------------------------------------------------


def test_x_minus_2y_clean_under_base3():
    p = pp(INTEGERS, "x - 2*y", var_order=["x", "y"])
    assert refutation_scan(p, BASE3, Window.interval(INTEGERS, 1, 200)) is None


def test_schur_scan_finds_least_root():
    p = pp(INTEGERS, "x + y - z", var_order=["x", "y", "z"])
    window = Window.interval(INTEGERS, 1, 10)
    found = refutation_scan(p, BASE3, window)
    assert found is not None
    assert tuple(window.elements[i].value for i in found) == (1, 3, 4)


def test_gf2_ordmod_scan():
    p = pp(GF2, "x + y - z", var_order=["x", "y", "z"])
    spec = ColoringSpec(family="OrdMod", irreducible=t_element(GF2), modulus=2)
    window = Window.enumeration_prefix(GF2, 7)
    found = refutation_scan(p, spec, window)
    assert found is not None
    values = [str(window.elements[i].value) for i in found]
    assert values == [str(parse_element(GF2, s).value) for s in ["1", "t^2", "t^2+1"]]


def test_scan_result_is_monochromatic_root():
    from partreg.polys import eval_ring

    rng = random.Random(75)
    p = pp(INTEGERS, "x + y - 2*z", var_order=["x", "y", "z"])
    for hi in (9, 27, 50):
        window = Window.interval(INTEGERS, 1, hi)
        found = refutation_scan(p, BASE3, window, injective=True)
        if found is None:
            continue
        values = tuple(window.elements[i] for i in found)
        assert eval_ring(p, values).is_zero()
        assert len({color_of(BASE3, x) for x in values}) == 1


def test_clean_scan_implies_window_colorable():
    # a clean scan exhibits a concrete good coloring, so the generic
    # coloring search on the same window cannot certify with that palette
    p = pp(INTEGERS, "x - 2*y", var_order=["x", "y"])
    window = Window.interval(INTEGERS, 1, 30)
    assert refutation_scan(p, BASE3, window) is None
    cert = check_window_l_pr(p, window, 2)  # basep:3 has the two colors 1 and 2
    assert cert.kind == "PartitionColorable"
