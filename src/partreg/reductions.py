"""Computable polynomial transformations with machine-checked structure.

Each transform rewrites root-existence questions:

* htp_shift:  p(x1..xn) -> p(y1+z1, ..., yn+zn); roots over the ring
  correspond to roots with all coordinates nonzero.
* quotient3_homogenize:  substitute (z1-z2)/z3 per variable and clear
  denominators with (prod z_{3i})^deg; output is homogeneous.
* diffquotient4_homogenize:  substitute (z1-z2)/(z3-z4) per variable and
  clear with (prod (z_{4i-1}-z_{4i}))^deg; output is homogeneous and
  translation invariant (differences only).
* ratio_gate:  replace one chosen variable by y1/y2 (clearing with
  y2^deg) or by y1-y2; the fresh variable is appended last.  The additive
  gate deliberately has no clearing factor, mirroring the asymmetry of the
  source construction.

The clearing exponent is always the full total degree, even when a smaller
power would clear; fidelity to the construction beats minimality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .polys import MultiPoly, eval_field, is_homogeneous, is_translation_invariant
from .rings import field_from_ring, nonzero_prefix, one

TRANSFORM_IDS = ("shift", "q3", "dq4", "gate:mul", "gate:add")


@dataclass
class ReductionReport:
    input: MultiPoly
    output: MultiPoly
    transform_id: str
    verified: tuple  # subset of ("homogeneous", "translation-invariant", "identity-checked")


def htp_shift(p):
    """p'(y1..yn, z1..zn) = p(y1+z1, ..., yn+zn); arity doubles."""
    n, domain = p.nvars, p.domain
    variables = [MultiPoly.variable(domain, 2 * n, i) for i in range(2 * n)]
    return p.compose([variables[i] + variables[n + i] for i in range(n)])


def _block_difference(domain, nvars, i, j):
    return MultiPoly.variable(domain, nvars, i) - MultiPoly.variable(domain, nvars, j)


def _substitute_and_clear(p, blocks, nvars):
    """Clear p(n_1/d_1, ..., n_k/d_k) with (prod d_i)^deg(p).

    blocks[i] is the (numerator, denominator) pair of polynomials in nvars
    variables that replaces variable i; a None denominator substitutes the
    numerator alone and clears nothing.  Each block power is built once.
    """
    degree = p.degree()
    domain = p.domain
    out = MultiPoly.zero(domain, nvars)
    factors = {}
    for exps, coeff in p.terms.items():
        term = MultiPoly.constant(domain, nvars, coeff)
        for i, e in enumerate(exps):
            key = (i, e)
            if key not in factors:
                numerator, denominator = blocks[i]
                factors[key] = numerator**e
                if denominator is not None:
                    factors[key] = factors[key] * denominator ** (degree - e)
            term = term * factors[key]
        out = out + term
    return out


def quotient3_homogenize(p, var_indices=None):
    """Clear p((z1-z2)/z3, ...) with (prod z_{3i})^deg(p).

    var_indices restricts the substitution to a subset of variables (used to
    build gated shapes); untouched variables keep a single slot.  With the
    default all-variables call the output has 3k variables and is
    homogeneous of degree k*deg(p).
    """
    k = p.nvars
    if var_indices is None:
        var_indices = list(range(k))
    var_indices = set(var_indices)
    # layout: transformed variable -> 3 consecutive slots, others -> 1 slot
    total = sum(3 if i in var_indices else 1 for i in range(k))
    blocks = []
    start = 0
    for i in range(k):
        if i in var_indices:
            numerator = _block_difference(p.domain, total, start, start + 1)
            blocks.append((numerator, MultiPoly.variable(p.domain, total, start + 2)))
            start += 3
        else:
            blocks.append((MultiPoly.variable(p.domain, total, start), None))
            start += 1
    return _substitute_and_clear(p, blocks, total)


def diffquotient4_homogenize(p):
    """Clear p((z1-z2)/(z3-z4), ...) with (prod (z_{4i-1}-z_{4i}))^deg(p)."""
    total = 4 * p.nvars
    blocks = [
        (
            _block_difference(p.domain, total, 4 * i, 4 * i + 1),
            _block_difference(p.domain, total, 4 * i + 2, 4 * i + 3),
        )
        for i in range(p.nvars)
    ]
    return _substitute_and_clear(p, blocks, total)


def ratio_gate(p, mode, var_index):
    """Gate one variable: y1/y2 with clearing (multiplicative) or y1-y2.

    The gated variable keeps its position (it becomes y1); y2 is appended as
    the new last variable.
    """
    if not 0 <= var_index < p.nvars:
        raise ValueError("gated variable index out of range")
    if mode not in ("multiplicative", "additive"):
        raise ValueError("mode must be 'multiplicative' or 'additive'")
    n = p.nvars
    domain = p.domain
    total = n + 1
    if mode == "additive":
        subs = []
        for i in range(n):
            if i == var_index:
                subs.append(_block_difference(domain, total, i, n))
            else:
                subs.append(MultiPoly.variable(domain, total, i))
        return p.compose(subs)
    degree = p.degree()
    out = MultiPoly.zero(domain, total)
    for exps, coeff in p.terms.items():
        new_exps = exps + (degree - exps[var_index],)
        out = out + MultiPoly(domain, total, {new_exps: coeff})
    return out


# ---------------------------------------------------------------------------
# verified application
# ---------------------------------------------------------------------------


def _random_field_point(domain, count, rng):
    pool = nonzero_prefix(domain, 40)
    point = []
    for _ in range(count):
        point.append(field_from_ring(rng.choice(pool)))
    return point


def _identity_quotient(p, out, width, rng, samples=25):
    """Sampled check that out(z) = p(quotients) * clearing for q3 or dq4.

    Each variable owns a block of width 3 ((z1-z2)/z3) or 4 ((z1-z2)/(z3-z4))
    coordinates of the sample point.
    """
    degree = p.degree()
    for _ in range(samples):
        z = _random_field_point(p.domain, width * p.nvars, rng)
        quotients = []
        clearing = field_from_ring(one(p.domain))
        for i in range(p.nvars):
            block = z[width * i : width * (i + 1)]
            denominator = block[2] - block[3] if width == 4 else block[2]
            if denominator.is_zero():
                break
            quotients.append((block[0] - block[1]) / denominator)
            clearing = clearing * denominator**degree
        else:
            if eval_field(out, z) != eval_field(p, quotients) * clearing:
                return False
    return True


def _identity_gate(p, out, mode, var_index, rng, samples=25):
    degree = p.degree()
    domain = p.domain
    for _ in range(samples):
        point = _random_field_point(domain, p.nvars + 1, rng)
        y1, y2 = point[var_index], point[-1]
        inner = list(point[:-1])
        if mode == "multiplicative":
            inner[var_index] = y1 / y2
            expected = eval_field(p, inner) * y2**degree
        else:
            inner[var_index] = y1 - y2
            expected = eval_field(p, inner)
        if eval_field(out, point) != expected:
            return False
    return True


def apply_transform(p, transform_id, var_index=0, rng=None):
    """Run a transform and re-verify its advertised structural properties."""
    rng = rng or random.Random(0)
    verified = []
    if transform_id == "shift":
        out = htp_shift(p)
        n = p.nvars
        subs = [
            MultiPoly.variable(p.domain, 2 * n, i) + MultiPoly.variable(p.domain, 2 * n, n + i)
            for i in range(n)
        ]
        if p.compose(subs) == out:
            verified.append("identity-checked")
    elif transform_id in ("q3", "dq4"):
        out = quotient3_homogenize(p) if transform_id == "q3" else diffquotient4_homogenize(p)
        if not p.is_zero() and is_homogeneous(out) == p.nvars * p.degree():
            verified.append("homogeneous")
        if transform_id == "dq4" and is_translation_invariant(out):
            verified.append("translation-invariant")
        if _identity_quotient(p, out, 3 if transform_id == "q3" else 4, rng):
            verified.append("identity-checked")
    elif transform_id in ("gate:mul", "gate:add"):
        mode = "multiplicative" if transform_id == "gate:mul" else "additive"
        out = ratio_gate(p, mode, var_index)
        if _identity_gate(p, out, mode, var_index, rng):
            verified.append("identity-checked")
    else:
        raise ValueError(f"unknown transform {transform_id!r}")
    return ReductionReport(input=p, output=out, transform_id=transform_id, verified=tuple(verified))
