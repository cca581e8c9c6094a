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
power would clear; fidelity to the construction beats minimality.  Every
transform is one MultiPoly.compose over per-variable (numerator,
denominator) blocks, which one table (_BLOCKS) gives for all five, and
apply_transform checks its output against the same formula evaluated in the
ring at 25 sampled points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .polys import MultiPoly, is_homogeneous, is_translation_invariant, substitute_and_clear
from .rings import nonzero_prefix

# transform id -> (a, b, block): the output has a*n + b variables z_0, z_1, ...
# for an input in n variables, and block(z, n, i, g) is the (numerator,
# denominator or None) pair that replaces variable i, g being the gated index.
_BLOCKS = {
    "shift": (2, 0, lambda z, n, i, g: (z(i) + z(n + i), None)),
    "q3": (3, 0, lambda z, n, i, g: (z(3 * i) - z(3 * i + 1), z(3 * i + 2))),
    "dq4": (4, 0, lambda z, n, i, g: (z(4 * i) - z(4 * i + 1), z(4 * i + 2) - z(4 * i + 3))),
    "gate:mul": (1, 1, lambda z, n, i, g: (z(i), z(n) if i == g else None)),
    "gate:add": (1, 1, lambda z, n, i, g: (z(i) - z(n) if i == g else z(i), None)),
}
TRANSFORM_IDS = tuple(_BLOCKS)
_GATE_MODES = {"multiplicative": "gate:mul", "additive": "gate:add"}


@dataclass
class ReductionReport:
    input: MultiPoly
    output: MultiPoly
    verified: tuple  # subset of ("homogeneous", "translation-invariant", "identity-checked")


def _blocks(p, transform_id, var_index=0):
    """The blocks of a transform of p, one per variable, for MultiPoly.compose."""
    if transform_id not in _BLOCKS:
        raise ValueError(f"unknown transform {transform_id!r}")
    a, b, block = _BLOCKS[transform_id]
    n = p.nvars
    if transform_id in _GATE_MODES.values() and not 0 <= var_index < n:
        raise ValueError("gated variable index out of range")

    def z(j):
        return MultiPoly.variable(p.domain, a * n + b, j)

    return [block(z, n, i, var_index) for i in range(n)]


def htp_shift(p):
    """p'(y1..yn, z1..zn) = p(y1+z1, ..., yn+zn); arity doubles."""
    return p.compose(_blocks(p, "shift"))


def quotient3_homogenize(p):
    """Clear p((z1-z2)/z3, ...) with (prod z_{3i})^deg(p).

    The output has 3k variables and is homogeneous of degree k*deg(p).
    """
    return p.compose(_blocks(p, "q3"))


def diffquotient4_homogenize(p):
    """Clear p((z1-z2)/(z3-z4), ...) with (prod (z_{4i-1}-z_{4i}))^deg(p)."""
    return p.compose(_blocks(p, "dq4"))


def ratio_gate(p, mode, var_index):
    """Gate one variable: y1/y2 with clearing (multiplicative) or y1-y2.

    The gated variable keeps its position (it becomes y1); y2 is appended as
    the new last variable.
    """
    if mode not in _GATE_MODES:
        raise ValueError("mode must be 'multiplicative' or 'additive'")
    return p.compose(_blocks(p, _GATE_MODES[mode], var_index))


# ---------------------------------------------------------------------------
# verified application
# ---------------------------------------------------------------------------


def _identity_sampled(p, out, blocks, rng):
    """Sampled ring check that out(z) = sum c_e prod n_i(z)^e_i d_i(z)^(deg-e_i).

    (n_i, d_i) are the blocks that replace variable i; no d_i means no
    clearing factor.  25 points are drawn from the first 40 nonzero elements,
    and a point where some d_i vanishes is skipped; a check that skips every
    point checks nothing, so it fails.
    """
    clear = [p.degree()] * p.nvars
    pool = [x.value for x in nonzero_prefix(p.domain, 40)]
    ops = p.domain.ops
    checked = 0
    for _ in range(25):
        raw = [(rng.choice(pool), None) for _ in range(out.nvars)]  # the point, as blocks
        values = [
            tuple(None if q is None else substitute_and_clear(ops, q.terms, raw) for q in block)
            for block in blocks
        ]
        if any(d is not None and not d for _, d in values):
            continue
        expected = substitute_and_clear(ops, p.terms, values, clear)
        if ops.freeze(substitute_and_clear(ops, out.terms, raw)) != ops.freeze(expected):
            return False
        checked += 1
    return checked > 0


def apply_transform(p, transform_id, var_index=0):
    """Run a transform and re-verify its advertised structural properties."""
    blocks = _blocks(p, transform_id, var_index)
    out = p.compose(blocks)
    verified = []
    if transform_id in ("q3", "dq4"):
        if not p.is_zero() and is_homogeneous(out) == p.nvars * p.degree():
            verified.append("homogeneous")
        if transform_id == "dq4" and is_translation_invariant(out):
            verified.append("translation-invariant")
    if _identity_sampled(p, out, blocks, random.Random(0)):
        verified.append("identity-checked")
    return ReductionReport(input=p, output=out, verified=tuple(verified))
