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
transform is one substitute-and-clear over per-variable (numerator,
denominator) blocks, and apply_transform checks its output against the same
formula evaluated in the ring at 25 sampled points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .polys import MultiPoly, is_homogeneous, is_translation_invariant, poly_ring
from .polys import substitute_and_clear
from .rings import nonzero_prefix

TRANSFORM_IDS = ("shift", "q3", "dq4", "gate:mul", "gate:add")


@dataclass
class ReductionReport:
    input: MultiPoly
    output: MultiPoly
    verified: tuple  # subset of ("homogeneous", "translation-invariant", "identity-checked")


def _shift_blocks(p):
    n, domain = p.nvars, p.domain
    return [
        (MultiPoly.variable(domain, 2 * n, i) + MultiPoly.variable(domain, 2 * n, n + i), None)
        for i in range(n)
    ]


def htp_shift(p):
    """p'(y1..yn, z1..zn) = p(y1+z1, ..., yn+zn); arity doubles."""
    return _substitute_and_clear(p, _shift_blocks(p))


def _block_difference(domain, nvars, i, j):
    return MultiPoly.variable(domain, nvars, i) - MultiPoly.variable(domain, nvars, j)


def _substitute_and_clear(p, blocks):
    """Clear p(n_1/d_1, ..., n_k/d_k) with (prod d_i)^deg(p).

    blocks[i] is the (numerator, denominator) pair of polynomials, all of one
    arity, that replaces variable i; a None denominator substitutes the
    numerator alone and clears nothing.  The fold runs on their raw terms.
    """
    nvars = blocks[0][0].nvars if blocks else 0
    ring = poly_ring(p.domain.ops, nvars)
    raw_blocks = [(n.terms, None if d is None else d.terms) for n, d in blocks]
    out = substitute_and_clear(ring, ring.lift(p.terms), raw_blocks, [p.degree()] * p.nvars)
    return MultiPoly(p.domain, nvars, out)


def _q3_blocks(p):
    total = 3 * p.nvars
    return [
        (
            _block_difference(p.domain, total, 3 * i, 3 * i + 1),
            MultiPoly.variable(p.domain, total, 3 * i + 2),
        )
        for i in range(p.nvars)
    ]


def quotient3_homogenize(p):
    """Clear p((z1-z2)/z3, ...) with (prod z_{3i})^deg(p).

    The output has 3k variables and is homogeneous of degree k*deg(p).
    """
    return _substitute_and_clear(p, _q3_blocks(p))


def _dq4_blocks(p):
    total = 4 * p.nvars
    return [
        (
            _block_difference(p.domain, total, 4 * i, 4 * i + 1),
            _block_difference(p.domain, total, 4 * i + 2, 4 * i + 3),
        )
        for i in range(p.nvars)
    ]


def diffquotient4_homogenize(p):
    """Clear p((z1-z2)/(z3-z4), ...) with (prod (z_{4i-1}-z_{4i}))^deg(p)."""
    return _substitute_and_clear(p, _dq4_blocks(p))


def _gate_blocks(p, mode, var_index):
    if not 0 <= var_index < p.nvars:
        raise ValueError("gated variable index out of range")
    if mode not in ("multiplicative", "additive"):
        raise ValueError("mode must be 'multiplicative' or 'additive'")
    n, domain = p.nvars, p.domain
    blocks = [(MultiPoly.variable(domain, n + 1, i), None) for i in range(n)]
    if mode == "multiplicative":
        blocks[var_index] = (blocks[var_index][0], MultiPoly.variable(domain, n + 1, n))
    else:
        blocks[var_index] = (_block_difference(domain, n + 1, var_index, n), None)
    return blocks


def ratio_gate(p, mode, var_index):
    """Gate one variable: y1/y2 with clearing (multiplicative) or y1-y2.

    The gated variable keeps its position (it becomes y1); y2 is appended as
    the new last variable.
    """
    return _substitute_and_clear(p, _gate_blocks(p, mode, var_index))


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
    if transform_id == "shift":
        blocks = _shift_blocks(p)
    elif transform_id == "q3":
        blocks = _q3_blocks(p)
    elif transform_id == "dq4":
        blocks = _dq4_blocks(p)
    elif transform_id in ("gate:mul", "gate:add"):
        mode = "multiplicative" if transform_id == "gate:mul" else "additive"
        blocks = _gate_blocks(p, mode, var_index)
    else:
        raise ValueError(f"unknown transform {transform_id!r}")
    out = _substitute_and_clear(p, blocks)
    verified = []
    if transform_id in ("q3", "dq4"):
        if not p.is_zero() and is_homogeneous(out) == p.nvars * p.degree():
            verified.append("homogeneous")
        if transform_id == "dq4" and is_translation_invariant(out):
            verified.append("translation-invariant")
    if _identity_sampled(p, out, blocks, random.Random(0)):
        verified.append("identity-checked")
    return ReductionReport(input=p, output=out, verified=tuple(verified))
