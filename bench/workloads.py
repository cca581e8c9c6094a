"""Seeded CLI query lists for the four benchmark workloads.

A workload is a list of `Query`s: the argv handed to `partreg.cli.main` and a
check that judges the outcome against `reference`, never against partreg.
The same (workload, seed, work_dir) always yields the same argv list.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref
from reference import IntRing, Poly

Z = IntRing()
GF = {q: ref.GFtRing(q) for q in (2, 3, 4)}

WORKLOADS = ("roots-z", "search-z", "funcfield", "certify")
DOMAINS = {
    "roots-z": ["Z"],
    "search-z": ["Z"],
    "funcfield": ["GF(2)[t]", "GF(3)[t]", "GF(4)[t]"],
    "certify": ["Z"],
}


@dataclass
class Outcome:
    rc: int | None  # exit code, None if the call raised
    error: str | None  # "ExceptionType: message" if the call raised
    stdout: str
    stderr: str
    cert: dict | None  # the certificate, from --print-cert output or the --out file


@dataclass
class Query:
    qid: str
    argv: list
    check: Callable[[Outcome], str | None]  # None when the outcome is right
    out: str | None = None  # certificate file written with --out
    probe: str | None = None  # known defect this query exposes today
    expect_exit_1: bool = False  # exit 1 is the right answer (INVALID)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _expect(outcome, rc, kind):
    if outcome.rc != rc:
        return f"exit code {outcome.rc}, expected {rc}"
    if kind is not None:
        if outcome.cert is None:
            return "no certificate"
        if outcome.cert.get("kind") != kind:
            return f"verdict {outcome.cert.get('kind')}, expected {kind}"
    return None


def _window_problem(cert, ring, elems):
    got = cert.get("window", {}).get("elements")
    if got != [ring.fmt(x) for x in elems]:
        return "certificate window differs from the reference window"
    return None


def _poly_problem(cert, poly):
    got = {(r["c"], tuple(r["e"])) for r in cert["poly"]["terms"]}
    want = {(poly.ring.fmt(c), e) for c, e in poly.terms}
    return None if got == want else "certificate polynomial differs from the query"


def _first(*problems):
    return next((p for p in problems if p), None)


def roots_check(poly, elems, injective):
    def check(o):
        bad = _expect(o, 0, "Roots")
        if bad:
            return bad
        c = o.cert
        want = ref.roots(poly, elems, injective)
        got = [tuple(t) for t in c["payload"]["tuples"]]
        edges = [tuple(e) for e in c["payload"]["edges"]]
        return _first(
            _window_problem(c, poly.ring, elems),
            _poly_problem(c, poly),
            None if got == want else f"{len(got)} root tuples, reference has {len(want)}",
            None if edges == ref.edges_of(want) else "edges differ from the reference",
        )

    return check


def refute_check(poly, elems, colour, injective):
    def check(o):
        tuples = ref.roots(poly, elems, injective)
        hit = ref.first_monochromatic(tuples, [colour(x) for x in elems])
        if hit is None:
            return _first(_expect(o, 2, "Clean"), _window_problem(o.cert, poly.ring, elems))
        bad = _expect(o, 0, "MonochromaticRoot")
        if bad:
            return bad
        got = tuple(o.cert["payload"]["tuple"])
        return _first(
            _window_problem(o.cert, poly.ring, elems),
            None if got == hit else f"root {got}, reference's least monochromatic root is {hit}",
        )

    return check


def window_check(poly, elems, colors, injective, certified=None):
    """certified: the verdict known from the literature, or None to search."""

    def check(o):
        if o.rc != 0 or o.cert is None:
            return f"exit code {o.rc}, expected 0"
        kind = o.cert["kind"]
        edges = ref.edges_of(ref.roots(poly, elems, injective))
        bad = _window_problem(o.cert, poly.ring, elems)
        if bad:
            return bad
        if kind == "PartitionColorable":
            if certified:
                return "colourable, but the literature says every colouring fails"
            return ref.valid_colouring(edges, o.cert["payload"]["coloring"], colors, len(elems))
        if kind == "PartitionCertified":
            if certified is False:
                return "certified, but the literature gives a valid colouring"
            if certified is None and ref.colourable(len(elems), edges, colors):
                return "certified, but the reference finds a valid colouring"
            return None
        return f"unexpected verdict {kind}"

    return check


def search_check(poly, colors, injective, budget, certify_at=None):
    """certify_at: prefix size known from the literature, or None to search."""
    ring = poly.ring

    def first_uncolourable():
        for k in range(1, budget + 1):
            edges = ref.edges_of(ref.roots(poly, ring.prefix(k), injective))
            if not ref.colourable(k, edges, colors):
                return k
        return None

    def check(o):
        k = certify_at if certify_at is not None else first_uncolourable()
        if k is not None and k <= budget:
            return _first(
                _expect(o, 0, "PartitionCertified"), _window_problem(o.cert, ring, ring.prefix(k))
            )
        bad = _expect(o, 2, "Exhausted")
        if bad:
            return bad
        elems = ring.prefix(budget)
        edges = ref.edges_of(ref.roots(poly, elems, injective))
        return _first(
            _window_problem(o.cert, ring, elems),
            ref.valid_colouring(edges, o.cert["payload"]["coloring"], colors, budget),
        )

    return check


def density_check(elems, delta, max_avoider):
    """3-term progressions (x + y - 2z, injective) on [1, N]; r_3 from A003002."""

    def check(o):
        certified = max_avoider < delta * len(elems)
        bad = _expect(o, 0, "DensityCertified" if certified else "DensityAvoider")
        if bad:
            return bad
        payload = o.cert["payload"]
        if payload.get("max_avoider_size") != max_avoider:
            return f"max avoider {payload.get('max_avoider_size')}, A003002 says {max_avoider}"
        if certified:
            return None
        avoider = payload["avoider"]
        edges = ref.edges_of(ref.roots(AP3, elems, True))
        return _first(
            _window_problem(o.cert, Z, elems),
            None if len(avoider) == max_avoider else "avoider is not maximum",
            ref.avoider_problem(avoider, edges, len(elems)),
        )

    return check


def linear_check(ring, matrix, regular):
    def check(o):
        if not regular:
            return _expect(o, 0, "NoColumnsWitness")
        bad = _expect(o, 0, "ColumnsWitness")
        if bad:
            return bad
        if isinstance(ring, IntRing):
            return ref.witness_problem(matrix, o.cert["payload"])
        return ref.gf_witness_problem(ring, matrix[0], o.cert["payload"])

    return check


def reduce_check(poly, transform, var_index=0):
    def check(o):
        bad = _expect(o, 0, "Reduction")
        if bad:
            return bad
        want = ref.reduce_reference(poly, transform, var_index)
        records = o.cert["payload"]["output_poly"]["terms"]
        got = {tuple(r["e"]): int(r["c"]) for r in records}
        if got != dict(want):
            return f"{transform} output differs from the definition"
        labels = []
        if transform in ("q3", "dq4") and want.homogeneous_degree() == poly.nvars * poly.degree():
            labels.append("homogeneous")
        if transform == "dq4" and ref.translation_invariant(want):
            labels.append("translation-invariant")
        labels.append("identity-checked")
        verified = o.cert["payload"]["verified"]
        return None if verified == labels else f"verified {verified}, expected {labels}"

    return check


def verify_check(valid):
    def check(o):
        rc, word = (0, "VALID") if valid else (1, "INVALID")
        if o.rc != rc or not o.stdout.startswith(word + ":"):
            return f"verify printed {o.stdout.strip()!r} with exit {o.rc}, expected {word}"
        return None

    return check


def malformed_check(o):
    # a malformed certificate must exit 1 with a message, not a traceback
    return None if o.rc == 1 else f"exit code {o.rc}, expected 1"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def zpoly(*terms):
    """Integer polynomial from (coefficient, exponents) pairs."""
    return Poly(Z, len(terms[0][1]), terms).canonical()


PYTHAGOREAN = zpoly((1, (2, 0, 0)), (1, (0, 2, 0)), (-1, (0, 0, 2)))
SCHUR_EQ = zpoly((1, (1, 0, 0)), (1, (0, 1, 0)), (-1, (0, 0, 1)))
AP3 = zpoly((1, (1, 0, 0)), (1, (0, 1, 0)), (-2, (0, 0, 1)))
DOUBLING = zpoly((1, (1, 0)), (-2, (0, 1)))

# shapes for seeded nonlinear draws; the last variable always has degree >= 2,
# so enumeration cost depends on the window, not on the coefficients
NONLINEAR_SHAPES = (
    ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
    ((2, 0, 0), (0, 1, 0), (0, 0, 2)),
    ((1, 1, 0), (0, 0, 2)),
    ((3, 0, 0), (0, 3, 0), (0, 0, 3)),
    ((2, 0, 0), (0, 3, 0), (0, 0, 2)),
    ((1, 0, 0), (0, 2, 0), (0, 0, 2)),
)


# quadratic shapes used over GF(q)[t]
GF_SHAPES = (NONLINEAR_SHAPES[0], NONLINEAR_SHAPES[2])


def draw_nonlinear_z(rng, shape):
    coeffs = [rng.randint(1, 6) for _ in shape[:-1]] + [-rng.randint(1, 6)]
    return zpoly(*zip(coeffs, shape))


def draw_linear_z(rng):
    a, b, c = (rng.randint(1, 5) for _ in range(3))
    return zpoly((a, (1, 0, 0)), (b, (0, 1, 0)), (-c, (0, 0, 1)))


LINEAR_SHAPE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def draw_gf(rng, ring, shape, t_term):
    """A polynomial of the given shape over GF(q)[t].

    Coefficients are prime-field constants, which is what the CLI's
    polynomial parser reads from an integer literal (so over GF(2) and GF(4)
    the seed changes nothing), and term `t_term` is multiplied by t.  It is
    never the last term, so the last variable of a linear shape keeps a
    constant coefficient and can be solved for.
    """
    coeffs = [(rng.randint(1, ring.p - 1),) for _ in shape]
    coeffs[t_term] = (0,) + coeffs[t_term]
    return Poly(ring, 3, list(zip(coeffs, shape))).canonical()


def _poly_args(poly, domain=None):
    text = poly.text()
    # argparse reads a separate argument starting with "-" as an option
    args = [f"--poly={text}"] if text.startswith("-") else ["--poly", text]
    return args + ["--domain", domain] if domain else args


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def roots_z(rng, work_dir):
    """Root enumeration over Z: the Pythagorean anchor plus nonlinear draws."""
    w40 = Z.interval(1, 40)
    queries = [
        Query("pyth-roots-1..40", ["roots"] + _poly_args(PYTHAGOREAN) + ["--window", "1..40", "--print-cert"],
              roots_check(PYTHAGOREAN, w40, False)),
        Query("pyth-window-1..40", ["window"] + _poly_args(PYTHAGOREAN) + ["--colors", "2", "--window", "1..40", "--print-cert"],
              window_check(PYTHAGOREAN, w40, 2, False, certified=40 > ref.PYTHAGOREAN_2COLOURABLE_UP_TO)),
    ]
    n = 10
    elems = Z.interval(1, n)
    kinds = ("roots", "basep", "ordmod", "window")
    # position fixes the query kind and the shape; the seed draws coefficients
    for i in range(96):
        kind = kinds[i % len(kinds)]
        poly = draw_nonlinear_z(rng, NONLINEAR_SHAPES[(i // len(kinds)) % len(NONLINEAR_SHAPES)])
        injective = (i // len(kinds)) % 4 == 3
        inj = ["--injective"] if injective else []
        base = _poly_args(poly) + ["--window", f"1..{n}", "--print-cert"] + inj
        if kind == "roots":
            argv, check = ["roots"] + base, roots_check(poly, elems, injective)
        elif kind == "basep":
            p = rng.choice((3, 5))
            argv = ["refute"] + base + ["--coloring", f"basep:{p}"]
            check = refute_check(poly, elems, lambda x, p=p: ref.colour_basep(x, p), injective)
        elif kind == "ordmod":
            p, m = rng.choice((2, 3)), rng.choice((2, 3))
            argv = ["refute"] + base + ["--coloring", f"ordmod:{p}:{m}"]
            check = refute_check(poly, elems, lambda x, p=p, m=m: ref.colour_ordmod_int(x, p, m), injective)
        else:
            argv = ["window"] + base + ["--colors", "2"]
            check = window_check(poly, elems, 2, injective)
        queries.append(Query(f"draw{i}-{kind}", argv, check))
    return queries


def search_z(rng, work_dir):
    """Linear equations over Z: colouring search and branch and bound."""
    queries = [
        # prefix 2*S(3)+1 = 27 is the first uncolourable zig-zag prefix
        Query("schur-search-3", ["search"] + _poly_args(SCHUR_EQ) + ["--colors", "3", "--budget", "30", "--print-cert"],
              search_check(SCHUR_EQ, 3, False, 30, certify_at=ref.schur_search_prefix(3))),
        Query("schur-window-4-1..40", ["window"] + _poly_args(SCHUR_EQ) + ["--colors", "4", "--window", "1..40", "--print-cert"],
              window_check(SCHUR_EQ, Z.interval(1, 40), 4, False, certified=40 > ref.SCHUR[4])),
    ]
    for colors in (2, 3):
        w = ref.VDW3[colors]
        for n in (w - 1, w):
            queries.append(Query(
                f"ap3-window-{colors}-1..{n}",
                ["window"] + _poly_args(AP3) + ["--colors", str(colors), "--injective", "--window", f"1..{n}", "--print-cert"],
                window_check(AP3, Z.interval(1, n), colors, True, certified=n >= w)))
    for colors in (2, 3):
        s = ref.SCHUR[colors]
        for n in (s, s + 1):
            queries.append(Query(
                f"schur-window-{colors}-1..{n}",
                ["window"] + _poly_args(SCHUR_EQ) + ["--colors", str(colors), "--window", f"1..{n}", "--print-cert"],
                window_check(SCHUR_EQ, Z.interval(1, n), colors, False, certified=n > s)))
    for n in (20, 24):
        queries.append(Query(
            f"ap3-window-3-1..{n}",
            ["window"] + _poly_args(AP3) + ["--colors", "3", "--injective", "--window", f"1..{n}", "--print-cert"],
            window_check(AP3, Z.interval(1, n), 3, True, certified=False)))
    for n in (12, 13, 14, 15, 16, 18):
        queries.append(Query(
            f"ap3-density-1..{n}",
            ["density"] + _poly_args(AP3) + ["--injective", "--window", f"1..{n}", "--delta", "1/2", "--print-cert"],
            density_check(Z.interval(1, n), Fraction(1, 2), ref.R3[n])))
    # known defect: the colouring search recurses once per window position
    queries.append(Query(
        "probe-doubling-1..1500",
        ["window"] + _poly_args(DOUBLING) + ["--colors", "2", "--window", "1..1500", "--print-cert"],
        window_check(DOUBLING, Z.interval(1, 1500), 2, False, certified=False),
        probe="RecursionError"))
    kinds = ("window2", "window2", "window3")
    for i in range(27):
        poly = draw_linear_z(rng)
        kind = kinds[i % len(kinds)]
        if kind == "window2":
            n = 12
            argv = ["window"] + _poly_args(poly) + ["--colors", "2", "--window", f"1..{n}", "--print-cert"]
            check = window_check(poly, Z.interval(1, n), 2, False)
        else:
            n = 10
            argv = ["window"] + _poly_args(poly) + ["--colors", "3", "--injective", "--window", f"1..{n}", "--print-cert"]
            check = window_check(poly, Z.interval(1, n), 3, True)
        queries.append(Query(f"draw{i}-{kind}", argv, check))
    return queries


def funcfield(rng, work_dir):
    """The same query types over GF(2)[t], GF(3)[t] and GF(4)[t]."""
    gf3_pyth = Poly(GF[3], 3, [((1,), (2, 0, 0)), ((1,), (0, 2, 0)), ((2,), (0, 0, 2))])
    gf4_sum = Poly(GF[4], 3, [((1,), (1, 0, 0)), ((1,), (0, 1, 0)), ((1,), (0, 0, 1))])
    gf2_sum = Poly(GF[2], 3, gf4_sum.terms)
    queries = [
        # prefix:64 rather than a larger window keeps a pass short enough for
        # 4 passes in a run; bench/baseline.py times prefix:200
        Query("gf4-sum-roots-prefix:64", ["roots"] + _poly_args(gf4_sum, "GF(4)[t]") + ["--window", "prefix:64", "--print-cert"],
              roots_check(gf4_sum, GF[4].prefix(64), False)),
        Query("gf3-pyth-roots-prefix:30", ["roots"] + _poly_args(gf3_pyth, "GF(3)[t]") + ["--window", "prefix:30", "--print-cert"],
              roots_check(gf3_pyth, GF[3].prefix(30), False)),
        Query("gf3-pyth-ordmod-prefix:20", ["refute"] + _poly_args(gf3_pyth, "GF(3)[t]") + ["--coloring", "ordmod:t:4", "--window", "prefix:20", "--print-cert"],
              refute_check(gf3_pyth, GF[3].prefix(20), lambda x: ref.colour_ordmod_t(x, 4), False)),
        Query("gf2-sum-search-2", ["search"] + _poly_args(gf2_sum, "GF(2)[t]") + ["--colors", "2", "--budget", "12", "--print-cert"],
              search_check(gf2_sum, 2, False, 12)),
    ]
    kinds = ("roots", "ordmod", "window", "search", "linear")
    # position fixes field, kind and shape; the seed draws coefficients
    for i in range(45):
        q = (2, 3, 4)[i % 3]
        ring, domain = GF[q], f"GF({q})[t]"
        kind = kinds[(i // 3) % len(kinds)]
        if kind == "linear":
            row = [rng.randint(1, ring.p - 1) for _ in range(2 + i // 15)]
            matrix = [[ring.const(c) for c in row]]
            argv = ["linear", "--domain", domain, "--matrix", " ".join(map(str, row)), "--print-cert"]
            check = linear_check(ring, matrix, ref.gf_single_row_regular(ring, matrix[0]))
            queries.append(Query(f"draw{i}-{kind}-gf{q}", argv, check))
            continue
        rep = i // 15
        linear = kind == "search" or rep == 0
        shape = LINEAR_SHAPE if linear else GF_SHAPES[rep % 2]
        poly = draw_gf(rng, ring, shape, i % (len(shape) - 1))
        n = 16 if linear else 8
        elems = ring.prefix(n)
        base = _poly_args(poly, domain) + ["--print-cert"]
        if kind == "roots":
            argv, check = ["roots"] + base + ["--window", f"prefix:{n}"], roots_check(poly, elems, False)
        elif kind == "ordmod":
            m = rng.choice((2, 3))
            argv = ["refute"] + base + ["--window", f"prefix:{n}", "--coloring", f"ordmod:t:{m}"]
            check = refute_check(poly, elems, lambda x, m=m: ref.colour_ordmod_t(x, m), False)
        elif kind == "window":
            argv = ["window"] + base + ["--window", f"prefix:{n}", "--colors", "2"]
            check = window_check(poly, elems, 2, False)
        else:
            argv = ["search"] + base + ["--colors", "2", "--budget", "8"]
            check = search_check(poly, 2, False, 8)
        queries.append(Query(f"draw{i}-{kind}-gf{q}", argv, check))
    return queries


def non_regular_family(n):
    """2 x n, top row 1 -1 1 -1 2 -2 3 -3 ..., bottom row marks the last column.

    No witness exists: the marked column's cell sum has bottom entry 1, so it
    can be neither the zero-sum first cell nor in the span of earlier columns
    (all of which have bottom entry 0).  The search must still exhaust every
    ordered partition of the other columns.
    """
    top = [(1 if k < 4 else (k - 4) // 2 + 2) * (-1) ** k for k in range(n)]
    return [top, [0] * (n - 1) + [1]]


def _matrix_text(matrix):
    return "; ".join(" ".join(map(str, row)) for row in matrix)


def certify(rng, work_dir):
    """Certificates written with --out by rado, reductions and windows, then verified."""
    queries = []
    made = []  # (qid, path) of certificates to verify afterwards

    def emit(qid, argv, check):
        path = os.path.join(work_dir, qid + ".json")
        queries.append(Query(qid, argv + ["--out", path], check, out=path))
        made.append((qid, path))

    for n in (7, 8):
        matrix = non_regular_family(n)
        emit(f"family-2x{n}", ["linear", "--matrix", _matrix_text(matrix)], linear_check(Z, matrix, False))
    for i in range(10):
        rows = 1 if i % 2 == 0 else 2
        cols = 3 + (i // 2) % 3 if rows == 1 else 4 + (i // 2) % 2
        matrix = [[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(cols)] for _ in range(rows)]
        emit(f"draw{i}-linear-{rows}x{cols}", ["linear", "--matrix", _matrix_text(matrix)],
             linear_check(Z, matrix, ref.rado_regular(matrix)))
    transforms = ("shift", "q3", "gate:mul", "gate:add", "dq4")
    for i in range(10):
        transform = transforms[i % len(transforms)]
        degree = 3 if transform == "dq4" else 2 + (i // len(transforms)) % 2
        picked = [(degree, 0), (0, degree), ((1, 1), (1, 0), (0, 1), (0, 0))[(i // len(transforms)) % 4]]
        poly = zpoly(*[(rng.choice([-3, -2, -1, 1, 2, 3]), e) for e in picked])
        gate = rng.randrange(poly.nvars)
        argv = ["reduce"] + _poly_args(poly) + ["--transform", transform, "--gate-var", str(gate)]
        emit(f"draw{i}-reduce-{transform}", argv, reduce_check(poly, transform, gate))
    for i in range(6):
        colors = 2
        if i % 3 == 0:
            n = 4 + (i // 3) % 2
            emit(f"draw{i}-schur-window-1..{n}", ["window"] + _poly_args(SCHUR_EQ) + ["--colors", "2", "--window", f"1..{n}"],
                 window_check(SCHUR_EQ, Z.interval(1, n), colors, False, certified=n > ref.SCHUR[2]))
        elif i % 3 == 1:
            n = 8 + (i // 3) % 2
            emit(f"draw{i}-ap3-window-1..{n}", ["window"] + _poly_args(AP3) + ["--colors", "2", "--injective", "--window", f"1..{n}"],
                 window_check(AP3, Z.interval(1, n), colors, True, certified=n >= ref.VDW3[2]))
        else:
            n = 11 + (i // 3) % 2
            delta = rng.choice([Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)])
            emit(f"draw{i}-ap3-density-1..{n}",
                 ["density"] + _poly_args(AP3) + ["--injective", "--window", f"1..{n}", "--delta", str(delta)],
                 density_check(Z.interval(1, n), delta, ref.R3[n]))
    for qid, path in made:
        queries.append(Query(f"verify-{qid}", ["verify", path], verify_check(True)))
    # hand-written certificates that a verifier must reject, and a document
    # with nothing but a schema number
    for name in TAMPERED:
        path = os.path.join(work_dir, name + ".json")
        queries.append(Query(f"verify-{name}", ["verify", path], verify_check(False), expect_exit_1=True))
    bare = os.path.join(work_dir, "schema-only.json")
    queries.append(Query("probe-verify-schema-only", ["verify", bare], malformed_check,
                         probe="KeyError", expect_exit_1=True))
    return queries


def _records(poly):
    return {"nvars": poly.nvars, "terms": [{"c": str(c), "e": list(e)} for c, e in poly.terms]}


def _doc(kind, **fields):
    return {"schema": 1, "tool_version": "0.1.0", "kind": kind, "domain": "Z",
            "enumeration_scheme": "zigzag", "command": [], **fields}


def _interval_json(n):
    return {"provenance": f"interval:1..{n}", "elements": [str(v) for v in range(1, n + 1)]}


TAMPERED = {
    # 1 + 1 = 2 is monochromatic
    "tampered-schur-colouring": _doc(
        "PartitionColorable", poly=_records(SCHUR_EQ), window=_interval_json(4), colors=2,
        injective=False, payload={"coloring": [0, 0, 0, 0]}),
    # cell {y} of x + y - z sums to 1 * column x, not 2 * column x
    "tampered-columns-witness": _doc(
        "ColumnsWitness", matrix=[["1", "1", "-1"]],
        payload={"cells": [[0, 2], [1]], "combos": [{"0": "2"}]}),
    # 1, 2, 3 is a progression
    "tampered-ap3-avoider": _doc(
        "DensityAvoider", poly=_records(AP3), window=_interval_json(5), delta="1/2", mode="additive",
        injective=True, payload={"avoider": [0, 1, 2], "max_avoider_size": 3}),
}


def write_fixtures(work_dir):
    """Certificates the certify workload verifies without having produced them."""
    os.makedirs(work_dir, exist_ok=True)
    docs = dict(TAMPERED, **{"schema-only": {"schema": 1}})
    for name, doc in docs.items():
        with open(os.path.join(work_dir, name + ".json"), "w") as handle:
            json.dump(doc, handle)


BUILDERS = {"roots-z": roots_z, "search-z": search_z, "funcfield": funcfield, "certify": certify}


def build(workload, seed, work_dir):
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, work_dir)
