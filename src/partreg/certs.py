"""Versioned certificate files and their cheap re-verification paths.

Certificates are plain JSON for diffability.  verify_certificate re-checks
the payload (witness equations, monochromatic-edge scans, avoider edge
checks) without repeating the original search.  Verdicts that carry no
finite payload (no columns-condition witness, a certified or dense window,
a clean scan) are re-decided: the verifier runs the finite decision again
and compares its answer with the claim.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__, colorings, polys, rado, rings, windows

SCHEMA_VERSION = 1
TOOL_VERSION = __version__


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def window_to_json(window):
    return {
        "provenance": window.provenance,
        "elements": [rings.format_element(x) for x in window.elements],
    }


def window_from_json(domain, data):
    elements = tuple(rings.parse_element(domain, text) for text in data["elements"])
    return windows.Window(domain, elements, data["provenance"])


def witness_to_json(witness):
    return {
        "cells": [list(cell) for cell in witness.cells],
        "combos": [
            {str(col): str(coeff) for col, coeff in combo.items()} for combo in witness.combos
        ],
    }


def witness_from_json(domain, data):
    combos = [
        {int(col): rings.parse_fraction(domain, text) for col, text in combo.items()}
        for combo in data["combos"]
    ]
    return rado.ColumnsWitness([list(c) for c in data["cells"]], combos)


def matrix_to_json(system):
    return [[rings.format_element(x) for x in row] for row in system.entries]


def matrix_from_json(domain, data):
    entries = [[rings.parse_element(domain, cell) for cell in row] for row in data]
    return rado.LinearSystem(domain, entries)


def _window_cert_payload(cert):
    fields = {
        "coloring": None if cert.coloring is None else list(cert.coloring),
        "avoider": None if cert.avoider is None else list(cert.avoider),
        "max_avoider_size": cert.max_avoider_size,
        "constant_root": cert.constant_root,
        "transferable": cert.transferable,
    }
    return {key: value for key, value in fields.items() if value is not None}


def make_certificate(
    kind,
    domain,
    command=None,
    poly=None,
    var_names=None,
    matrix=None,
    window=None,
    payload=None,
    colors=None,
    delta=None,
    mode=None,
    injective=None,
    coloring_spec=None,
):
    doc = {
        "schema": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "kind": kind,
        "domain": str(domain),
        "enumeration_scheme": rings.enumeration_scheme_id(domain),
        "command": command or [],
        "payload": payload or {},
    }
    if poly is not None:
        doc["poly"] = polys.poly_to_records(poly)
        if var_names:
            doc["poly"]["vars"] = list(var_names)
    fields = {
        "matrix": None if matrix is None else matrix_to_json(matrix),
        "window": None if window is None else window_to_json(window),
        "colors": colors,
        "delta": None if delta is None else str(Fraction(delta)),
        "mode": mode,
        "injective": injective,
        "coloring_spec": None if coloring_spec is None else str(coloring_spec),
    }
    doc.update((key, value) for key, value in fields.items() if value is not None)
    return doc


def from_window_certificate(cert, poly, var_names=None, command=None):
    return make_certificate(
        cert.kind,
        cert.window.domain,
        command=command,
        poly=poly,
        var_names=var_names,
        window=cert.window,
        payload=_window_cert_payload(cert),
        colors=cert.colors,
        delta=cert.delta,
        mode=cert.mode,
        injective=cert.injective,
    )


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def loads(text):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("certificate JSON nested too deeply") from None


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class VerificationError(ValueError):
    pass


def _require(doc, *keys):
    for key in keys:
        if key not in doc:
            raise VerificationError(f"certificate missing field {key!r}")


# the fields each kind needs; poly and window are decoded before the check
_FIELDS = {
    "ColumnsWitness": ("matrix", "payload"),
    "NoColumnsWitness": ("matrix",),
    "PartitionColorable": ("poly", "window", "colors", "payload"),
    "Exhausted": ("poly", "window", "colors", "payload"),
    "PartitionCertified": ("poly", "window", "colors"),
    "DensityAvoider": ("poly", "window", "delta", "mode", "payload"),
    "DensityCertified": ("poly", "window", "delta", "mode", "payload"),
    "MonochromaticRoot": ("poly", "window", "coloring_spec", "payload"),
    "Clean": ("poly", "window", "coloring_spec"),
    "DisjointSolutions": ("poly", "window", "payload"),
    "Roots": ("poly", "window", "payload"),
    "Reduction": ("poly", "payload"),
}


def verify_certificate(doc):
    """Re-check a certificate payload; returns (ok, message).

    A missing field or an unknown schema or kind raises VerificationError; a
    malformed value gives (False, message).
    """
    if not isinstance(doc, dict):
        raise VerificationError("certificate is not a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise VerificationError(f"unsupported schema {doc.get('schema')!r}")
    _require(doc, "kind", "domain")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise VerificationError(f"unknown certificate kind {kind!r}")
    _require(doc, *_FIELDS[kind])
    try:
        return _check(doc, kind, rings.parse_domain(doc["domain"]))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return False, f"malformed certificate: {exc}"


def _element_at(window, position):
    """The element at a window position; one outside the window is malformed."""
    if not 0 <= position < len(window):
        raise IndexError(f"window position {position} out of range")
    return window.elements[position]


def _check(doc, kind, domain):
    if "poly" in _FIELDS[kind]:
        p = polys.poly_from_records(domain, doc["poly"])
    if "window" in _FIELDS[kind]:
        window = window_from_json(domain, doc["window"])
    injective = doc.get("injective", False)
    if kind == "ColumnsWitness":
        system = matrix_from_json(domain, doc["matrix"])
        witness = witness_from_json(domain, doc["payload"])
        ok = rado.verify_witness(system, witness)
        return ok, "witness equations hold" if ok else "witness equations fail"
    if kind == "NoColumnsWitness":
        system = matrix_from_json(domain, doc["matrix"])
        if rado.columns_condition(system, force=True) is not None:
            return False, "a columns-condition witness exists"
        return True, "no columns-condition witness (decision re-run)"
    if kind in ("PartitionColorable", "Exhausted"):
        coloring = doc["payload"]["coloring"]
        if len(coloring) != len(window):
            return False, "coloring length mismatch"
        if any(not 0 <= c < doc["colors"] for c in coloring):
            return False, "color out of range"
        for edge in windows.enumerate_roots(p, window, injective).edges:
            if len({coloring[i] for i in edge}) == 1:
                return False, f"monochromatic edge {list(edge)}"
        return True, "no monochromatic edge"
    if kind == "PartitionCertified":
        constant_root = doc["payload"].get("constant_root")
        if constant_root is not None:
            value = _element_at(window, constant_root)
            point = tuple(value for _ in range(p.nvars))
            if not polys.eval_ring(p, point).is_zero():
                return False, "claimed constant root does not vanish"
            if injective and p.nvars > 1:
                return False, "a constant root is not injective"
            return True, "constant root verified"
        if windows.check_window_l_pr(p, window, doc["colors"], injective).coloring is not None:
            return False, "the window has a coloring with no monochromatic edge"
        return True, "no coloring avoids a monochromatic edge (window search re-run)"
    if kind in ("DensityAvoider", "DensityCertified"):
        delta = Fraction(doc["delta"])
        payload = doc["payload"]
        edges = windows.enumerate_roots(p, window, injective).edges
        if kind == "DensityAvoider":
            avoider = payload["avoider"]
            chosen = set(avoider)
            if len(chosen) != len(avoider) or not chosen <= set(range(len(window))):
                return False, "avoider is not a subset of the window"
            if len(avoider) < delta * len(window):
                return False, "avoider smaller than the density threshold"
            for edge in edges:
                if set(edge) <= chosen:
                    return False, f"avoider contains edge {list(edge)}"
            message = "avoider contains no edge"
        else:
            size = len(windows.max_avoiding_subset(len(window), edges))
            if size >= delta * len(window):
                return False, f"an avoider of size {size} meets the density threshold"
            if size != payload["max_avoider_size"]:
                return False, f"the maximum avoider has size {size}, not the claimed one"
            message = "every avoider is below the density threshold (branch and bound re-run)"
        if payload.get("transferable") != windows.transfers(p, doc["mode"]):
            return False, "transferable flag does not re-verify"
        return True, message
    if kind == "MonochromaticRoot":
        spec = colorings.parse_coloring_spec(domain, doc["coloring_spec"])
        values = tuple(_element_at(window, i) for i in doc["payload"]["tuple"])
        if not polys.eval_ring(p, values).is_zero():
            return False, "claimed tuple is not a root"
        palette = {colorings.color_of(spec, v) for v in values}
        if len(palette) != 1:
            return False, "claimed tuple is not monochromatic"
        if injective and len(set(values)) != len(values):
            return False, "claimed tuple is not injective"
        return True, "monochromatic root verified"
    if kind == "Clean":
        spec = colorings.parse_coloring_spec(domain, doc["coloring_spec"])
        hit = colorings.refutation_scan(p, spec, window, injective)
        if hit is not None:
            return False, "monochromatic root (" + ", ".join(str(v) for v in hit) + ")"
        return True, "no monochromatic root under the coloring (scan re-run)"
    if kind == "DisjointSolutions":
        used = set()
        for indices in doc["payload"]["tuples"]:
            values = tuple(_element_at(window, i) for i in indices)
            if not polys.eval_ring(p, values).is_zero():
                return False, "claimed tuple is not a root"
            value_set = set(values)
            if value_set & used:
                return False, "tuples are not coordinate-disjoint"
            used |= value_set
        return True, "disjoint root tuples verified"
    if kind == "Roots":
        for indices in doc["payload"]["tuples"]:
            values = tuple(_element_at(window, i) for i in indices)
            if not polys.eval_ring(p, values).is_zero():
                return False, "listed tuple is not a root"
        return True, "all listed tuples are roots"
    from . import reductions  # kind == "Reduction"

    out = polys.poly_from_records(domain, doc["payload"]["output_poly"])
    report = reductions.apply_transform(
        p, doc["payload"]["transform"], var_index=doc["payload"].get("var_index", 0)
    )
    if report.output != out:
        return False, "transform output mismatch"
    claimed = set(doc["payload"].get("verified", []))
    if not claimed <= set(report.verified):
        return False, "claimed properties do not re-verify"
    return True, "transform re-applied and properties re-verified"
