"""Versioned certificate files and their cheap re-verification paths.

Certificates are plain JSON for diffability.  verify_certificate re-checks
the payload (witness equations, monochromatic-edge scans, avoider edge
checks) without repeating the original search; verdicts that carry no
finite payload (a completed exhaustive search, a clean scan) only get a
structural check, which is the best a non-searching verifier can do.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__, colorings, polys, rado, rings, windows
from .rings import ParseError

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
    payload = {}
    if cert.coloring is not None:
        payload["coloring"] = list(cert.coloring)
    if cert.avoider is not None:
        payload["avoider"] = list(cert.avoider)
    if cert.max_avoider_size is not None:
        payload["max_avoider_size"] = cert.max_avoider_size
    if cert.constant_root is not None:
        payload["constant_root"] = cert.constant_root
    if cert.transferable is not None:
        payload["transferable"] = cert.transferable
    return payload


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
    elapsed_ms=None,
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
    if matrix is not None:
        doc["matrix"] = matrix_to_json(matrix)
    if window is not None:
        doc["window"] = window_to_json(window)
    if colors is not None:
        doc["colors"] = colors
    if delta is not None:
        doc["delta"] = str(Fraction(delta))
    if mode is not None:
        doc["mode"] = mode
    if injective is not None:
        doc["injective"] = injective
    if coloring_spec is not None:
        doc["coloring_spec"] = str(coloring_spec)
    if elapsed_ms is not None:
        doc["elapsed_ms"] = elapsed_ms
    return doc


def from_window_certificate(cert, poly, var_names=None, command=None, elapsed_ms=None):
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
        elapsed_ms=elapsed_ms,
    )


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def loads(text):
    return json.loads(text)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class VerificationError(ValueError):
    pass


def _require(doc, *keys):
    for key in keys:
        if key not in doc:
            raise VerificationError(f"certificate missing field {key!r}")


def verify_certificate(doc):
    """Re-check a certificate payload; returns (ok, message)."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise VerificationError(f"unsupported schema {doc.get('schema')!r}")
    _require(doc, "kind", "domain")
    kind = doc["kind"]
    domain = rings.parse_domain(doc["domain"])
    try:
        if kind == "ColumnsWitness":
            _require(doc, "matrix", "payload")
            system = matrix_from_json(domain, doc["matrix"])
            witness = witness_from_json(domain, doc["payload"])
            ok = rado.verify_witness(system, witness)
            return ok, "witness equations hold" if ok else "witness equations fail"
        if kind == "NoColumnsWitness":
            _require(doc, "matrix")
            matrix_from_json(domain, doc["matrix"])
            return True, "structural check only (absence has no finite payload)"
        if kind == "PartitionColorable":
            _require(doc, "poly", "window", "colors", "payload")
            p = polys.poly_from_records(domain, doc["poly"])
            window = window_from_json(domain, doc["window"])
            coloring = doc["payload"]["coloring"]
            if len(coloring) != len(window):
                return False, "coloring length mismatch"
            if any(not 0 <= c < doc["colors"] for c in coloring):
                return False, "color out of range"
            hypergraph = windows.enumerate_roots(p, window, doc.get("injective", False))
            for edge in hypergraph.edges:
                if len({coloring[i] for i in edge}) == 1:
                    return False, f"monochromatic edge {list(edge)}"
            return True, "no monochromatic edge"
        if kind == "PartitionCertified":
            _require(doc, "poly", "window", "colors")
            p = polys.poly_from_records(domain, doc["poly"])
            window = window_from_json(domain, doc["window"])
            constant_root = doc["payload"].get("constant_root")
            if constant_root is not None:
                value = window.elements[constant_root]
                point = tuple(value for _ in range(p.nvars))
                if not polys.eval_ring(p, point).is_zero():
                    return False, "claimed constant root does not vanish"
                return True, "constant root verified"
            return True, "structural check only (certification has no finite payload)"
        if kind == "DensityAvoider":
            _require(doc, "poly", "window", "delta", "payload")
            p = polys.poly_from_records(domain, doc["poly"])
            window = window_from_json(domain, doc["window"])
            avoider = doc["payload"]["avoider"]
            delta = Fraction(doc["delta"])
            if len(set(avoider)) != len(avoider) or any(
                not 0 <= i < len(window) for i in avoider
            ):
                return False, "avoider is not a subset of the window"
            if len(avoider) < delta * len(window):
                return False, "avoider smaller than the density threshold"
            hypergraph = windows.enumerate_roots(p, window, doc.get("injective", False))
            chosen = set(avoider)
            for edge in hypergraph.edges:
                if set(edge) <= chosen:
                    return False, f"avoider contains edge {list(edge)}"
            return True, "avoider contains no edge"
        if kind == "DensityCertified":
            _require(doc, "poly", "window", "delta")
            polys.poly_from_records(domain, doc["poly"])
            window_from_json(domain, doc["window"])
            return True, "structural check only (certification has no finite payload)"
        if kind == "MonochromaticRoot":
            _require(doc, "poly", "window", "coloring_spec", "payload")
            p = polys.poly_from_records(domain, doc["poly"])
            window = window_from_json(domain, doc["window"])
            spec = colorings.parse_coloring_spec(domain, doc["coloring_spec"])
            indices = doc["payload"]["tuple"]
            values = tuple(window.elements[i] for i in indices)
            if not polys.eval_ring(p, values).is_zero():
                return False, "claimed tuple is not a root"
            palette = {colorings.color_of(spec, v) for v in values}
            if len(palette) != 1:
                return False, "claimed tuple is not monochromatic"
            if doc.get("injective") and len(set(values)) != len(values):
                return False, "claimed tuple is not injective"
            return True, "monochromatic root verified"
        if kind == "Clean":
            _require(doc, "poly", "window", "coloring_spec")
            polys.poly_from_records(domain, doc["poly"])
            window_from_json(domain, doc["window"])
            return True, "structural check only (a clean scan has no finite payload)"
        if kind == "Exhausted":
            _require(doc, "poly", "window", "colors", "payload")
            inner = dict(doc)
            inner["kind"] = "PartitionColorable"
            return verify_certificate(inner)
        if kind == "DisjointSolutions":
            _require(doc, "poly", "window", "payload")
            p = polys.poly_from_records(domain, doc["poly"])
            window = window_from_json(domain, doc["window"])
            tuples = doc["payload"]["tuples"]
            used = set()
            for indices in tuples:
                values = tuple(window.elements[i] for i in indices)
                if not polys.eval_ring(p, values).is_zero():
                    return False, "claimed tuple is not a root"
                value_set = set(values)
                if value_set & used:
                    return False, "tuples are not coordinate-disjoint"
                used |= value_set
            return True, "disjoint root tuples verified"
        if kind == "Roots":
            _require(doc, "poly", "window", "payload")
            p = polys.poly_from_records(domain, doc["poly"])
            window = window_from_json(domain, doc["window"])
            for indices in doc["payload"]["tuples"]:
                values = tuple(window.elements[i] for i in indices)
                if not polys.eval_ring(p, values).is_zero():
                    return False, "listed tuple is not a root"
            return True, "all listed tuples are roots"
        if kind == "Reduction":
            _require(doc, "poly", "payload")
            from . import reductions

            p = polys.poly_from_records(domain, doc["poly"])
            out = polys.poly_from_records(domain, doc["payload"]["output_poly"])
            transform = doc["payload"]["transform"]
            report = reductions.apply_transform(
                p, transform, var_index=doc["payload"].get("var_index", 0)
            )
            if report.output != out:
                return False, "transform output mismatch"
            claimed = set(doc["payload"].get("verified", []))
            if not claimed <= set(report.verified):
                return False, "claimed properties do not re-verify"
            return True, "transform re-applied and properties re-verified"
    except (ParseError, KeyError, IndexError, TypeError) as exc:
        return False, f"malformed certificate: {exc}"
    raise VerificationError(f"unknown certificate kind {kind!r}")
