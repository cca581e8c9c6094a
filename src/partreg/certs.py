"""Versioned certificate files and their cheap re-verification paths.

Certificates are plain JSON for diffability.  Their text is exactly
json.dumps(doc, indent=2, sort_keys=True): ASCII only, sorted keys, two-space
indent; dumps writes those bytes faster, and tests/test_certs.py pins them.

verify_certificate re-checks the payload (witness equations,
monochromatic-edge scans, avoider edge checks) without repeating the
original search.  Verdicts that carry no finite payload (no columns-condition
witness, a certified or dense window, a clean scan) are re-decided: the
verifier runs the finite decision again and compares its answer with the
claim.  A Roots list claims completeness, so after each tuple is checked the
window's roots are re-enumerated.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__, colorings, polys, rado, reductions, rings, windows

SCHEMA_VERSION = 1


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


def _fraction_to_text(domain, fraction):
    """A raw (num, den) pair as "num", or "num/den" unless den is one."""
    num, den = (rings.format_element(rings.DomainElement(domain, x)) for x in fraction)
    return num if den == "1" else f"{num}/{den}"


def _fraction_from_text(domain, text):
    """The normalized raw pair of "num" or "num/den"; a zero den raises ZeroDivisionError."""
    num, *den = (rings.parse_element(domain, part).value for part in text.split("/", 1))
    return rings.frac_normalize(domain, num, den[0] if den else domain.ops.one)


def witness_to_json(domain, witness):
    combos = [
        {str(col): _fraction_to_text(domain, coeff) for col, coeff in combo.items()}
        for combo in witness.combos
    ]
    return {"cells": [list(cell) for cell in witness.cells], "combos": combos}


def witness_from_json(domain, data):
    combos = [
        {int(col): _fraction_from_text(domain, text) for col, text in combo.items()}
        for combo in data["combos"]
    ]
    return rado.ColumnsWitness([list(c) for c in data["cells"]], combos)


def matrix_to_json(system):
    return [[rings.format_element(x) for x in row] for row in system.entries]


def matrix_from_json(domain, data):
    entries = [[rings.parse_element(domain, cell) for cell in row] for row in data]
    return rado.LinearSystem(domain, entries)


def _as_is(*args):
    """Encode (value) or decode (domain, data) a field that JSON holds unchanged."""
    return args[-1]


def _flag_from_json(domain, data):
    """Decode a JSON boolean; any other value is malformed."""
    if not isinstance(data, bool):
        raise ValueError(f"injective must be true or false, not {data!r}")
    return data


# field -> (encode(value), decode(domain, data)): the format make_certificate and _check share
_CODECS = {
    "poly": (polys.poly_to_records, polys.poly_from_records),
    "payload": (_as_is, _as_is),
    "window": (window_to_json, window_from_json),
    "matrix": (matrix_to_json, matrix_from_json),
    "colors": (_as_is, _as_is),
    "delta": (lambda delta: str(Fraction(delta)), lambda domain, text: windows.density_delta(text)),
    "mode": (_as_is, _as_is),
    "injective": (_as_is, _flag_from_json),
    "coloring_spec": (str, colorings.parse_coloring_spec),
}


def make_certificate(kind, domain, command=None, poly=None, var_names=None, payload=None, **inputs):
    """A certificate document; each non-None field is encoded through _CODECS."""
    doc = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "kind": kind,
        "domain": str(domain),
        "enumeration_scheme": rings.enumeration_scheme_id(domain),
        "command": command or [],
    }
    for name, value in dict(inputs, poly=poly, payload=payload or {}).items():
        encode = _CODECS[name][0]  # an unknown input raises KeyError
        if value is not None:
            doc[name] = encode(value)
    if var_names and poly is not None:
        doc["poly"]["vars"] = list(var_names)
    return doc


def from_window_certificate(cert, poly, var_names=None, command=None):
    """A WindowCertificate's document: its other set fields form the payload."""
    inputs, payload = {}, {}
    for name, value in vars(cert).items():
        if name in _CODECS:
            inputs[name] = value
        elif name != "kind" and value is not None:
            payload[name] = list(value) if isinstance(value, tuple) else value
    return make_certificate(
        cert.kind, cert.window.domain, command, poly, var_names, payload, **inputs
    )


_compact = json.JSONEncoder(separators=(",", ":")).encode  # the C encoder
_quote = json.encoder.encode_basestring_ascii


def dumps(doc):
    """Exactly json.dumps(doc, indent=2, sort_keys=True), mostly from the C encoder.

    With indent set, json falls back to its pure-Python encoder.  Here
    strings and scalars are encoded in C.  A list with no strings in it is
    encoded compactly in C; when it is flat, or every item is a flat non-empty
    list (root tuples, edges, colourings), str.replace indents that text.
    Other lists and str-keyed dicts recurse; any other value is json's own
    encoding, re-indented.
    """
    parts = []
    _encode(doc, "\n", parts.append)
    return "".join(parts)


def _encode(value, nl, out):
    """Append value's indented JSON to out; nl is the newline and indent it starts at."""
    kind = type(value)
    if kind is str:
        out(_quote(value))
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            out(sep + _quote(key) + ": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out(nl + "}")
    elif kind is list:
        if not value:
            out("[]")
            return
        inner = nl + "  "
        text = _compact(value)
        if '"' not in text and "[]" not in text:  # no strings (so no keys), no empty list
            if text.find("[", 1) < 0:  # flat
                out("[" + inner + text[1:-1].replace(",", "," + inner) + nl + "]")
                return
            rows = text[2:-2].replace("],[", '"')  # '"' marks a row break
            if "[" not in rows and "]" not in rows:  # every item a flat list
                deeper = inner + "  "
                rows = rows.replace(",", "," + deeper)
                rows = rows.replace('"', inner + "]," + inner + "[" + deeper)
                out("[" + inner + "[" + deeper + rows + inner + "]" + nl + "]")
                return
        sep = "[" + inner
        for item in value:
            out(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out(nl + "]")
    elif value is None or kind in (bool, int, float):
        out(_compact(value))
    else:  # json's own encoding; encoded JSON holds no raw newline
        out(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))


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


# the fields each kind needs, all decoded through _CODECS before the check
_FIELDS = {
    "ColumnsWitness": ("matrix", "payload"),
    "NoColumnsWitness": ("matrix",),
    "PartitionColorable": ("poly", "window", "colors", "payload"),
    "Exhausted": ("poly", "window", "colors", "payload"),
    "PartitionCertified": ("poly", "window", "colors", "payload"),
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


def _claimed_root(p, window, positions, injective):
    """The fault of a root of p claimed at window positions: "not a root",
    "not injective" (a position repeats while injective) or None."""
    for i in positions:
        if not 0 <= i < len(window):
            raise IndexError(f"window position {i} out of range")
    if not polys.eval_ring(p, tuple(window.elements[i] for i in positions)).is_zero():
        return "not a root"
    if injective and len(set(positions)) != len(positions):
        return "not injective"
    return None


def _check(doc, kind, domain):
    fields = {name: _CODECS[name][1](domain, doc[name]) for name in _FIELDS[kind]}
    p, window, payload = fields.get("poly"), fields.get("window"), fields.get("payload")
    injective = _CODECS["injective"][1](domain, doc.get("injective", False))
    if kind == "ColumnsWitness":
        ok = rado.verify_witness(fields["matrix"], witness_from_json(domain, payload))
        return ok, "witness equations hold" if ok else "witness equations fail"
    if kind == "NoColumnsWitness":
        if rado.columns_condition(fields["matrix"], force=True) is not None:
            return False, "a columns-condition witness exists"
        return True, "no columns-condition witness (decision re-run)"
    if kind in ("PartitionColorable", "Exhausted"):
        coloring = payload["coloring"]
        if len(coloring) != len(window):
            return False, "coloring length mismatch"
        if any(c not in range(fields["colors"]) for c in coloring):
            return False, "color out of range"
        for edge in windows.enumerate_roots(p, window, injective).edges:
            if len({coloring[i] for i in edge}) == 1:
                return False, f"monochromatic edge {list(edge)}"
        return True, "no monochromatic edge"
    if kind == "PartitionCertified":
        constant_root = payload.get("constant_root")
        if constant_root is not None:
            fault = _claimed_root(p, window, [constant_root] * p.nvars, injective)
            if fault == "not a root":
                return False, "claimed constant root does not vanish"
            if fault:
                return False, "a constant root is not injective"
            return True, "constant root verified"
        if windows.check_window_l_pr(p, window, fields["colors"], injective).coloring is not None:
            return False, "the window has a coloring with no monochromatic edge"
        return True, "no coloring avoids a monochromatic edge (window search re-run)"
    if kind in ("DensityAvoider", "DensityCertified"):
        threshold = fields["delta"] * len(window)
        edges = windows.enumerate_roots(p, window, injective).edges
        if kind == "DensityAvoider":
            avoider = payload["avoider"]
            chosen = set(avoider)
            if len(chosen) != len(avoider) or not chosen <= set(range(len(window))):
                return False, "avoider is not a subset of the window"
            if len(avoider) < threshold:
                return False, "avoider smaller than the density threshold"
            for edge in edges:
                if set(edge) <= chosen:
                    return False, f"avoider contains edge {list(edge)}"
            message = "avoider contains no edge"
        else:
            size = len(windows.max_avoiding_subset(len(window), edges))
            if size >= threshold:
                return False, f"an avoider of size {size} meets the density threshold"
            if size != payload["max_avoider_size"]:
                return False, f"the maximum avoider has size {size}, not the claimed one"
            message = "every avoider is below the density threshold (branch and bound re-run)"
        if payload.get("transferable") != windows.transfers(p, fields["mode"]):
            return False, "transferable flag does not re-verify"
        return True, message
    if kind == "MonochromaticRoot":
        fault = _claimed_root(p, window, payload["tuple"], injective)
        if fault == "not a root":
            return False, "claimed tuple is not a root"
        spec = fields["coloring_spec"]
        if len({colorings.color_of(spec, window.elements[i]) for i in payload["tuple"]}) != 1:
            return False, "claimed tuple is not monochromatic"
        if fault:
            return False, "claimed tuple is not injective"
        return True, "monochromatic root verified"
    if kind == "Clean":
        hit = colorings.refutation_scan(p, fields["coloring_spec"], window, injective)
        if hit is not None:
            return False, f"monochromatic root ({', '.join(str(window.elements[i]) for i in hit)})"
        return True, "no monochromatic root under the coloring (scan re-run)"
    if kind == "DisjointSolutions":
        used = set()
        for positions in payload["tuples"]:
            fault = _claimed_root(p, window, positions, injective)
            if fault:
                return False, f"claimed tuple is {fault}"
            if used & set(positions):
                return False, "tuples are not coordinate-disjoint"
            used.update(positions)
        return True, "disjoint root tuples verified"
    if kind == "Roots":
        tuples = payload["tuples"]
        for positions in tuples:
            fault = _claimed_root(p, window, positions, injective)
            if fault:
                return False, f"listed tuple is {fault}"
        hypergraph = windows.enumerate_roots(p, window, injective)
        if [tuple(positions) for positions in tuples] != hypergraph.tuples:
            return False, "listed tuples are not the sorted list of every root in the window"
        if "edges" in payload and [tuple(e) for e in payload["edges"]] != hypergraph.edges:
            return False, "edges are not the position sets of the listed tuples"
        return True, "the listed tuples are every root in the window (enumeration re-run)"
    report = reductions.apply_transform(p, payload["transform"], payload.get("var_index", 0))
    if polys.poly_to_records(report.output) != payload["output_poly"]:
        return False, "transform output mismatch"
    if not set(payload.get("verified", [])) <= set(report.verified):
        return False, "claimed properties do not re-verify"
    return True, "transform re-applied and properties re-verified"
