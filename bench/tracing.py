"""Spans and counts around partreg's public functions, installed from outside.

`Tracer.install(partreg)` replaces each traced function everywhere it is
looked up (a module attribute, a name imported into another module, a class
attribute), so the program's own code is untouched.  Spans are kept in
memory as [name, start, end, parent, query id] and written out at exit;
DomainElement arithmetic and other hot calls are only counted.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name) for functions recorded as spans.  Parsing,
# window construction and certificate (de)serialisation are spans too, so
# that cli's self time is only argparse, formatting and file I/O.
SPANS = (
    ("cli", "main", "cli"),
    ("polys", "parse_poly", "polys.parse_poly"),
    ("polys", "is_translation_invariant", "polys.is_translation_invariant"),
    ("windows", "enumerate_roots", "windows.enumerate_roots"),
    ("windows", "check_window_l_pr", "windows.check_window"),
    ("windows", "semidecide_l_pr", "windows.semidecide"),
    ("windows", "density_window_check", "windows.density"),
    ("colorings", "refutation_scan", "colorings.refutation_scan"),
    ("rado", "columns_condition", "rado.columns_condition"),
    ("reductions", "apply_transform", "reductions.apply_transform"),
    ("certs", "make_certificate", "certs.make"),
    ("certs", "verify_certificate", "certs.verify"),
    ("certs", "dumps", "certs.dumps"),
    ("certs", "loads", "certs.loads"),
)
# (module, attribute, count name) for functions only counted
COUNTS = (
    ("rings", "frac_normalize", "rings.frac_normalize.calls"),
    ("rings", "ord_at", "rings.ord_at.calls"),
    ("rings", "is_irreducible", "rings.is_irreducible.calls"),
    ("polys", "eval_ring", "polys.eval_ring.calls"),
    ("colorings", "color_of", "colorings.color_of.calls"),
    ("rado", "solve_in_span", "rado.solve_in_span.calls"),
)
# DomainElement arithmetic counted per domain kind (API-boundary counts: a
# kernel on raw values may legitimately bypass them)
ELEMENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "divmod", "exact_div")
WINDOW_CONSTRUCTORS = ("interval", "enumeration_prefix", "explicit")
MODULES = ("rings", "polys", "windows", "colorings", "rado", "reductions", "certs", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.query = None

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.query]
            spans.append(record)
            stack.append(sid)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def count_element_op(self, fn):
        counts = self.counts

        def counted(element, *args):
            counts["rings.elem_ops.Z" if element.domain.kind == "Z" else "rings.elem_ops.GF"] += 1
            return fn(element, *args)

        return counted

    # -- installation ------------------------------------------------------

    def install(self, package):
        modules = [getattr(package, name) for name in MODULES] + [package]

        def replace(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        def after_enumerate(args, hypergraph):
            self.counts["windows.enumerate_roots.tuples"] += len(hypergraph.tuples)
            self.counts["windows.enumerate_roots.edges"] += len(hypergraph.edges)
            self.counts["windows.enumerate_roots.elements"] += len(args[1])

        def after_dumps(args, text):
            # the elapsed_ms digits are the only part of a certificate that varies
            elapsed = args[0].get("elapsed_ms")
            self.counts["certs.bytes"] += len(text) - (len(str(elapsed)) if elapsed is not None else 0)

        hooks = {"windows.enumerate_roots": after_enumerate, "certs.dumps": after_dumps}
        for module, attr, name in SPANS:
            original = getattr(getattr(package, module), attr)
            replace(original, self.span(name, original, hooks.get(name)))
        for module, attr, name in COUNTS:
            original = getattr(getattr(package, module), attr)
            replace(original, self.count(name, original))

        multipoly = package.polys.MultiPoly
        multipoly.substitute_first = self.count("polys.substitute_first.calls", multipoly.substitute_first)
        multipoly.compose = self.span("polys.compose", multipoly.compose)
        element = package.rings.DomainElement
        for op in ELEMENT_OPS:
            setattr(element, op, self.count_element_op(getattr(element, op)))
        window = package.windows.Window
        for ctor in WINDOW_CONSTRUCTORS:
            func = window.__dict__[ctor].__func__
            setattr(window, ctor, classmethod(self.span("windows.window", func)))

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, inclusive, own = Counter(), defaultdict(float), defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child[sid]
        return calls, inclusive, own

    def layer_metrics(self):
        calls, inclusive, own = self.totals()
        tried = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "windows.check_window"
            and parent is not None
            and self.spans[parent][0] == "windows.semidecide"
        )
        c = self.counts
        return {
            "rings.elem_ops.Z": c["rings.elem_ops.Z"],
            "rings.elem_ops.GF": c["rings.elem_ops.GF"],
            "rings.frac_normalize.calls": c["rings.frac_normalize.calls"],
            "rings.ord_at.calls": c["rings.ord_at.calls"],
            "rings.is_irreducible.calls": c["rings.is_irreducible.calls"],
            "polys.substitute_first.calls": c["polys.substitute_first.calls"],
            "polys.eval_ring.calls": c["polys.eval_ring.calls"],
            "polys.compose.s": inclusive["polys.compose"],
            "polys.is_translation_invariant.s": inclusive["polys.is_translation_invariant"],
            "windows.enumerate_roots.s": inclusive["windows.enumerate_roots"],
            "windows.enumerate_roots.calls": calls["windows.enumerate_roots"],
            "windows.enumerate_roots.tuples": c["windows.enumerate_roots.tuples"],
            "windows.enumerate_roots.edges": c["windows.enumerate_roots.edges"],
            "windows.enumerate_roots.elements": c["windows.enumerate_roots.elements"],
            "windows.check_window.self_s": own["windows.check_window"],
            "windows.semidecide.windows_tried": tried,
            "windows.density.self_s": own["windows.density"],
            "colorings.refutation_scan.self_s": own["colorings.refutation_scan"],
            "colorings.color_of.calls": c["colorings.color_of.calls"],
            "rado.columns_condition.s": inclusive["rado.columns_condition"],
            "rado.solve_in_span.calls": c["rado.solve_in_span.calls"],
            "reductions.apply_transform.self_s": own["reductions.apply_transform"],
            "certs.make.s": inclusive["certs.make"],
            "certs.verify.self_s": own["certs.verify"],
            "certs.verify.calls": calls["certs.verify"],
            "certs.bytes": c["certs.bytes"],
            "cli.self_s": own["cli"],
        }

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "query"], "spans": self.spans}, handle)
