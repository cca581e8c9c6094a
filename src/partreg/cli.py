"""Command-line front end.

Exit codes encode the fundamental asymmetry of the problem: 0 means a
definitive verdict (a certificate, a complete decision, a found object),
2 means inconclusive evidence (an exhausted search budget or a clean
refutation scan), 1 means a usage or input error, or a failed verification.

main parses every input once, in one order (domain, polynomial, coloring,
window, matrix, delta), before its clock starts, so a malformed input fails
the same way in every command.  Each _cmd_* then runs its engine and returns
(certificate document or None, report lines, exit code).  main alone times
that run, stamps the document's elapsed_ms and writes it to --out or prints
it for --print-cert; with no document, it says that --out was not written.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import certs, colorings, polys, rado, reductions, rings, windows
from .rings import ParseError

EXIT_DEFINITIVE = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _parse_window(domain, text):
    if text.startswith("prefix:"):
        return windows.Window.enumeration_prefix(domain, int(text.split(":", 1)[1]))
    if text.startswith("list:"):
        elements = [rings.parse_element(domain, part) for part in text[5:].split(",")]
        return windows.Window.explicit(domain, elements)
    if ".." in text:
        lo, hi = text.split("..", 1)
        return windows.Window.interval(domain, int(lo), int(hi))
    raise ParseError(f"bad window spec {text!r} (use 'a..b', 'prefix:N' or 'list:...')")


def _parse_matrix(domain, text):
    rows = [row.strip() for row in text.split(";") if row.strip()]
    entries = [[rings.parse_element(domain, cell) for cell in row.split()] for row in rows]
    return rado.LinearSystem(domain, entries)


def _parse_inputs(args):
    """Replace each textual input of args by its parsed value."""
    domain = args.domain = rings.parse_domain(args.domain)
    if getattr(args, "poly", None) is not None:
        args.poly, args.var_names = polys.parse_poly(domain, args.poly)
    if getattr(args, "coloring", None) is not None:
        args.coloring = colorings.parse_coloring_spec(domain, args.coloring)
    if getattr(args, "window", None) is not None:
        args.window = _parse_window(domain, args.window)
    if getattr(args, "matrix", None) is not None:
        args.matrix = _parse_matrix(domain, args.matrix)
    if getattr(args, "delta", None) is not None:
        args.delta = windows.density_delta(args.delta, "--delta")


def _tuple_text(window, positions):
    return "(" + ", ".join(str(window.elements[i]) for i in positions) + ")"


def _window_doc(args, cert):
    return certs.from_window_certificate(cert, args.poly, args.var_names, args.argv)


def _doc(args, kind, payload=None, **fields):
    """A certificate of kind that records the parsed inputs of args."""
    inputs = ("poly", "var_names", "window", "matrix", "injective")
    fields.update((key, getattr(args, key, None)) for key in inputs)
    return certs.make_certificate(kind, args.domain, command=args.argv, payload=payload, **fields)


def _cmd_linear(args):
    witness = rado.columns_condition(args.matrix, force=args.force)
    if witness is None:
        kind, payload = "NoColumnsWitness", None
        line = "verdict: NOT partition regular (no columns-condition witness)"
    else:
        kind, payload = "ColumnsWitness", certs.witness_to_json(args.domain, witness)
        cells = ", ".join("{" + ",".join(str(j + 1) for j in cell) + "}" for cell in witness.cells)
        line = f"verdict: partition regular; witness cells (1-based): {cells}"
    return _doc(args, kind, payload), [line], EXIT_DEFINITIVE


def _cmd_search(args):
    cert = windows.semidecide_l_pr(args.poly, args.colors, args.injective, args.budget)
    if cert.kind == "Exhausted":
        line = (
            f"verdict: Exhausted after budget {args.budget} (inconclusive; "
            "largest window is still colorable)"
        )
        return _window_doc(args, cert), [line], EXIT_INCONCLUSIVE
    line = (
        f"verdict: PartitionCertified with {args.colors} colors "
        f"on window {cert.window.provenance} (|w|={len(cert.window)})"
    )
    return _window_doc(args, cert), [line], EXIT_DEFINITIVE


def _cmd_window(args):
    cert = windows.check_window_l_pr(args.poly, args.window, args.colors, args.injective)
    if cert.kind == "PartitionCertified":
        line = f"verdict: PartitionCertified on {args.window.provenance}"
    else:
        line = f"verdict: PartitionColorable; coloring {list(cert.coloring)}"
    return _window_doc(args, cert), [line], EXIT_DEFINITIVE


def _cmd_density(args):
    delta = args.delta
    cert = windows.density_window_check(args.poly, args.window, delta, args.mode, args.injective)
    note = "" if cert.transferable else " (NOT transferable beyond this window)"
    if cert.kind == "DensityCertified":
        size = cert.max_avoider_size
        line = f"verdict: DensityCertified at delta={delta}{note}; max avoider {size}"
    else:
        values = [str(args.window.elements[i]) for i in cert.avoider]
        line = f"verdict: DensityAvoider of size {len(values)}: {values}{note}"
    return _window_doc(args, cert), [line], EXIT_DEFINITIVE


def _cmd_roots(args):
    p, window = args.poly, args.window
    if args.disjoint is not None:
        solutions = windows.disjoint_solutions(p, window, args.disjoint, args.injective)
        if solutions is None:
            line = f"no {args.disjoint} coordinate-disjoint root tuples in the window"
            return None, [line], EXIT_INCONCLUSIVE
        payload = {"tuples": [list(tup) for tup in solutions]}
        lines = ["disjoint root tuples:"] + ["  " + _tuple_text(window, tup) for tup in solutions]
        return _doc(args, "DisjointSolutions", payload), lines, EXIT_DEFINITIVE
    hypergraph = windows.enumerate_roots(p, window, args.injective)
    payload = {
        "tuples": [list(t) for t in hypergraph.tuples],
        "edges": [list(e) for e in hypergraph.edges],
    }
    lines = [f"{len(hypergraph.tuples)} root tuples, {len(hypergraph.edges)} edges"]
    lines += ["  " + _tuple_text(window, t) for t in hypergraph.tuples[:50]]
    if len(hypergraph.tuples) > 50:
        lines.append(f"  ... {len(hypergraph.tuples) - 50} more")
    return _doc(args, "Roots", payload), lines, EXIT_DEFINITIVE


def _cmd_refute(args):
    spec, window = args.coloring, args.window
    hit = colorings.refutation_scan(args.poly, spec, window, args.injective)
    if hit is None:
        kind, payload, code = "Clean", None, EXIT_INCONCLUSIVE
        line = (
            f"verdict: Clean under {spec} on {window.provenance} "
            "(evidence of non-regularity, not proof)"
        )
    else:
        kind, code = "MonochromaticRoot", EXIT_DEFINITIVE
        payload = {"tuple": list(hit)}
        line = f"verdict: MonochromaticRoot {_tuple_text(window, hit)} under {spec}"
    return _doc(args, kind, payload, coloring_spec=spec), [line], code


def _cmd_reduce(args):
    report = reductions.apply_transform(args.poly, args.transform, var_index=args.gate_var)
    payload = {
        "transform": args.transform,
        "var_index": args.gate_var,
        "output_poly": polys.poly_to_records(report.output),
        "verified": list(report.verified),
    }
    lines = [
        f"output ({report.output.nvars} vars): {report.output}",
        f"verified: {', '.join(report.verified) or '(none)'}",
    ]
    return _doc(args, "Reduction", payload), lines, EXIT_DEFINITIVE


def _cmd_verify(args):
    with open(args.file, encoding="utf-8") as handle:  # RFC 8259: JSON is UTF-8
        doc = certs.loads(handle.read())
    ok, message = certs.verify_certificate(doc)
    code = EXIT_DEFINITIVE if ok else EXIT_ERROR
    return None, [f"{'VALID' if ok else 'INVALID'}: {message}"], code


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="partreg",
        description="certify, semi-decide and refute partition/density regularity "
        "of polynomial equations over Z and GF(q)[t]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly=True, window=False, injective=True):
        p.add_argument("--domain", default="Z", help="Z or GF(q)[t]")
        if poly:
            p.add_argument("--poly", required=True, help="polynomial expression")
        if window:
            p.add_argument("--window", required=True, help="a..b | prefix:N | list:e1,e2,...")
        if injective:
            p.add_argument("--injective", action="store_true", help="distinct-coordinate roots only")
        p.add_argument("--out", help="write the certificate to this file")
        p.add_argument("--print-cert", action="store_true", help="print the certificate JSON")

    p = sub.add_parser("linear", help="decide the columns condition for a linear system")
    common(p, poly=False, injective=False)
    p.add_argument("--matrix", required=True, help="rows separated by ';', entries by spaces")
    p.add_argument("--force", action="store_true", help="lift the column-count cap")
    p.set_defaults(func=_cmd_linear)

    p = sub.add_parser("search", help="semi-decide l-partition regularity by growing windows")
    common(p)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--budget", type=int, default=20, help="max window size")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("window", help="decide l-partition regularity on one window")
    common(p, window=True)
    p.add_argument("--colors", type=int, required=True)
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("density", help="delta-density check on one window")
    common(p, window=True)
    p.add_argument("--delta", required=True, help="rational like 3/5 or exact decimal like 0.6")
    p.add_argument("--mode", choices=["add", "mul"], default="add")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("roots", help="enumerate roots (or disjoint solution families)")
    common(p, window=True)
    p.add_argument("--disjoint", type=int, help="find this many coordinate-disjoint tuples")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("refute", help="scan a coloring family for monochromatic roots")
    common(p, window=True)
    p.add_argument("--coloring", required=True, help="basep:P[:msd][:signed] | ordmod:P:M")
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("reduce", help="apply a verified polynomial transformation")
    common(p, injective=False)
    p.add_argument("--transform", required=True, choices=list(reductions.TRANSFORM_IDS))
    p.add_argument("--gate-var", type=int, default=0, help="variable index for gate transforms")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_DEFINITIVE
    args.argv = argv
    if args.command == "density":
        args.mode = {"add": "additive", "mul": "multiplicative"}[args.mode]
    try:
        if args.command != "verify":
            _parse_inputs(args)
        start = time.monotonic()
        doc, report_lines, code = args.func(args)
        elapsed = int((time.monotonic() - start) * 1000)
        for line in report_lines:
            print(line)
        if doc is not None:
            doc["elapsed_ms"] = elapsed
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(certs.dumps(doc) + "\n")
                print(f"certificate written to {args.out}")
            elif args.print_cert:
                print(certs.dumps(doc))
        elif getattr(args, "out", None):  # verify has no --out
            print(f"no certificate written to {args.out}")
        return code
    except (ParseError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
