"""Command-line front end.

Exit codes encode the fundamental asymmetry of the problem: 0 means a
definitive verdict (a certificate, a complete decision, a found object),
2 means inconclusive evidence (an exhausted search budget or a clean
refutation scan), 1 means a usage or input error, or a failed verification.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

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


def _emit(doc, args, report_lines):
    for line in report_lines:
        print(line)
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(certs.dumps(doc) + "\n")
        print(f"certificate written to {args.out}")
    elif getattr(args, "print_cert", False):
        print(certs.dumps(doc))


def _cmd_linear(args):
    domain = rings.parse_domain(args.domain)
    system = _parse_matrix(domain, args.matrix)
    start = time.monotonic()
    witness = rado.columns_condition(system, force=args.force)
    elapsed = int((time.monotonic() - start) * 1000)
    if witness is None:
        doc = certs.make_certificate(
            "NoColumnsWitness",
            domain,
            command=args.argv,
            matrix=system,
            elapsed_ms=elapsed,
        )
        _emit(doc, args, ["verdict: NOT partition regular (no columns-condition witness)"])
        return EXIT_DEFINITIVE
    doc = certs.make_certificate(
        "ColumnsWitness",
        domain,
        command=args.argv,
        matrix=system,
        payload=certs.witness_to_json(witness),
        elapsed_ms=elapsed,
    )
    cells = ", ".join("{" + ",".join(str(j + 1) for j in cell) + "}" for cell in witness.cells)
    _emit(doc, args, [f"verdict: partition regular; witness cells (1-based): {cells}"])
    return EXIT_DEFINITIVE


def _cmd_search(args):
    domain = rings.parse_domain(args.domain)
    p, names = polys.parse_poly(domain, args.poly)
    start = time.monotonic()
    result = windows.semidecide_l_pr(p, args.colors, args.injective, args.budget)
    elapsed = int((time.monotonic() - start) * 1000)
    cert = result.certificate
    doc = certs.from_window_certificate(cert, p, names, args.argv, elapsed)
    if result.status == "certified":
        _emit(
            doc,
            args,
            [
                f"verdict: PartitionCertified with {args.colors} colors "
                f"on window {cert.window.provenance} (|w|={len(cert.window)})"
            ],
        )
        return EXIT_DEFINITIVE
    doc["kind"] = "Exhausted"
    _emit(
        doc,
        args,
        [
            f"verdict: Exhausted after budget {args.budget} (inconclusive; "
            "largest window is still colorable)"
        ],
    )
    return EXIT_INCONCLUSIVE


def _cmd_window(args):
    domain = rings.parse_domain(args.domain)
    p, names = polys.parse_poly(domain, args.poly)
    window = _parse_window(domain, args.window)
    start = time.monotonic()
    cert = windows.check_window_l_pr(p, window, args.colors, args.injective)
    elapsed = int((time.monotonic() - start) * 1000)
    doc = certs.from_window_certificate(cert, p, names, args.argv, elapsed)
    if cert.kind == "PartitionCertified":
        _emit(doc, args, [f"verdict: PartitionCertified on {window.provenance}"])
    else:
        _emit(doc, args, [f"verdict: PartitionColorable; coloring {list(cert.coloring)}"])
    return EXIT_DEFINITIVE


def _cmd_density(args):
    domain = rings.parse_domain(args.domain)
    p, names = polys.parse_poly(domain, args.poly)
    window = _parse_window(domain, args.window)
    delta = Fraction(args.delta)
    start = time.monotonic()
    cert = windows.density_window_check(p, window, delta, args.mode, args.injective)
    elapsed = int((time.monotonic() - start) * 1000)
    doc = certs.from_window_certificate(cert, p, names, args.argv, elapsed)
    note = "" if cert.transferable else " (NOT transferable beyond this window)"
    if cert.kind == "DensityCertified":
        _emit(
            doc,
            args,
            [f"verdict: DensityCertified at delta={delta}{note}; max avoider {cert.max_avoider_size}"],
        )
    else:
        values = [str(window.elements[i]) for i in cert.avoider]
        _emit(doc, args, [f"verdict: DensityAvoider of size {len(values)}: {values}{note}"])
    return EXIT_DEFINITIVE


def _cmd_roots(args):
    domain = rings.parse_domain(args.domain)
    p, names = polys.parse_poly(domain, args.poly)
    window = _parse_window(domain, args.window)
    fields = dict(
        command=args.argv, poly=p, var_names=names, window=window, injective=args.injective
    )
    start = time.monotonic()
    if args.disjoint is not None:
        solutions = windows.disjoint_solutions(p, window, args.disjoint, args.injective)
        elapsed = int((time.monotonic() - start) * 1000)
        if solutions is None:
            print(f"no {args.disjoint} coordinate-disjoint root tuples in the window")
            return EXIT_INCONCLUSIVE
        index_of = window.index_of()
        payload = {"tuples": [[index_of[v] for v in tup] for tup in solutions]}
        doc = certs.make_certificate(
            "DisjointSolutions", domain, payload=payload, elapsed_ms=elapsed, **fields
        )
        lines = ["disjoint root tuples:"] + [
            "  (" + ", ".join(str(v) for v in tup) + ")" for tup in solutions
        ]
        _emit(doc, args, lines)
        return EXIT_DEFINITIVE
    hypergraph = windows.enumerate_roots(p, window, args.injective)
    elapsed = int((time.monotonic() - start) * 1000)
    payload = {
        "tuples": [list(t) for t in hypergraph.tuples],
        "edges": [list(e) for e in hypergraph.edges],
    }
    doc = certs.make_certificate("Roots", domain, payload=payload, elapsed_ms=elapsed, **fields)
    lines = [f"{len(hypergraph.tuples)} root tuples, {len(hypergraph.edges)} edges"]
    for tup in hypergraph.tuples[:50]:
        lines.append("  (" + ", ".join(str(v) for v in hypergraph.value_tuple(tup)) + ")")
    if len(hypergraph.tuples) > 50:
        lines.append(f"  ... {len(hypergraph.tuples) - 50} more")
    _emit(doc, args, lines)
    return EXIT_DEFINITIVE


def _cmd_refute(args):
    domain = rings.parse_domain(args.domain)
    p, names = polys.parse_poly(domain, args.poly)
    spec = colorings.parse_coloring_spec(domain, args.coloring)
    window = _parse_window(domain, args.window)
    start = time.monotonic()
    hit = colorings.refutation_scan(p, spec, window, args.injective)
    elapsed = int((time.monotonic() - start) * 1000)
    fields = dict(
        command=args.argv,
        poly=p,
        var_names=names,
        window=window,
        coloring_spec=spec,
        injective=args.injective,
        elapsed_ms=elapsed,
    )
    if hit is None:
        doc = certs.make_certificate("Clean", domain, **fields)
        _emit(
            doc,
            args,
            [
                f"verdict: Clean under {spec} on {window.provenance} "
                "(evidence of non-regularity, not proof)"
            ],
        )
        return EXIT_INCONCLUSIVE
    index_of = window.index_of()
    payload = {"tuple": [index_of[v] for v in hit]}
    doc = certs.make_certificate("MonochromaticRoot", domain, payload=payload, **fields)
    _emit(
        doc,
        args,
        ["verdict: MonochromaticRoot (" + ", ".join(str(v) for v in hit) + f") under {spec}"],
    )
    return EXIT_DEFINITIVE


def _cmd_reduce(args):
    domain = rings.parse_domain(args.domain)
    p, names = polys.parse_poly(domain, args.poly)
    start = time.monotonic()
    report = reductions.apply_transform(p, args.transform, var_index=args.gate_var)
    elapsed = int((time.monotonic() - start) * 1000)
    doc = certs.make_certificate(
        "Reduction",
        domain,
        command=args.argv,
        poly=p,
        var_names=names,
        payload={
            "transform": args.transform,
            "var_index": args.gate_var,
            "output_poly": polys.poly_to_records(report.output),
            "verified": list(report.verified),
        },
        elapsed_ms=elapsed,
    )
    _emit(
        doc,
        args,
        [
            f"output ({report.output.nvars} vars): {report.output}",
            f"verified: {', '.join(report.verified) or '(none)'}",
        ],
    )
    return EXIT_DEFINITIVE


def _cmd_verify(args):
    with open(args.file) as handle:
        doc = certs.loads(handle.read())
    ok, message = certs.verify_certificate(doc)
    print(f"{'VALID' if ok else 'INVALID'}: {message}")
    return EXIT_DEFINITIVE if ok else EXIT_ERROR


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
        return args.func(args)
    except (ParseError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
