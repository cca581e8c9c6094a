"""Regenerate the baseline table of ROADMAP.md, one row per subprocess.

    python3 bench/baseline.py [--json PATH]

One-shot and ungated.  Rows run one at a time, each in a fresh interpreter
that imports partreg from ./src and times only the call of the row.  A row
still running after ROW_TIMEOUT seconds (the tier-1 suite: SUITE_TIMEOUT) is
killed and printed as `timeout`; the rows that are too slow today are the
targets, so none is dropped.  Both timeouts are printed in each row and
written to the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SUITE = "tier-1 suite"
ROW_TIMEOUT = 30.0
SUITE_TIMEOUT = 600.0


def _poly(domain, text):
    from partreg import polys

    return polys.parse_poly(domain, text)[0]


def _roots(domain_text, poly, window):
    from partreg import rings, windows

    domain = rings.parse_domain(domain_text)
    p = _poly(domain, poly)
    if window.startswith("prefix:"):
        w = windows.Window.enumeration_prefix(domain, int(window[7:]))
    else:
        lo, hi = window.split("..")
        w = windows.Window.interval(domain, int(lo), int(hi))
    return lambda: windows.enumerate_roots(p, w)


def _density(hi):
    from partreg import INTEGERS, windows

    p = _poly(INTEGERS, "x + y - 2*z")
    w = windows.Window.interval(INTEGERS, 1, hi)
    return lambda: windows.density_window_check(p, w, "1/2", injective=True)


def _schur_window(colors, hi):
    from partreg import INTEGERS, windows

    p = _poly(INTEGERS, "x + y - z")
    w = windows.Window.interval(INTEGERS, 1, hi)
    return lambda: windows.check_window_l_pr(p, w, colors)


def _columns(n):
    from partreg import INTEGERS, rado, rings

    matrix = workloads.non_regular_family(n)
    system = rado.LinearSystem(INTEGERS, [[rings.from_int(INTEGERS, v) for v in row] for row in matrix])
    return lambda: rado.columns_condition(system, force=True)


def _translation_invariance():
    from partreg import INTEGERS, polys, reductions

    out = reductions.diffquotient4_homogenize(_poly(INTEGERS, "x^3 + 2*y^3 - x*y"))
    return lambda: polys.is_translation_invariant(out)


def _semidecide():
    from partreg import INTEGERS, windows

    p = _poly(INTEGERS, "x + y - z")
    return lambda: windows.semidecide_l_pr(p, 3, budget=30)


# row name -> builder of the timed call; names follow the ROADMAP table
ROWS = {
    "enumerate_roots x^2+y^2-z^2, 1..40": lambda: _roots("Z", "x^2 + y^2 - z^2", "1..40"),
    "enumerate_roots x^2+y^2-z^2, 1..80": lambda: _roots("Z", "x^2 + y^2 - z^2", "1..80"),
    "enumerate_roots x+y+z over GF(4)[t], prefix:200": lambda: _roots("GF(4)[t]", "x + y + z", "prefix:200"),
    "density_window_check x+y-2z injective, 1..16": lambda: _density(16),
    "density_window_check x+y-2z injective, 1..18": lambda: _density(18),
    "density_window_check x+y-2z injective, 1..20": lambda: _density(20),
    "density_window_check x+y-2z injective, 1..30": lambda: _density(30),
    "check_window_l_pr Schur, 4 colors, 1..44": lambda: _schur_window(4, 44),
    "columns_condition 2x7 non-regular": lambda: _columns(7),
    "columns_condition 2x8 non-regular": lambda: _columns(8),
    "columns_condition 2x9 non-regular": lambda: _columns(9),
    "is_translation_invariant on dq4 of a 2-var cubic": _translation_invariance,
    "semidecide_l_pr Schur, 3 colors, budget 30": _semidecide,
}


def run_row(name):
    """Child side: build the row's call, time it, print the seconds."""
    sys.path.insert(0, SRC)
    call = ROWS[name]()
    start = time.perf_counter()
    call()
    print(time.perf_counter() - start)


def measure(argv, timeout, env=None):
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, None
    return time.perf_counter() - start, proc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", help="also write the results to this file")
    parser.add_argument("--row", help=argparse.SUPPRESS)  # child mode
    args = parser.parse_args(argv)
    if args.row:
        run_row(args.row)
        return 0
    if not os.path.isfile(os.path.join(SRC, "partreg", "__init__.py")):
        print(f"error: no partreg sources under {SRC}", file=sys.stderr)
        return 2

    results = []
    print(f"| workload | time | timeout |\n|---|---|---|")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    suite = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    wall, proc = measure(suite, SUITE_TIMEOUT, env)
    tail = proc.stdout.strip().splitlines()[-1] if proc is not None else ""
    results.append({"row": SUITE, "seconds": wall, "timeout": SUITE_TIMEOUT, "summary": tail})
    shown = "timeout" if wall is None else f"{wall:.2f} s ({tail.strip('= ')})"
    print(f"| {SUITE} | {shown} | {SUITE_TIMEOUT:g} s |", flush=True)
    for name in ROWS:
        _, proc = measure([sys.executable, __file__, "--row", name], ROW_TIMEOUT)
        if proc is not None and proc.returncode != 0:
            seconds, shown = None, f"error: {proc.stderr.strip().splitlines()[-1]}"
        else:
            seconds = float(proc.stdout) if proc is not None else None
            shown = "timeout" if seconds is None else f"{seconds:.3f} s"
        results.append({"row": name, "seconds": seconds, "timeout": ROW_TIMEOUT})
        print(f"| {name} | {shown} | {ROW_TIMEOUT:g} s |", flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"python": sys.version.split()[0], "rows": results}, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
