"""Self-tests of the benchmark (not of partreg).

    python3 -m pytest -q bench/test_bench.py

The subprocess tests run the benchmark itself with --seconds 0 and take
about two minutes in all.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "windows.enumerate_roots.tuples",
    "windows.enumerate_roots.edges",
    "rado.solve_in_span.calls",
    "rings.elem_ops.Z",
    "rings.elem_ops.GF",
    "certs.bytes",
)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [q.argv for q in workloads.build(workload, 7, "bench/.work/x")]
    again = [q.argv for q in workloads.build(workload, 7, "bench/.work/x")]
    other = [q.argv for q in workloads.build(workload, 8, "bench/.work/x")]
    assert first == again
    assert first != other


def test_workload_names_match_spec():
    assert [w["name"] for w in spec()["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _r3(n):
    return max(
        len(s)
        for k in range(n + 1)
        for s in itertools.combinations(range(1, n + 1), k)
        if not any(a + c == 2 * b for a, b, c in itertools.combinations(s, 3))
    ) if n <= 12 else None


def test_r3_table_matches_brute_force():
    assert [ref.R3[n] for n in range(13)] == [_r3(n) for n in range(13)]


def test_schur_and_van_der_waerden_constants_by_search():
    schur = workloads.SCHUR_EQ
    for colors, s in ((2, ref.SCHUR[2]), (3, ref.SCHUR[3])):
        edges = lambda n: ref.edges_of(ref.roots(schur, ref.IntRing.interval(1, n)))  # noqa: E731
        assert ref.colourable(s, edges(s), colors)
        assert not ref.colourable(s + 1, edges(s + 1), colors)
    ap3 = lambda n: ref.edges_of(ref.roots(workloads.AP3, ref.IntRing.interval(1, n), True))  # noqa: E731
    assert ref.colourable(8, ap3(8), 2) and not ref.colourable(9, ap3(9), 2)


def test_gf4_is_a_field():
    ring = ref.GFtRing(4)
    codes = range(4)
    for a, b, c in itertools.product(codes, repeat=3):
        assert ring._mul[a][ring._add[b][c]] == ring._add[ring._mul[a][b]][ring._mul[a][c]]
        assert ring._mul[a][ring._mul[b][c]] == ring._mul[ring._mul[a][b]][c]
    assert all(ring._mul[a][ring._inv[a]] == 1 for a in range(1, 4))


def test_element_text_round_trips():
    for q in (2, 3, 4):
        ring = ref.GFtRing(q)
        for x in ring.prefix(70):
            assert ring.parse(ring.fmt(x)) == x


def test_solved_roots_match_full_scan():
    ring = ref.GFtRing(3)
    poly = ref.Poly(ring, 3, [((1,), (2, 0, 0)), ((0, 1), (0, 1, 0)), ((2,), (0, 0, 1))])
    elems = ring.prefix(12)
    full = [
        combo for combo in itertools.product(range(12), repeat=3)
        if poly.evaluate([elems[i] for i in combo]) == ()
    ]
    assert ref.roots(poly, elems) == full


def test_reduction_reference_shift():
    poly = workloads.zpoly((1, (2, 0)), (-3, (0, 1)))
    out = ref.reduce_reference(poly, "shift")
    # (y1 + z1)^2 - 3 (y2 + z2), variables ordered y1, y2, z1, z2
    assert out == {(2, 0, 0, 0): 1, (1, 0, 1, 0): 2, (0, 0, 2, 0): 1, (0, 1, 0, 0): -3, (0, 0, 0, 1): -3}


# ---------------------------------------------------------------------------
# the benchmark run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["certify", "funcfield"])
def test_counts_repeat_across_traced_runs(workload):
    first = result(bench(workload, 3, 1))
    second = result(bench(workload, 3, 1))
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["correct"] and second["correct"]


def test_metric_names_match_spec():
    names = spec()
    end_to_end = result(bench("certify", 2, 0))
    assert set(end_to_end["metrics"]) == {m["name"] for m in names["end_to_end"]}
    traced = result(bench("certify", 2, 1))
    assert set(traced["metrics"]) == {m["name"] for m in names["per_layer"]}
    for metric in names["end_to_end"] + names["per_layer"]:
        got = end_to_end["metrics"].get(metric["name"]) or traced["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]


def test_known_failure_probes_are_the_only_failures():
    out = result(bench("certify", 2, 0))
    probes = sum(1 for q in workloads.build("certify", 2, "x") if q.probe)
    passes = out["attempted"] // len(workloads.build("certify", 2, "x"))
    assert out["failed"] == probes * passes


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = bench("roots-z", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
