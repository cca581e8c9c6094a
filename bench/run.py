"""partreg benchmark: one closed-loop client driving `partreg.cli.main` in-process.

    python3 bench/run.py --workload roots-z --seed 1 --seconds 15 --trace 0

Each run is a fresh process.  It times set-up (several fresh interpreters
importing partreg and building the workload's domains, each scaled by a
reference launch next to it; see measure_setup), imports partreg from ./src,
then repeats whole passes over the workload's seeded query list until --seconds of query time and at least MIN_PASSES passes are done.
A query's latency is the median over the passes of its time scaled by the
speed probe next to it (see speed_probe).  Afterwards, untimed, every outcome
is judged against `reference`, and every pass must repeat the first's output.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
(or more, to fill --seconds), then one pass with spans and counts around
partreg's public functions (see tracing.py), prints the per-layer metrics and
writes the spans to bench/out/.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_LAUNCHES = 9
REFERENCE_NOMINAL_S = 0.1
MIN_PASSES = 3
PROBE_ITERATIONS = 240
PROBE_NOMINAL_S = 0.001
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
ELAPSED = re.compile(r'"elapsed_ms": \d+')


def measure_setup(domains):
    """Seconds from launching an interpreter to partreg being ready, at reference speed.

    Each launch of setup_probe.py for partreg is paired with a launch that
    imports a fixed set of standard-library modules (the reference).  Process
    start and imports drift with the host by 20 % or more between minutes,
    and the two launches of a pair drift together, so the median ratio of
    the pair times REFERENCE_NOMINAL_S is steady: seconds at the speed where
    the reference launch takes REFERENCE_NOMINAL_S.
    """
    ratios = []
    for _ in range(SETUP_LAUNCHES):
        partreg_s = launch_probe(SRC, *domains)
        ratios.append(partreg_s / launch_probe("--reference"))
    return REFERENCE_NOMINAL_S * statistics.median(ratios)


def launch_probe(*args):
    launched = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), repr(launched), *args],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def speed_probe():
    """Seconds for a fixed slice of interpreter work of partreg's kind.

    The work is a product of two coefficient lists mod 3, like GF(q)[t] and
    integer polynomial arithmetic.  The host's speed drifts by tens of
    percent over tens of seconds (other tenants on shared cores), and a
    measured query slows with it.  Every latency is scaled by
    PROBE_NOMINAL_S / (this probe's time next to it), which reports it in ms
    at the speed where the probe takes PROBE_NOMINAL_S.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the heap, not the processor
    try:
        start = time.perf_counter()
        a = (1, 2, 0, 1, 2, 1)
        for k in range(PROBE_ITERATIONS):
            out = [0] * 11
            for i, ca in enumerate(a):
                if ca:
                    for j in range(6):
                        out[i + j] = (out[i + j] + ca * ((k + j) % 3)) % 3
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def execute(cli, query):
    """Run one query; returns (seconds, rc, error, stdout, stderr).  Only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(query.argv))
        error = None
    except Exception as exc:  # a crashing query is an outcome to record, not a harness error
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, error, out.getvalue(), err.getvalue()


def read_cert(query, stdout):
    if query.out:
        try:
            with open(query.out) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
    lines = stdout.splitlines()
    if "{" not in lines:
        return None
    return json.loads("\n".join(lines[lines.index("{") :]))


def digest(outcome):
    cert = dict(outcome.cert or {})
    cert.pop("elapsed_ms", None)
    text = f"{outcome.rc}|{outcome.error}|{ELAPSED.sub('', outcome.stdout)}|{json.dumps(cert, sort_keys=True)}"
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Query outcomes of one process, and the checks made on them afterwards."""

    def __init__(self, cli, queries):
        self.cli = cli
        self.queries = queries
        self.first = {}  # qid -> Outcome of its first execution
        self.digests = {}  # qid -> digest of that outcome
        self.mismatched = []  # (qid, pass) whose outcome differs from the first
        self.latencies = {}  # qid -> speed-normalised seconds of each completed execution
        self.attempted = 0
        self.failed = 0
        self.pass_seconds = []

    def is_failure(self, query, outcome):
        return outcome.error is not None or (outcome.rc == 1 and not query.expect_exit_1)

    def one_pass(self, tracer=None):
        total = 0.0
        completed = []  # (qid, seconds, index of the probe run just before it)
        probes = [speed_probe()]  # probes[i] ran just before query i
        for query in self.queries:
            if query.out and os.path.exists(query.out):
                os.remove(query.out)
            if tracer is not None:
                tracer.query = query.qid
            seconds, rc, error, stdout, stderr = execute(self.cli, query)
            total += seconds
            outcome = workloads.Outcome(rc, error, stdout, stderr, None)
            if error is None:
                outcome.cert = read_cert(query, stdout)
            self.attempted += 1
            if self.is_failure(query, outcome):
                self.failed += 1
            else:
                completed.append((query.qid, seconds, len(probes) - 1))
            d = digest(outcome)
            if query.qid not in self.first:
                self.first[query.qid] = outcome
                self.digests[query.qid] = d
            elif d != self.digests[query.qid]:
                self.mismatched.append((query.qid, len(self.pass_seconds)))
            probes.append(speed_probe())
        for qid, seconds, i in completed:
            # the probes just before and just after the query track the speed it ran at
            local = (probes[i] + probes[i + 1]) / 2
            self.latencies.setdefault(qid, []).append(seconds * PROBE_NOMINAL_S / local)
        self.pass_seconds.append(total)
        return total

    def passes(self, seconds, min_passes):
        """Whole passes until `seconds` of query time and `min_passes` passes."""
        measured = 0.0
        while measured < seconds or len(self.pass_seconds) < min_passes:
            measured += self.one_pass()
        return measured

    def query_seconds(self):
        """Each completed query's median normalised latency over the passes."""
        return [statistics.median(samples) for samples in self.latencies.values()]

    def judge(self):
        """(wrong executions, problems), judged by the independent references."""
        passes = len(self.pass_seconds)
        problems = []
        wrong = 0
        for query in self.queries:
            outcome = self.first[query.qid]
            if self.is_failure(query, outcome):
                if query.probe is None or not (outcome.error or "").startswith(query.probe):
                    # a crash that is not the recorded defect is a wrong verdict, not a speed-up
                    wrong += passes
                    problems.append(f"{query.qid}: failed unexpectedly: {outcome.error or outcome.stderr.strip()}")
                continue
            problem = query.check(outcome)
            if problem:
                wrong += passes
                problems.append(f"{query.qid}: {problem}")
        for qid, index in self.mismatched:
            wrong += 1
            problems.append(f"{qid}: pass {index} output differs from pass 0")
        return wrong, problems


def tail_percentile(count):
    """Highest ladder percentile with at least 10 of `count` queries beyond it."""
    return next((p for p in TAIL_LADDER if count * (100.0 - p) / 100.0 >= 10), 50.0)


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(run, setup_s, peak_rss_mb):
    """The --trace 0 metrics, and a line on how query_ms.tail was taken."""
    per_query = run.query_seconds()
    tail_p = tail_percentile(len(per_query))
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "queries_per_s": {"value": len(per_query) / sum(per_query), "unit": "1/s"},
        "query_ms.p50": {"value": 1000.0 * statistics.median(per_query), "unit": "ms"},
        "query_ms.tail": {"value": 1000.0 * nearest_rank(per_query, tail_p), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return metrics, f"query_ms.tail is p{tail_p:g} over {len(per_query)} completed queries"


def per_layer(tracer, traced_pass, untraced_pass):
    """The --trace 1 metrics, with the units BENCHMARK.json gives them."""
    layers = tracer.layer_metrics()
    layers["trace.overhead"] = traced_pass / untraced_pass
    units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    return metrics, f"traced pass {traced_pass:.3f} s, median untraced pass {untraced_pass:.3f} s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "partreg", "__init__.py")):
        print(f"error: no partreg sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # a traced run reports no end-to-end metric, so it skips set-up timing and
    # needs one untraced pass only (the warm-up and the overhead baseline)
    setup_s = None if args.trace else measure_setup(workloads.DOMAINS[args.workload])
    sys.path.insert(0, SRC)
    import partreg
    import partreg.cli

    if not os.path.abspath(partreg.__file__).startswith(SRC + os.sep):
        print(f"error: imported partreg from {partreg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work_dir = os.path.join("bench", ".work", f"{args.workload}-{args.seed}")
    workloads.write_fixtures(work_dir)
    try:
        queries = workloads.build(args.workload, args.seed, work_dir)
        run = Run(partreg.cli, queries)
        measured = run.passes(args.seconds, 1 if args.trace else MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            import tracing

            untraced_pass = statistics.median(run.pass_seconds)
            tracer = tracing.Tracer()
            tracer.install(partreg)
            metrics, note = per_layer(tracer, run.one_pass(tracer), untraced_pass)
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"))
        else:
            metrics, note = end_to_end(run, setup_s, peak_rss_mb)
        wrong, problems = run.judge()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    probes = sum(1 for q in queries if q.probe)
    lines = [
        f"workload {args.workload}  seed {args.seed}  passes {len(run.pass_seconds)}"
        f"  queries/pass {len(queries)}  measured {measured:.3f} s",
        note,
        f"{'wrong_verdicts':36} {wrong:>14} count",
        f"{'failed_share':36} {run.failed / run.attempted:>14.6f} ratio"
        f"  ({run.failed} of {run.attempted}; {probes} known-failure probe(s) per pass)",
    ]
    for name, metric in metrics.items():
        lines.append(f"{name:36} {metric['value']:>14.6g} {metric['unit']}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
