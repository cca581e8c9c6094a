"""The benchmark's tracer still finds every partreg name it wraps.

bench/tracing.py wraps partreg functions, methods and classmethods by name,
so renaming or deleting one of them breaks the traced benchmark pass.  The
tracer patches partreg in place, so it runs in a child interpreter here.
"""

import os
import subprocess
import sys

import partreg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import sys

import partreg
import partreg.cli
import tracing

tracer = tracing.Tracer()
tracer.install(partreg)
code = partreg.cli.main(["window", "--poly", "x + y - z", "--colors", "2", "--window", "1..5"])
metrics = tracer.layer_metrics()
assert code == 0, code
assert metrics["windows.enumerate_roots.calls"] == 1, metrics
assert metrics["certs.make.s"] > 0, metrics
"""


def test_tracer_installs_and_records_a_window_query():
    src = os.path.dirname(os.path.dirname(partreg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.join(ROOT, "bench")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("verdict: PartitionCertified")
