"""The benchmark under benchmarks/ still runs against this package: its
smoke mode checks every workload's outputs (golden digests at seed 0
included), and every function its tracer wraps must still exist, since a
missing one would silently read 0."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", os.path.join(BENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"


def test_every_traced_function_exists():
    spans = _load_spans()
    with spans.traced(spans.SpanRecorder()) as missing:
        assert missing == []
