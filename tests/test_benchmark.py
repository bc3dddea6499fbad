"""The benchmark under benchmarks/ still runs against this package: its
smoke mode checks every workload's outputs (golden digests at seed 0
included), every function its tracer wraps must still exist, since a
missing one would silently read 0, and the harness must count and fold
through the names the tracer wraps."""

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


def test_harness_counts_and_folds_through_traced_names():
    # a private twin of the count or the fold would read 0 calls here
    from mzf.simulate import SimConfig, run_experiment

    spans = _load_spans()
    recorder = spans.SpanRecorder()
    cfg = SimConfig(
        modulation=16, kc=2, snr_db=(10.0, 20.0), trials=2, detectors=("mzf-ext2:sd",)
    )
    with spans.traced(recorder):
        run_experiment(cfg)
    totals = recorder.totals()
    assert totals["metrics.BerAccumulator.accumulate"][2] == cfg.trials
    assert totals["modarith.mod_recover"][2] > 0
