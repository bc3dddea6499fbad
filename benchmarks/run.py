"""Benchmark of the mzf detectors and their Monte Carlo harness.

    python3 benchmarks/run.py --workload fit_ladder --seed 3 --seconds 20 --trace 0
    python3 benchmarks/run.py --smoke

Three closed-loop workloads (one caller, the next operation starts when the
previous one returns; see workloads.py and README.md):

  ber_sweep     one trial of `mzf ber` at the criterion-06 shape per operation
  fit_ladder    one MZFDetector fit plus its gains per operation
  block_stream  one fit plus predict on a block of observations per operation

--trace 0 measures for --seconds seconds and reports the end-to-end metrics.
--trace 1 runs a fixed number of operations (set by --seconds, never by the
clock, so its counts repeat exactly) twice, untraced and then traced, and
reports the per-layer metrics plus the tracing overhead. End-to-end times
and the tracing overhead are calibrated for host speed (see REFERENCE_S);
span times are not. Every operation's
output is checked; at the golden seed the outputs of the first operations
must also match a digest made from the unmodified package. A human-readable
report comes first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Details, run metadata and
the spans of a traced run are written under .bench_out/ in the checkout.

--smoke runs every workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json is reported with its unit and that no
output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# input generation plus warm-up is repeated this often; setup_s reports the
# median, plus the one-off import time
SETUP_REPEATS = 5
# a traced run spends about a third of --seconds on each of its two passes
TRACE_SHARE = 1.0 / 3.0
# the tail percentile keeps at least this many samples beyond it
TAIL_BEYOND = 10
# Host-speed calibration. The vCPU of a shared host runs up to 2x slower for
# stretches of seconds to minutes, so one program's wall times drift by more
# than any useful bound between runs. After every timed operation the
# benchmark times reference(), a fixed mix of interpreter and small numpy
# work that calls nothing in mzf, and scales the operation's time by
# REFERENCE_S over the median reference time of the CALIBRATION_WINDOW
# operations on either side. Reported times are thus seconds on a machine
# whose reference() takes REFERENCE_S; the raw times go to the report.
REFERENCE_S = 1.5e-3
CALIBRATION_WINDOW = 2
SETUP_REFERENCES = 3

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("ber_sweep", "fit_ladder", "block_stream"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload in both modes")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_package():
    """Import numpy and mzf from this checkout's src/ with BLAS pinned to
    BLAS_THREADS threads; returns the seconds it took."""
    t0 = time.perf_counter()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401
    import mzf

    src = os.path.realpath(os.path.join(ROOT, "src", "mzf"))
    if os.path.dirname(os.path.realpath(mzf.__file__)) != src:
        raise SystemExit(f"mzf was imported from {mzf.__file__}, not from {src}")
    return time.perf_counter() - t0


def metadata(seed: int) -> dict:
    import numpy as np

    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": rev or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": 1,
        "seed": seed,
    }


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    keeps TAIL_BEYOND samples beyond it; fewer remain on short runs."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


_REF_MATRIX = None


def reference() -> float:
    """Seconds taken by a fixed piece of work that does not use mzf."""
    global _REF_MATRIX
    import numpy as np

    if _REF_MATRIX is None:
        _REF_MATRIX = np.random.default_rng(0).standard_normal((8, 8)) + 8.0 * np.eye(8)
    a = _REF_MATRIX
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(3000):
        acc += (k * 0.5) % 7.0
    m = a
    for _ in range(75):
        m = np.round(np.linalg.solve(a, m) * 0.5) + a
    return time.perf_counter() - t0


def calibrate(times, refs):
    """Scale times[i] by REFERENCE_S over the median of the reference times
    within CALIBRATION_WINDOW of i."""
    w = CALIBRATION_WINDOW
    return [
        t * REFERENCE_S / statistics.median(refs[max(i - w, 0) : i + w + 1])
        for i, t in enumerate(times)
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run of one workload: set-up, operations, checks."""

    def __init__(self, cls, seed: int):
        self.cls = cls
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.golden_parts = []

    def setup(self):
        """Build the inputs and warm up SETUP_REPEATS times; keeps the last
        inputs and returns (median seconds, median reference seconds timed
        between the repeats). Warm-up operations are checked and counted
        like timed ones."""
        times, refs = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.wl = self.cls(self.seed, 0, OUT_DIR)
            warm = self.cls(self.seed, 1, OUT_DIR, pool_size=self.cls.warm_ops)
            for i in range(self.cls.warm_ops):
                self.attempted += 1
                self.failed += not warm.check(warm.run(i))
            times.append(time.perf_counter() - t0)
            refs.extend(reference() for _ in range(SETUP_REFERENCES))
        return statistics.median(times), statistics.median(refs)

    def op(self, run, i: int) -> float:
        """Run operation i through run (the workload's run, maybe traced),
        check it, keep its golden digest part; returns its seconds."""
        t0 = time.perf_counter()
        out = run(i)
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.failed += not self.wl.check(out)
        if i == len(self.golden_parts) and i < self.cls.golden_ops:
            self.golden_parts.append(self.wl.digest(out))
        return dt

    def golden(self):
        """(digest matches or None off the golden seed, digest)."""
        from workloads import GOLDEN_SEED, golden_digest

        if self.seed != GOLDEN_SEED:
            return None, None
        for i in range(len(self.golden_parts), self.cls.golden_ops):
            self.golden_parts.append(self.wl.digest(self.wl.run(i)))
        got = golden_digest(self.golden_parts)
        return got == self.cls.golden, got


def run_timed(run: Run, seconds: float):
    """(operation seconds, reference seconds timed after each operation)."""
    lat, refs = [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        lat.append(run.op(run.wl.run, i))
        refs.append(reference())
        i += 1
        if time.perf_counter() >= t_end:
            return lat, refs


def run_traced(run: Run, seconds: float):
    import spans

    n = max(1, round(run.cls.nominal_ops_per_s * seconds * TRACE_SHARE))

    def timed_pass(fn) -> float:
        lat, refs = [], []
        for i in range(n):
            lat.append(run.op(fn, i))
            refs.append(reference())
        return sum(calibrate(lat, refs))

    plain = timed_pass(run.wl.run)
    rec = spans.SpanRecorder()
    with spans.traced(rec) as missing:
        traced = timed_pass(rec.wrap("op", run.wl.run))
    return n, plain, traced, rec, missing


def execute(name: str, seed: int, seconds: float, trace: int, import_s: float):
    """Run one workload; returns (result dict for the JSON line, details)."""
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    cls = WORKLOADS[name]
    run = Run(cls, seed)
    setup_raw_s, setup_ref_s = run.setup()
    setup_raw_s += import_s
    details = {"workload": name, "trace": trace, "seconds": seconds, "meta": metadata(seed)}
    if trace:
        n, plain, traced, rec, missing = run_traced(run, seconds)
        metrics = rec.metrics()
        metrics["trace_overhead_frac"] = (traced / plain - 1.0, "frac")
        spans_path = os.path.join(OUT_DIR, f"spans_{name}_seed{seed}.npz")
        rec.save(spans_path)
        details.update(ops_per_pass=n, untraced_s=plain, traced_s=traced, missing=missing, spans=spans_path)
    else:
        raw, refs = run_timed(run, seconds)
        lat = calibrate(raw, refs)
        tail_s, pct, beyond = tail(lat)
        metrics = {
            "setup_s": (setup_raw_s * REFERENCE_S / setup_ref_s, "s"),
            "throughput_per_s": (len(lat) * cls.items_per_op / sum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        details.update(
            ops=len(lat),
            throughput_item=f"{cls.item}/s",
            tail_percentile=pct,
            tail_samples_beyond=beyond,
            setup_import_s=import_s,
            reference_s=REFERENCE_S,
            reference_median_s=statistics.median(refs),
            raw_setup_s=setup_raw_s,
            raw_throughput_per_s=len(raw) * cls.items_per_op / sum(raw),
            raw_op_p50_ms=statistics.median(raw) * 1e3,
            raw_op_tail_ms=tail(raw)[0] * 1e3,
        )
    golden_ok, digest = run.golden()
    details.update(
        golden_ok=golden_ok,
        golden_digest=digest,
        failed_frac=run.failed / run.attempted,
    )
    result = {
        "correct": run.failed == 0 and golden_ok is not False,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result_{name}_seed{seed}_trace{trace}.json"), "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=2)
    return result, details


def report(result, details) -> None:
    for key, value in details.items():
        if key not in ("meta", "failed_frac"):
            print(f"# {key}: {value}")
    for key, value in details["meta"].items():
        print(f"# meta.{key}: {value}")
    print(f"# failed_frac: {details['failed_frac']} ({result['failed']} of {result['attempted']} operations)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")


def smoke(import_s: float) -> int:
    """Tiny run of every workload in both modes against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, details = execute(name, 0, 0.3, trace, import_s)
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                problems.append(f"{name} trace={trace}: {len(differ)} metrics differ, e.g. {differ[:5]}")
            if details["failed_frac"] != 0 or not result["correct"]:
                problems.append(f"{name} trace={trace}: failed_frac {details['failed_frac']}, golden {details['golden_ok']}")
            print(f"smoke {name} trace={trace}: {len(got)} metrics, {result['attempted']} operations")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    if args.smoke:
        return smoke(import_s)
    result, details = execute(args.workload, args.seed, args.seconds, args.trace, import_s)
    report(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
