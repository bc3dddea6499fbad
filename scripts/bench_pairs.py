"""Paired benchmark record of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --seeds 240-249 --seconds 40 --out BENCH_x.json \
        --title "what changed" --claim "ber_sweep throughput_per_s"

The parent (default HEAD) is exported with git archive into a temporary
directory, and the change is a copy of the working tree's tracked files
(git ls-files; stage new files first), so both sides run from trees of
their own with their own benchmarks/.  For every workload (default: all of
BENCHMARK.json) and every seed, one pair of `benchmarks/run.py --workload W
--seed S --seconds T --trace 0` runs, one process at a time, the side that
runs first alternating (parent first on the even-numbered pairs).  The
record holds, per workload and end-to-end metric of BENCHMARK.json, each
side's runs, median and quartiles (inclusive method), the pairs the change
wins in the metric's direction, the parent's quartile distance and a
verdict against the metric's bound, plus the failed and attempted
operations of each side and the line counts of src/mzf on both trees.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'240-249' or '3,5,8' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout


def export_parent(rev: str, dest: str) -> None:
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def copy_tracked(dest: str) -> None:
    for path in git("ls-files", "-z").split("\0"):
        src = os.path.join(ROOT, path)
        if path and os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, path)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, path))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in tree."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        cmd, cwd=tree, env=env, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(runs: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric: dict, results: dict) -> dict:
    """One metric's entry: both sides' runs and quartiles, the change's
    wins, the parent's quartile distance and the verdict on the bound."""
    name, lower = metric["name"], metric["better"] == "lower"
    entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    for side in SIDES:
        runs = [r["metrics"][name]["value"] for r in results[side]]
        q1, median, q3 = quartiles(runs)
        entry[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
    parent, change = entry["parent"], entry["change"]
    entry["change_wins"] = sum(
        (c < p) if lower else (c > p) for p, c in zip(parent["runs"], change["runs"])
    )
    ratio = change["median"] / parent["median"]
    entry["change_over_parent_median"] = ratio
    entry["parent_iqr"] = parent["q3"] - parent["q1"]
    entry["parent_iqr_over_median"] = entry["parent_iqr"] / parent["median"]
    worse = ratio > 1 + metric["bound"] if lower else ratio < 1 - metric["bound"]
    entry["verdict"] = "worse than bound" if worse else "within bound"
    return entry


def src_lines(tree: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "mzf", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def host() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}, 1 thread",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", default="HEAD", help="revision the change is measured against")
    p.add_argument("--seeds", required=True, help="one pair per seed, e.g. 240-249")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    p.add_argument("--out", required=True, help="JSON record to write")
    p.add_argument("--title", default="")
    p.add_argument("--claim", default="none")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    parent_rev = git("rev-parse", "--short", args.parent).strip()

    work = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        trees = {side: os.path.join(work, side) for side in SIDES}
        for tree in trees.values():
            os.makedirs(tree)
        export_parent(args.parent, trees["parent"])
        copy_tracked(trees["change"])
        record = {
            "title": args.title,
            "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
            "method": (
                "scripts/bench_pairs.py: paired runs of the parent (git archive) and the"
                " change (a copy of the working tree's tracked files), one pair per seed"
                " and workload, one process at a time, parent first on even-numbered pairs;"
                " medians and quartiles by the inclusive method; change_wins counts pairs"
                " the change wins in the metric's direction; parent_iqr is q3 - q1 of the"
                " parent's runs; verdict compares the medians against BENCHMARK.json's bound."
            ),
            "host": host(),
            "parent": parent_rev,
            "change": "the working tree's tracked files",
            "claim": args.claim,
            "workloads": {},
        }
        for workload in workloads:
            results = {side: [] for side in SIDES}
            first_side = {}
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first_side[str(seed)] = order[0]
                for side in order:
                    results[side].append(run_once(trees[side], workload, seed, args.seconds))
                    tput = results[side][-1]["metrics"]["throughput_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: {tput:.1f}/s", file=sys.stderr)
            record["workloads"][workload] = {
                "pairs": len(seeds),
                "seeds": seeds,
                "first_side": first_side,
                "failed_ops": {s: sum(r["failed"] for r in results[s]) for s in SIDES},
                "attempted_ops": {s: sum(r["attempted"] for r in results[s]) for s in SIDES},
                "correct": {s: all(r["correct"] for r in results[s]) for s in SIDES},
                "metrics": {m["name"]: summarize(m, results) for m in bench["end_to_end"]},
            }
        record["src_lines"] = {
            "command": "wc -l src/mzf/*.py | tail -1",
            **{side: src_lines(tree) for side, tree in trees.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
