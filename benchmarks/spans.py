"""Span tracing from outside the package.

Wrappers are installed on every module-level name (and class attribute)
through which a traced function is looked up, because the modules import
each other's functions by name: wrapping mzf.intsearch.solve_sd alone
would miss the calls detect makes through mzf.detect.solve_sd. Each call
records one span (name, start, end, parent) in flat in-memory arrays; the
spans are written out once, when the run ends. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# metric prefix -> (module, attribute path); the prefix names the module
# that defines the function, so one layer keeps one name wherever it is
# looked up
FUNCTIONS = {
    "simulate.run_experiment": ("mzf.simulate", "run_experiment"),
    "channel.generate_channel": ("mzf.channel", "generate_channel"),
    "channel.embed_complex": ("mzf.channel", "embed_complex"),
    "channel.pseudo_inverse": ("mzf.channel", "pseudo_inverse"),
    **{
        f"detect.{cls}.{method}": ("mzf.detect", f"{cls}.{method}")
        for cls in ("MZFDetector", "ZFDetector", "MLDetector")
        for method in ("fit", "detect", "predict")
    },
    "intsearch.lll_reduce": ("mzf.intsearch", "lll_reduce"),
    "intsearch.solve_sd": ("mzf.intsearch", "solve_sd"),
    "intsearch.solve_lll": ("mzf.intsearch", "solve_lll"),
    "alphabet.quantize_pam": ("mzf.alphabet", "quantize_pam"),
    "alphabet.symbol_to_bits": ("mzf.alphabet", "symbol_to_bits"),
    "alphabet.bits_to_symbol": ("mzf.alphabet", "bits_to_symbol"),
    "modarith.mod_recover": ("mzf.modarith", "mod_recover"),
    "metrics.detector_gains": ("mzf.metrics", "detector_gains"),
    "metrics.BerAccumulator.accumulate": ("mzf.metrics", "BerAccumulator.accumulate"),
}

# counters read off return values at the traced boundaries
COUNTS = (
    "intsearch.solve_sd.nodes_total",
    "intsearch.solve_sd.nodes_max",
    "intsearch.solve_sd.budget_hits",
    "detect.degenerate_plans",
    "detect.plans",
)


class SpanRecorder:
    """Flat, append-only span store. Span i has name names[name_id[i]],
    parent index parent[i] (-1 at the root) and [start[i], end[i]]."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = [-1]

    def wrap(self, name: str, fn, after=None):
        """fn recording one span per call under name, which must be new to
        this recorder; after(args, result) runs once the span has closed,
        so its cost stays outside the span."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_solve_sd(self, args, sol):
        c = self.counts
        c["intsearch.solve_sd.nodes_total"] += sol.nodes_visited
        c["intsearch.solve_sd.nodes_max"] = max(c["intsearch.solve_sd.nodes_max"], sol.nodes_visited)
        c["intsearch.solve_sd.budget_hits"] += not sol.exact

    def _after_mzf_fit(self, args, det):
        plans = [p for row in det.plans_ for p in row]
        self.counts["detect.plans"] += len(plans)
        self.counts["detect.degenerate_plans"] += sum(p.degenerate for p in plans)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive seconds, self seconds, calls)."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return {
            name: (float(total[i]), float(own[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        totals = self.totals()
        out = {}
        for name in FUNCTIONS:
            s, self_s, calls = totals.get(name, (0.0, 0.0, 0))
            out[f"{name}.s"] = (s, "s")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.calls"] = (calls, "count")
        c = self.counts
        plans = c["detect.plans"]
        out["detect.degenerate_frac"] = (c["detect.degenerate_plans"] / plans if plans else 0.0, "frac")
        for key in ("nodes_total", "nodes_max", "budget_hits"):
            out[f"intsearch.solve_sd.{key}"] = (c[f"intsearch.solve_sd.{key}"], "count")
        return out

    def save(self, path: str) -> None:
        start = np.asarray(self.start)
        t0 = start.min() if start.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=start - t0,
            end=np.asarray(self.end) - t0,
        )


def _resolve(module: str, path: str):
    """(owner, attribute, function) or None when the package lacks it."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Install span wrappers for every FUNCTIONS entry; yields the names the
    package does not have (they read as zero) and restores all on exit."""
    after = {
        "intsearch.solve_sd": recorder._after_solve_sd,
        "detect.MZFDetector.fit": recorder._after_mzf_fit,
    }
    restore = []
    missing = []
    package = [m for n, m in list(sys.modules.items()) if n == "mzf" or n.startswith("mzf.")]
    try:
        for name, (module, path) in FUNCTIONS.items():
            found = _resolve(module, path)
            if found is None:
                missing.append(name)
                continue
            owner, attr, fn = found
            wrapper = recorder.wrap(name, fn, after.get(name))
            if isinstance(owner, type):
                # a method: set it on this class only, so subclasses and the
                # base class keep their own spans (or none)
                restore.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        yield missing
    finally:
        for owner, attr, original in reversed(restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
