"""Monte Carlo experiment runner with deterministic per-trial substreams.

Trial i of an experiment draws everything from default_rng([seed, i]), so
results are reproducible bit for bit regardless of how trials are split
across worker processes.  Within a trial all detectors see the same channel,
symbols, and noise, which pairs the comparison and removes common randomness
from detector-vs-detector gaps.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .alphabet import make_alphabet, symbol_to_bits
from .channel import embed_complex, generate_channel, generate_real_channel
from .detect import (
    EQUALIZERS,
    LAR_MODES,
    NOISE_WEIGHTINGS,
    PARITY_MODES,
    SOLVERS,
    LARDetector,
    LMMSEDetector,
    MLDetector,
    MZFDetector,
    ZFDetector,
    _check_choice,
)
from .intsearch import check_count
from .metrics import BerAccumulator, _gain_rows, detector_gains, snr_to_n0
from .rowwise import apply

MZF_KIND_VARIANTS = {
    "mzf": "plain",
    "mzf-ext1": "scaled-alpha",
    "mzf-ext2": "bitwise",
    "mzf-ext3": "feedback",
}
DETECTOR_KINDS = ("zf", "lmmse", "ml", "lar", *MZF_KIND_VARIANTS)


@dataclass(frozen=True)
class DetectorSpec:
    """Parsed form of a detector id string 'kind[+equalizer][:solver]'."""

    kind: str
    equalizer: str = "zf"
    solver: str = "sd"

    @property
    def label(self) -> str:
        label = self.kind
        if self.equalizer != "zf":
            label += f"+{self.equalizer}"
        if self.kind in MZF_KIND_VARIANTS:
            label += f":{self.solver}"
        return label


@lru_cache
def parse_detector_spec(text: str) -> DetectorSpec:
    """The spec of a detector id; memoized, so a run parses each id once (a
    bad id raises, and nothing is stored for it)."""
    body, solver_suffix, solver = text.partition(":")
    kind, _, equalizer = body.partition("+")
    kind = kind.strip().lower()
    if kind not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector kind {kind!r}; choose from {DETECTOR_KINDS}")
    equalizer = equalizer.strip().lower() or "zf"
    solver = solver.strip().lower() or "sd"
    if equalizer not in EQUALIZERS:
        raise ValueError(f"unknown equalizer {equalizer!r} in {text!r}")
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r} in {text!r}")
    if kind not in MZF_KIND_VARIANTS and equalizer != "zf":
        raise ValueError(f"detector {kind!r} takes no equalizer suffix")
    if kind not in MZF_KIND_VARIANTS and solver_suffix:
        raise ValueError(f"detector {kind!r} takes no solver suffix")
    return DetectorSpec(kind=kind, equalizer=equalizer, solver=solver)


@dataclass(frozen=True)
class SimConfig:
    """Everything one experiment run depends on."""

    modulation: int = 4
    kc: int | None = None          # complex antennas; real dimension is 2 kc
    k_real: int | None = None      # unstructured real channel dimension
    snr_db: tuple = (10.0,)
    trials: int = 1000
    detectors: tuple = ("zf", "mzf:sd")
    seed: int = 0
    lll_delta: float = 0.75
    sd_budget: int = 10**6
    brute_bound: int = 8
    parity_mode: str = "derived"
    lar_mode: str = "shifted"
    noise_weighting: str = "printed"
    timing: bool = True
    workers: int = 1

    def validate(self) -> None:
        check_count(self.trials, "trials", 1)
        if not self.snr_db:
            raise ValueError("snr_db must not be empty")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if (self.kc is None) == (self.k_real is None):
            raise ValueError("exactly one of kc and k_real must be set")
        if self.kc is not None:
            check_count(self.kc, "kc", 1)
        if self.k_real is not None:
            check_count(self.k_real, "k_real", 1)
        if not self.detectors:
            raise ValueError("detectors must not be empty")
        check_count(self.workers, "workers", 1)
        check_count(self.seed, "seed", 0)
        make_alphabet(self.modulation)  # raises on an order not an integer power of 4
        _check_choice("parity_mode", self.parity_mode, PARITY_MODES)
        _check_choice("lar_mode", self.lar_mode, LAR_MODES)
        _check_choice("noise_weighting", self.noise_weighting, NOISE_WEIGHTINGS)
        # the detectors check their own options; the modulus and LAR kinds
        # are always asked, so an option no listed detector reads is checked
        specs = [parse_detector_spec(s) for s in self.detectors]
        for spec in specs + [DetectorSpec("mzf"), DetectorSpec("lar")]:
            build_detector(spec, self)._validate_params()


class SimRecord(NamedTuple):
    detector: str
    snr_db: float
    bit_layer: str  # "1", "2", ... or "all"
    ber: float
    ser: float
    mean_gain_db: float
    trials: int
    wall_time_ms: int


CSV_COLUMNS = SimRecord._fields


def build_detector(spec: DetectorSpec, cfg: SimConfig):
    if spec.kind == "zf":
        return ZFDetector(modulation=cfg.modulation)
    if spec.kind == "lmmse":
        return LMMSEDetector(modulation=cfg.modulation)
    if spec.kind == "ml":
        return MLDetector(modulation=cfg.modulation)
    if spec.kind == "lar":
        return LARDetector(modulation=cfg.modulation, delta=cfg.lll_delta, mode=cfg.lar_mode)
    return MZFDetector(
        modulation=cfg.modulation,
        variant=MZF_KIND_VARIANTS[spec.kind],
        solver=spec.solver,
        equalizer=spec.equalizer,
        parity=cfg.parity_mode,
        sd_budget=cfg.sd_budget,
        brute_bound=cfg.brute_bound,
        lll_delta=cfg.lll_delta,
        noise_weighting=cfg.noise_weighting,
    )


def _noise_dependent(spec: DetectorSpec) -> bool:
    return spec.kind == "lmmse" or spec.equalizer == "lmmse"


def _dimension(cfg: SimConfig) -> int:
    """Real dimension K of the channels: symbols per observation."""
    return 2 * cfg.kc if cfg.kc is not None else cfg.k_real


def _trial_channel(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.kc is not None:
        return embed_complex(generate_channel(rng, cfg.kc))
    return generate_real_channel(rng, cfg.k_real)


def _count_exhausted(det, spec: DetectorSpec) -> int:
    """(stage, layer) sphere searches that ran out of budget (approximate fallback)."""
    if spec.solver != "sd" or not isinstance(det, MZFDetector):
        return 0
    return int(np.count_nonzero(~det.exact_))


def _fit_plan(spec: DetectorSpec, n0s: list) -> list:
    """(n0 of the fit, slice of the SNR points detected on it) for each fit
    a trial makes of the detector: one per point if the fit needs n0, else
    one at n0 = 0 for every point.  Indexing by a slice is basic indexing,
    so it makes views, not copies."""
    if _noise_dependent(spec):
        return [(n0, slice(s_idx, s_idx + 1)) for s_idx, n0 in enumerate(n0s)]
    return [(0.0, slice(None))]


def _run_trials(cfg: SimConfig, trial_indices) -> BerAccumulator:
    """Process a batch of trials; returns their BerAccumulator over
    (detector, snr): error counts, gain sums, wall times in ns and the
    number of budget-exhausted sphere searches.

    The detectors and their fit plans are made once per run.  A trial
    draws the symbols and noise of every SNR point first and forms all
    observations at once, then each detector fitted once per trial detects
    all of them in one predict_bits call; a detector whose fit needs n0 is
    fitted and called once per point.  Every detector's bits go into one
    (detector, point, K, nbits) array, and the errors of all detectors are
    counted once per trial from it; only the transmitted symbols are
    mapped to bits here.
    """
    specs = [parse_detector_spec(s) for s in cfg.detectors]
    alphabet = make_alphabet(cfg.modulation)
    nbits = alphabet.nbits
    n0s = [snr_to_n0(s, alphabet).n0 for s in cfg.snr_db]
    sigmas = np.sqrt(np.array(n0s) / 2.0)[:, None]
    n_det, n_snr, k = len(specs), len(n0s), _dimension(cfg)
    detectors = [build_detector(spec, cfg) for spec in specs]
    plans = [_fit_plan(spec, n0s) for spec in specs]
    acc = BerAccumulator(n_det, n_snr, k, nbits)
    # every entry is rewritten in each trial
    bits = np.empty((n_det, n_snr, k, nbits), dtype=np.int64)

    for trial in trial_indices:
        rng = np.random.default_rng([cfg.seed, trial])
        h = _trial_channel(cfg, rng)
        x, noise = _draw(rng, alphabet, n_snr, h.shape[1], h.shape[0])
        y = apply(h, x) + sigmas * noise

        for d_idx, (spec, det, fits) in enumerate(zip(specs, detectors, plans)):
            for n0, points in fits:
                wall_ns = acc.wall_ns[d_idx, points]  # a view: += adds to the cells
                t0 = time.perf_counter_ns()
                det.fit(h, n0=n0)
                gains = _gain_rows(det) if isinstance(det, MZFDetector) else []
                acc.exhausted += _count_exhausted(det, spec)
                bits[d_idx, points] = det.predict_bits(y[points])
                wall_ns += (time.perf_counter_ns() - t0) // wall_ns.size
                acc.add_gains(d_idx, points, gains)
        acc.accumulate(symbol_to_bits(x, nbits), bits)
    return acc


def _draw(rng, alphabet, points: int, k: int, n: int) -> tuple:
    """The symbols (points x k) and unit noise (points x n) of one trial:
    per SNR point the draws of random_symbols(rng, alphabet, k), then of
    rng.standard_normal(n), in that order, written into one index block and
    one noise block; the symbols are looked up once."""
    idx = np.empty((points, k), dtype=np.int64)
    noise = np.empty((points, n))
    for idx_row, noise_row in zip(idx, noise):
        idx_row[:] = rng.integers(0, alphabet.sqrt_m, size=k)
        rng.standard_normal(out=noise_row)
    return alphabet.points[idx].astype(float), noise


def _worker_count(cfg: SimConfig) -> int:
    cap = os.environ.get("MZF_THREADS")
    workers = cfg.workers
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise ValueError(f"MZF_THREADS must be an integer, got {cap!r}") from None
        workers = min(workers, max(1, limit))
    return min(workers, cfg.trials)


def _pool_context():
    # fork keeps workers usable from any parent (no __main__ re-import) and
    # is cheaper; fall back to spawn where fork does not exist
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _chunks(n_trials: int, n_chunks: int) -> list[list[int]]:
    return [list(range(i, n_trials, n_chunks)) for i in range(n_chunks)]


def _map_trials(run, cfg: SimConfig) -> list:
    """Validate cfg and return run(cfg, trial_indices) over all its trials:
    one part in this process, or one per worker process, in chunk order."""
    cfg.validate()
    workers = _worker_count(cfg)
    if workers == 1:
        return [run(cfg, range(cfg.trials))]
    with _pool_context().Pool(workers) as pool:
        return pool.starmap(run, [(cfg, chunk) for chunk in _chunks(cfg.trials, workers)])


def run_experiment(cfg: SimConfig) -> list[SimRecord]:
    """Run the configured sweep and return one record per
    (detector, SNR point, bit layer) plus an aggregate "all" row each.

    The records are built from one list per field, every entry a Python
    str, float or int (what _fmt and emit format), zipped row by row into
    SimRecord tuples."""
    acc, *parts = _map_trials(_run_trials, cfg)
    # counts are exact integers and every gain sum is kept, so the totals do
    # not depend on how the trials were split
    for part in parts:
        acc.merge(part)
    if acc.exhausted:
        print(
            f"warning: {acc.exhausted} sphere searches hit the node budget and "
            "returned approximate perturbations",
            file=sys.stderr,
        )

    ber, ser, gains = acc.rates()
    n_det, n_snr, per_cell = ber.shape  # one row per bit layer and an "all" row
    bers = ber.ravel().tolist()
    ms = acc.wall_ns // 1_000_000 if cfg.timing else np.zeros_like(acc.wall_ns)
    labels = [parse_detector_spec(d).label for d in cfg.detectors]
    snrs = [float(snr) for snr in cfg.snr_db]
    bit_layers = [str(j) for j in range(1, per_cell)] + ["all"]
    # one list of Python scalars per field, row-major over (detector, SNR
    # point, bit layer); tuple.__new__ is what SimRecord._make runs, without
    # a Python frame per record
    columns = (
        [label for label in labels for _ in range(n_snr * per_cell)],
        [snr for snr in snrs for _ in range(per_cell)] * n_det,
        bit_layers * (n_det * n_snr),
        bers,
        np.repeat(ser, per_cell).tolist(),
        np.repeat(gains, per_cell).tolist(),
        [cfg.trials] * len(bers),
        np.repeat(ms, per_cell).tolist(),
    )
    return list(map(partial(tuple.__new__, SimRecord), zip(*columns)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # builtin repr: shortest exact decimal
    return str(value)


def emit(records: list, fmt: str, path: str) -> None:
    """Write SimRecords or GainSamples as CSV (header the record's fields,
    LF endings) or JSON."""
    if not records:
        raise ValueError("nothing to emit")
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(records[0]._fields)
            for rec in records:
                writer.writerow([_fmt(v) for v in rec])
    elif fmt == "json":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump([rec._asdict() for rec in records], fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


class GainSample(NamedTuple):
    trial: int
    layer: int
    gain_db: float


def _gain_spec(cfg: SimConfig) -> DetectorSpec:
    """The modulus detector a gain experiment samples: the first one listed."""
    for spec in map(parse_detector_spec, cfg.detectors):
        if spec.kind in MZF_KIND_VARIANTS:
            return spec
    raise ValueError("gain experiments need a modulus detector in the list")


def _gain_trials(cfg: SimConfig, trial_indices) -> list[GainSample]:
    spec = _gain_spec(cfg)
    samples = []
    for trial in trial_indices:
        rng = np.random.default_rng([cfg.seed, trial])
        h = _trial_channel(cfg, rng)
        det = build_detector(spec, cfg).fit(h)
        for g in detector_gains(det):
            samples.append(GainSample(trial=trial, layer=g.layer, gain_db=g.gain_db))
    return samples


def run_gain_experiment(cfg: SimConfig) -> list[GainSample]:
    """Per-layer post-processing SNR gain samples over random channels."""
    samples = [s for part in _map_trials(_gain_trials, cfg) for s in part]
    samples.sort(key=lambda s: (s.trial, s.layer))
    return samples

