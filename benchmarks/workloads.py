"""The three benchmark workloads.

Each workload builds a pool of inputs from (stream, seed), runs one
operation per call of run(i), and checks that operation's output with
check(). Operation i always uses the same input, so any prefix of the
operation sequence is reproducible from the seed alone. The package only
ever sees the generated inputs; the seed never reaches it.

Class attributes shared by the workloads: item and items_per_op give the
unit of throughput; pool_size inputs are drawn at set-up and reused
cyclically; warm_ops operations on a separate stream warm up; golden_ops
and golden define the digest check; nominal_ops_per_s, the rate measured
on the unmodified package, sizes a traced run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from mzf import alphabet, channel, detect, metrics, simulate

# Criteria 04/05: no layer may lose SNR by more than rounding, and a
# degenerate layer must reproduce the plain equalizer exactly.
GAIN_FLOOR_DB = -1e-9

# Golden digests are defined at this seed over the first golden_ops
# operations of stream 0; they were made from the unmodified package and
# pin the criterion-11 byte-identity invariant.
GOLDEN_SEED = 0


class BerSweep:
    """`mzf ber` at the criterion-06 shape, one trial per operation."""

    name = "ber_sweep"
    item = "trials"
    items_per_op = 1
    pool_size = 2048
    warm_ops = 1
    golden_ops = 6
    nominal_ops_per_s = 25.0
    golden = "9abe8e5b12554fb1491290ca8cfdc3fc091c58b5faa01f9bbac75c68c760c918"

    SNR_DB = tuple(float(s) for s in range(16, 33))
    DETECTORS = ("zf", "mzf:sd", "mzf-ext2:sd", "mzf-ext3:sd", "ml")
    MODULATION = 16

    def __init__(self, seed: int, stream: int, out_dir: str, pool_size: int | None = None):
        base = simulate.SimConfig(
            modulation=self.MODULATION,
            kc=3,
            snr_db=self.SNR_DB,
            trials=1,
            detectors=self.DETECTORS,
            timing=False,
            workers=1,
        )
        n = pool_size or self.pool_size
        seeds = np.random.SeedSequence([stream, seed]).generate_state(n, np.uint64)
        self.configs = [dataclasses.replace(base, seed=int(s)) for s in seeds]
        self.csv_path = os.path.join(out_dir, f"{self.name}_digest.csv")
        self.labels = {simulate.parse_detector_spec(d).label for d in self.DETECTORS}
        self.n_rows = len(self.DETECTORS) * len(self.SNR_DB) * (alphabet.make_alphabet(self.MODULATION).nbits + 1)

    def run(self, i: int):
        return simulate.run_experiment(self.configs[i % len(self.configs)])

    def check(self, records) -> bool:
        if len(records) != self.n_rows or {r.detector for r in records} != self.labels:
            return False
        for r in records:
            if r.trials != 1 or r.wall_time_ms != 0:
                return False
            if not (0.0 <= r.ber <= 1.0 and 0.0 <= r.ser <= 1.0):
                return False
            modulus = r.detector.startswith("mzf")
            if r.mean_gain_db < GAIN_FLOOR_DB or (not modulus and r.mean_gain_db != 0.0):
                return False
        return True

    def digest(self, records) -> bytes:
        simulate.emit(records, "csv", self.csv_path)
        with open(self.csv_path, "rb") as fh:
            return fh.read()


class FitLadder:
    """Per-interval preprocessing alone: refit real KxK channels at three
    QAM orders, one fit (plus its gains) per operation."""

    name = "fit_ladder"
    item = "fits"
    items_per_op = 1
    pool_size = 512
    warm_ops = 3
    golden_ops = 9
    nominal_ops_per_s = 21.0
    golden = "ba5da5c84b975897e99fe7f26f216bc7d22c1af04c01bb80a7aba73448a9b30f"

    DIMS = (8, 12, 16)
    ORDERS = (4, 16, 64)

    def __init__(self, seed: int, stream: int, out_dir: str, pool_size: int | None = None):
        n = pool_size or self.pool_size
        self.channels = [
            channel.generate_real_channel(
                np.random.default_rng([stream, seed, c]), self.DIMS[c % len(self.DIMS)]
            )
            for c in range(n)
        ]

    def run(self, i: int):
        h = self.channels[(i // len(self.ORDERS)) % len(self.channels)]
        m = self.ORDERS[i % len(self.ORDERS)]
        det = detect.MZFDetector(modulation=m, solver="sd").fit(h)
        plans = [p for row in det.plans_ for p in row]
        return plans, metrics.detector_gains(det)

    def check(self, out) -> bool:
        plans, gains = out
        if not plans or len(plans) != len(gains):
            return False
        return all(
            g.gain_db >= GAIN_FLOOR_DB and (not p.degenerate or g.gain_db == 0.0)
            for p, g in zip(plans, gains)
        )

    def digest(self, out) -> bytes:
        plans, gains = out
        return b"".join(
            np.asarray(p.q, dtype=np.int64).tobytes() + repr(g.gain_db).encode()
            for p, g in zip(plans, gains)
        )


class BlockStream:
    """Fit once per coherence block, then predict a fixed block of
    observations; the first NOISELESS rows of every block carry no noise
    and must decode exactly (criterion 05)."""

    name = "block_stream"
    item = "observations"
    BLOCK = 256
    items_per_op = BLOCK
    pool_size = 256
    warm_ops = 3
    golden_ops = 6
    nominal_ops_per_s = 17.0
    golden = "a32f064c66e6f736ec09d9c0973974bba25746990ba0914563da99ce550816d4"

    KC = 4
    MODULATION = 16
    SNR_DB = 20.0
    NOISELESS = 8
    VARIANTS = ("plain", "bitwise", "feedback")

    def __init__(self, seed: int, stream: int, out_dir: str, pool_size: int | None = None):
        alph = alphabet.make_alphabet(self.MODULATION)
        self.points = alph.points.astype(float)
        n0 = metrics.snr_to_n0(self.SNR_DB, alph).n0
        k = 2 * self.KC
        self.blocks = []
        for b in range(pool_size or self.pool_size):
            rng = np.random.default_rng([stream, seed, b])
            x = self.points[rng.integers(0, alph.sqrt_m, size=(self.BLOCK, k))]
            noise = np.sqrt(n0 / 2.0) * rng.standard_normal((self.BLOCK, k))
            noise[: self.NOISELESS] = 0.0
            channel_seed = rng.integers(0, 2**63)
            self.blocks.append((channel_seed, x, noise))

    def run(self, i: int):
        channel_seed, x, noise = self.blocks[i % len(self.blocks)]
        variant = self.VARIANTS[i % len(self.VARIANTS)]
        h = channel.embed_complex(
            channel.generate_channel(np.random.default_rng(channel_seed), self.KC)
        )
        y = x @ h.T + noise
        det = detect.MZFDetector(modulation=self.MODULATION, variant=variant).fit(h)
        return x, det.predict(y)

    def check(self, out) -> bool:
        x, pred = out
        head = slice(0, self.NOISELESS)
        return (
            pred.shape == x.shape
            and bool(np.isin(pred, self.points).all())
            and np.array_equal(pred[head], x[head])
        )

    def digest(self, out) -> bytes:
        return np.asarray(out[1], dtype=float).tobytes()


WORKLOADS = {cls.name: cls for cls in (BerSweep, FitLadder, BlockStream)}


def golden_digest(parts) -> str:
    """Order-sensitive digest of the per-operation output bytes."""
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()
