"""Post-processing SNR gains and Monte Carlo error accounting.

detector_gains reads the per-layer gains off a fitted modulus detector;
BerAccumulator is the harness's one count of errors and gains per
(detector, SNR point) cell, which run_experiment merges over workers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .alphabet import PamAlphabet
from .channel import NoiseSpec
from .rowwise import dots


class LayerGain(NamedTuple):
    """Post-processing SNR of one layer, before and after perturbation."""

    layer: int
    gamma_zf: float
    gamma_mzf: float
    gain_db: float


def detector_gains(detector, snr_linear: float = 1.0) -> list[LayerGain]:
    """Gains of a fitted MZFDetector, read off its hplus_, tau_, comb_ and
    degenerate_ arrays; layer by layer and, within a layer, stage by stage.

    The plain-equalizer value is snr / ||delta_k Hplus||^2; the perturbed one
    is tau^2 snr / ||combining_row||^2.  Degenerate layers reuse the plain
    row, so their gain is exactly zero.
    """
    return list(map(LayerGain._make, _gain_rows(detector, snr_linear)))


def _gain_rows(detector, snr_linear: float = 1.0) -> list[tuple]:
    """The (layer, gamma_zf, gamma_mzf, gain_db) of every LayerGain of
    detector_gains, as plain tuples in its order."""
    hplus, comb = detector.hplus_, detector.comb_
    gamma_zf = (snr_linear / dots(hplus, hplus)).tolist()
    gamma_mzf = (detector.tau_[:, None] ** 2 * snr_linear / dots(comb, comb)).T.tolist()
    degenerate = detector.degenerate_.T.tolist()
    return [
        (layer, zf, zf, 0.0) if degen
        # math.log10, not np.log10: the two round some ratios an ulp apart
        else (layer, zf, mzf, 10.0 * math.log10(mzf / zf))
        for layer, (zf, mzf_row, degen_row) in enumerate(zip(gamma_zf, gamma_mzf, degenerate))
        for mzf, degen in zip(mzf_row, degen_row)
    ]


def snr_to_n0(snr_db: float, alphabet: PamAlphabet) -> NoiseSpec:
    """Noise density for a target SNR in dB: n0 = 2 E[|x|^2] / snr."""
    return NoiseSpec(2.0 * alphabet.energy / 10.0 ** (snr_db / 10.0))


class BerAccumulator:
    """Exact, mergeable Monte Carlo counts over (detector, SNR point) cells.

    Symbol and bit errors are integer arrays, bit errors per bit layer on a
    trailing axis, so merging worker parts is associative and commutative.
    Each cell keeps every trial's exactly rounded gain sum, and the mean
    gain is their fsum over their count, so it does not depend on how the
    trials were split either.  wall_ns (detection time per cell) and
    exhausted (sphere searches that hit their node budget) are tallied
    alongside and merged the same way.
    """

    def __init__(self, detectors: int, points: int, k: int, nbits: int):
        self.k = k
        self.trials = 0
        self.exhausted = 0
        cells = (detectors, points)
        self.symbol_errors = np.zeros(cells, dtype=np.int64)
        self.bit_errors = np.zeros((*cells, nbits), dtype=np.int64)
        self.gain_counts = np.zeros(cells, dtype=np.int64)
        self.wall_ns = np.zeros(cells, dtype=np.int64)
        self.gain_sums = [[[] for _ in range(points)] for _ in range(detectors)]

    def accumulate(self, truth_bits, bits) -> None:
        """Count one trial: truth_bits is (points, K, nbits), bits the
        (detectors, points, K, nbits) decisions.  The bit map is one to
        one, so a symbol is in error exactly when one of its bits is."""
        detectors, points, nbits = self.bit_errors.shape
        if bits.shape != (detectors, points, self.k, nbits) or truth_bits.shape != bits.shape[1:]:
            raise ValueError("truth and decision shapes do not match the accumulator")
        wrong = bits != truth_bits
        self.symbol_errors += np.sum(wrong.any(axis=-1), axis=2)
        self.bit_errors += np.sum(wrong, axis=2)
        self.trials += 1

    def add_gains(self, detector: int, points, gains) -> None:
        """Add one fit's layer gains (LayerGain rows, or the tuples of
        _gain_rows) to the cells of detector at points, a slice."""
        if gains:
            total = math.fsum(gain[3] for gain in gains)
            for sums in self.gain_sums[detector][points]:
                sums.append(total)
            self.gain_counts[detector, points] += len(gains)

    def merge(self, other: "BerAccumulator") -> None:
        """Add the counts of other, an accumulator of the same cells."""
        if (self.k, self.bit_errors.shape) != (other.k, other.bit_errors.shape):
            raise ValueError("accumulator shapes do not match")
        self.trials += other.trials
        self.exhausted += other.exhausted
        self.symbol_errors += other.symbol_errors
        self.bit_errors += other.bit_errors
        self.gain_counts += other.gain_counts
        self.wall_ns += other.wall_ns
        for mine, theirs in zip(self.gain_sums, other.gain_sums):
            for sums, more in zip(mine, theirs):
                sums.extend(more)

    def rates(self) -> tuple:
        """(ber, ser, mean_gain_db) per cell; ber has a trailing axis of
        nbits + 1, each bit layer and then all bits.  Every rate divides two
        integers below 2**53 in float64, the exact quotient correctly
        rounded, and fsum rounds the exact sum of the gain sums in any
        order."""
        counted = self.trials * self.k
        nbits = self.bit_errors.shape[-1]
        ber = np.concatenate(
            [
                self.bit_errors / counted,
                self.bit_errors.sum(axis=-1, keepdims=True) / (nbits * counted),
            ],
            axis=-1,
        )
        sums = [cell for row in self.gain_sums for cell in row]
        gains = [
            math.fsum(cell) / count if count else 0.0
            for cell, count in zip(sums, self.gain_counts.ravel().tolist())
        ]
        return ber, self.symbol_errors / counted, np.reshape(gains, self.gain_counts.shape)
