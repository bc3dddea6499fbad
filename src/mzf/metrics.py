"""Post-processing SNR gains and Monte Carlo error accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .alphabet import PamAlphabet
from .channel import NoiseSpec
from .detect import DetectionResult
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


@dataclass
class BerAccumulator:
    """Mergeable error counters for one (detector, SNR point) cell.

    Counts are exact integers, so merging is associative and commutative.
    Gain contributions are kept per trial and reduced in trial order with an
    exactly-rounded sum, so the reported mean does not depend on how trials
    were split across workers.
    """

    k: int
    nbits: int
    trials: int = 0
    symbol_errors: int = 0
    symbols_counted: int = 0
    bit_errors: np.ndarray = field(default=None)
    bits_counted: np.ndarray = field(default=None)
    gain_entries: list = field(default_factory=list)  # (trial, sum, count)

    def __post_init__(self):
        if self.bit_errors is None:
            self.bit_errors = np.zeros(self.nbits, dtype=np.int64)
        if self.bits_counted is None:
            self.bits_counted = np.zeros(self.nbits, dtype=np.int64)

    def accumulate(self, truth_symbols, truth_bits, result: DetectionResult) -> None:
        truth_symbols = np.asarray(truth_symbols)
        truth_bits = np.asarray(truth_bits)
        if truth_symbols.shape != result.symbols.shape or truth_bits.shape != result.bits.shape:
            raise ValueError("truth and result shapes do not match")
        self._add(
            1,
            int(np.sum(truth_symbols != result.symbols)),
            truth_symbols.size,
            np.sum(truth_bits != result.bits, axis=0),
            truth_bits.shape[0],
        )

    def _add(self, trials, symbol_errors, symbols_counted, bit_errors, bits_counted) -> None:
        """The one count update: add trials, symbol errors and symbols, and
        per-bit-layer errors and bits, to the cell."""
        self.trials += trials
        self.symbol_errors += symbol_errors
        self.symbols_counted += symbols_counted
        self.bit_errors += np.asarray(bit_errors, dtype=np.int64)
        self.bits_counted += bits_counted

    def add_gains(self, trial: int, gains: list[LayerGain]) -> None:
        if gains:
            self.gain_entries.append(
                (trial, math.fsum(g.gain_db for g in gains), len(gains))
            )

    def merge(self, other: "BerAccumulator") -> None:
        if (self.k, self.nbits) != (other.k, other.nbits):
            raise ValueError("accumulator shapes do not match")
        self._add(
            other.trials,
            other.symbol_errors,
            other.symbols_counted,
            other.bit_errors,
            other.bits_counted,
        )
        self.gain_entries.extend(other.gain_entries)

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.symbols_counted if self.symbols_counted else 0.0

    def ber_layer(self, bit_layer: int) -> float:
        j = bit_layer - 1
        return (
            self.bit_errors[j] / self.bits_counted[j] if self.bits_counted[j] else 0.0
        )

    @property
    def ber(self) -> float:
        total = int(np.sum(self.bits_counted))
        return int(np.sum(self.bit_errors)) / total if total else 0.0

    @property
    def mean_gain_db(self) -> float:
        total = sum(count for _, _, count in self.gain_entries)
        if not total:
            return 0.0
        # fsum rounds the exact sum, whatever the order of the entries
        return math.fsum(s for _, s, _ in self.gain_entries) / total
