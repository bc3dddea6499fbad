"""Post-SNR gain and error-accounting tests."""

import numpy as np
import pytest

from mzf.alphabet import make_alphabet, symbol_to_bits
from mzf.channel import generate_real_channel
from mzf.detect import DetectionResult, MZFDetector
from mzf.metrics import BerAccumulator, detector_gains, snr_to_n0

H_REF = np.array(
    [[-6, 0, -1, 5], [-3, -2, -1, 1], [1, -5, -6, 0], [1, -1, -3, -2]], dtype=float
)


class TestPostSnr:
    def test_reference_layer_two(self):
        det = MZFDetector(modulation=4, solver="sd").fit(H_REF)
        gain = detector_gains(det, snr_linear=1.0)[1]
        assert gain.gamma_zf == pytest.approx(185 / 47, abs=1e-9)
        assert gain.gamma_mzf == pytest.approx(185 / 27, abs=1e-9)
        assert gain.gain_db == pytest.approx(10 * np.log10(47 / 27), abs=1e-9)

    def test_degenerate_layer_gain_is_exactly_zero(self):
        det = MZFDetector(modulation=4, solver="sd").fit(H_REF)
        gain = detector_gains(det, snr_linear=2.0)[0]
        assert gain.gamma_mzf == gain.gamma_zf
        assert gain.gain_db == 0.0

    def test_dominance_over_random_channels(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            det = MZFDetector(modulation=16, solver="sd").fit(generate_real_channel(rng, 6))
            for g in detector_gains(det, snr_linear=3.0):
                assert g.gamma_mzf >= g.gamma_zf - 1e-9

    def test_snr_scales_both_gammas(self):
        det = MZFDetector(modulation=4, solver="sd").fit(H_REF)
        g1 = detector_gains(det, 1.0)[1]
        g2 = detector_gains(det, 10.0)[1]
        assert g2.gamma_zf == pytest.approx(10 * g1.gamma_zf)
        assert g2.gain_db == pytest.approx(g1.gain_db)


class TestSnrToN0:
    def test_order_4_at_zero_db(self):
        assert snr_to_n0(0.0, make_alphabet(4)).n0 == pytest.approx(2.0)

    def test_order_16_at_ten_db(self):
        assert snr_to_n0(10.0, make_alphabet(16)).n0 == pytest.approx(1.0)

    def test_vanishes_at_high_snr(self):
        assert snr_to_n0(120.0, make_alphabet(64)).n0 < 1e-10


def _result(symbols, nbits):
    symbols = np.asarray(symbols, dtype=float)
    bits = np.stack([symbol_to_bits(int(s), nbits) for s in symbols])
    return DetectionResult(symbols=symbols, bits=bits, layer_z=symbols)


class TestBerAccumulator:
    def test_no_increment_on_match(self):
        acc = BerAccumulator(k=4, nbits=2)
        truth = _result([1, -1, 3, -3], 2)
        acc.accumulate(truth.symbols, truth.bits, truth)
        assert acc.symbol_errors == 0
        assert acc.ber == 0.0
        assert acc.trials == 1

    def test_all_bits_flipped(self):
        acc = BerAccumulator(k=4, nbits=2)
        truth = _result([1, -1, 3, -3], 2)
        flipped = DetectionResult(
            symbols=-truth.symbols, bits=-truth.bits, layer_z=truth.layer_z
        )
        acc.accumulate(truth.symbols, truth.bits, flipped)
        assert int(np.sum(acc.bit_errors)) == 8
        assert acc.symbol_errors == 4
        assert acc.ser == 1.0

    def test_counts_match_hand_hamming(self):
        rng = np.random.default_rng(1)
        alphabet = make_alphabet(16)
        acc = BerAccumulator(k=5, nbits=2)
        total = 0
        for _ in range(50):
            t = _result(alphabet.points[rng.integers(0, 4, size=5)], 2)
            r = _result(alphabet.points[rng.integers(0, 4, size=5)], 2)
            acc.accumulate(t.symbols, t.bits, r)
            total += int(np.sum(t.bits != r.bits))
        assert int(np.sum(acc.bit_errors)) == total

    def test_merge_is_order_independent(self):
        rng = np.random.default_rng(2)
        alphabet = make_alphabet(4)
        cells = []
        for trial in range(6):
            acc = BerAccumulator(k=3, nbits=1)
            t = _result(alphabet.points[rng.integers(0, 2, size=3)], 1)
            r = _result(alphabet.points[rng.integers(0, 2, size=3)], 1)
            acc.accumulate(t.symbols, t.bits, r)
            acc.add_gains(trial, detector_gains(MZFDetector(4).fit(generate_real_channel(rng, 3))))
            cells.append(acc)
        froward = BerAccumulator(k=3, nbits=1)
        for c in cells:
            froward.merge(c)
        backward = BerAccumulator(k=3, nbits=1)
        for c in reversed(cells):
            backward.merge(c)
        assert froward.ber == backward.ber
        assert froward.mean_gain_db == backward.mean_gain_db
        assert froward.trials == backward.trials

    def test_shape_mismatch_raises(self):
        acc = BerAccumulator(k=2, nbits=1)
        t = _result([1, -1], 1)
        with pytest.raises(ValueError):
            acc.accumulate(np.array([1.0]), t.bits, t)
        with pytest.raises(ValueError):
            acc.merge(BerAccumulator(k=3, nbits=1))

    def test_per_layer_rates(self):
        acc = BerAccumulator(k=2, nbits=2)
        truth = _result([3, -3], 2)
        wrong_low = DetectionResult(
            symbols=np.array([1.0, -1.0]),
            bits=np.stack([symbol_to_bits(1, 2), symbol_to_bits(-1, 2)]),
            layer_z=np.zeros(2),
        )
        acc.accumulate(truth.symbols, truth.bits, wrong_low)
        # 3 -> 1 and -3 -> -1 flip only the weight-1 bit
        assert acc.ber_layer(1) == 1.0
        assert acc.ber_layer(2) == 0.0
        assert acc.ber == 0.5
