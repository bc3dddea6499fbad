"""Post-SNR gain and error-accounting tests."""

import numpy as np
import pytest

from mzf.alphabet import make_alphabet, symbol_to_bits
from mzf.channel import generate_real_channel
from mzf.detect import MZFDetector
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

    @pytest.mark.parametrize(
        "snr_db", [4000.0, -4000.0, -3080.0, float("nan"), float("inf")]
    )
    def test_refuses_a_point_without_a_finite_density(self, snr_db):
        # 10**400 overflows, 10**-400 is 0, and 2 * 5 / 1e-308 is inf; an
        # infinite snr would give n0 = 0, the ZF limit
        with pytest.raises(ValueError, match=f"snr_db {snr_db} gives no finite noise density"):
            snr_to_n0(snr_db, make_alphabet(4))


def _bits(symbols, nbits):
    """The bits of an array of PAM symbols, on a trailing bit-layer axis."""
    return symbol_to_bits(np.asarray(symbols, dtype=float), nbits)


class TestBerAccumulator:
    def test_no_increment_on_match(self):
        acc = BerAccumulator(detectors=2, points=1, k=4, nbits=2)
        truth = _bits([[1, -1, 3, -3]], 2)
        acc.accumulate(truth, np.stack([truth, truth]))
        ber, ser, gain = acc.rates()
        assert not acc.symbol_errors.any() and not acc.bit_errors.any()
        assert not ber.any() and not ser.any() and not gain.any()
        assert acc.trials == 1

    def test_all_bits_flipped(self):
        acc = BerAccumulator(detectors=1, points=1, k=4, nbits=2)
        truth = _bits([[1, -1, 3, -3]], 2)
        acc.accumulate(truth, -truth[None])
        ber, ser, _ = acc.rates()
        assert int(np.sum(acc.bit_errors)) == 8
        assert acc.symbol_errors.tolist() == [[4]]
        assert ser.tolist() == [[1.0]] and ber.tolist() == [[[1.0, 1.0, 1.0]]]

    def test_counts_match_hand_hamming(self):
        rng = np.random.default_rng(1)
        alphabet = make_alphabet(16)
        acc = BerAccumulator(detectors=3, points=2, k=5, nbits=2)
        bit_errors = np.zeros((3, 2, 2), dtype=np.int64)
        symbol_errors = np.zeros((3, 2), dtype=np.int64)
        for _ in range(50):
            t = alphabet.points[rng.integers(0, 4, size=(2, 5))]
            r = alphabet.points[rng.integers(0, 4, size=(3, 2, 5))]
            acc.accumulate(_bits(t, 2), _bits(r, 2))
            for d, s in np.ndindex(3, 2):
                for ti, ri in zip(t[s].tolist(), r[d, s].tolist()):
                    flips = [a != b for a, b in zip(symbol_to_bits(int(ti), 2), symbol_to_bits(int(ri), 2))]
                    bit_errors[d, s] += flips
                    symbol_errors[d, s] += ti != ri
        assert np.array_equal(acc.bit_errors, bit_errors)
        assert np.array_equal(acc.symbol_errors, symbol_errors)
        ber, ser, _ = acc.rates()
        assert np.array_equal(ser, symbol_errors / 250)
        assert np.array_equal(ber[..., -1], bit_errors.sum(axis=-1) / 500)

    def test_merge_is_order_independent(self):
        rng = np.random.default_rng(2)
        alphabet = make_alphabet(4)
        whole = BerAccumulator(detectors=1, points=2, k=3, nbits=1)
        parts = []
        for _ in range(6):
            acc = BerAccumulator(detectors=1, points=2, k=3, nbits=1)
            t = _bits(alphabet.points[rng.integers(0, 2, size=(2, 3))], 1)
            r = _bits(alphabet.points[rng.integers(0, 2, size=(1, 2, 3))], 1)
            gains = detector_gains(MZFDetector(4).fit(generate_real_channel(rng, 3)))
            for cell in (acc, whole):
                cell.accumulate(t, r)
                cell.add_gains(0, slice(None), gains)
            parts.append(acc)
        forward = BerAccumulator(detectors=1, points=2, k=3, nbits=1)
        for part in parts:
            forward.merge(part)
        backward = BerAccumulator(detectors=1, points=2, k=3, nbits=1)
        for part in reversed(parts):
            backward.merge(part)
        for a, b, c in zip(forward.rates(), backward.rates(), whole.rates()):
            assert a.tobytes() == b.tobytes() == c.tobytes()
        assert whole.rates()[2].all()
        assert forward.trials == backward.trials == 6
        assert forward.gain_counts.tolist() == [[18, 18]]

    def test_shape_mismatch_raises(self):
        acc = BerAccumulator(detectors=1, points=1, k=2, nbits=1)
        t = _bits([[1, -1]], 1)
        with pytest.raises(ValueError):
            acc.accumulate(_bits([[1]], 1), t[None])
        with pytest.raises(ValueError):
            acc.accumulate(t, np.stack([t, t]))
        with pytest.raises(ValueError):
            acc.merge(BerAccumulator(detectors=1, points=1, k=3, nbits=1))
        with pytest.raises(ValueError):
            acc.merge(BerAccumulator(detectors=1, points=2, k=2, nbits=1))

    def test_per_layer_rates(self):
        acc = BerAccumulator(detectors=1, points=1, k=2, nbits=2)
        # 3 -> 1 and -3 -> -1 flip only the weight-1 bit
        acc.accumulate(_bits([[3, -3]], 2), _bits([[[1, -1]]], 2))
        ber, ser, _ = acc.rates()
        assert ber.tolist() == [[[1.0, 0.0, 0.5]]]
        assert ser.tolist() == [[1.0]]
