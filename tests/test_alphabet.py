"""Constellation, quantizer, and bit-map tests."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mzf.alphabet import (
    bits_to_symbol,
    make_alphabet,
    quantize_even_int,
    quantize_int,
    quantize_pam,
    random_symbols,
    symbol_to_bits,
)


class TestMakeAlphabet:
    def test_order_4(self):
        a = make_alphabet(4)
        assert a.points.tolist() == [-1, 1]
        assert a.tau == 1.0
        assert a.energy == 1.0
        assert a.nbits == 1

    def test_order_16(self):
        a = make_alphabet(16)
        assert a.points.tolist() == [-3, -1, 1, 3]
        assert a.tau == 0.5
        assert a.energy == 5.0

    def test_order_64(self):
        a = make_alphabet(64)
        assert a.points.tolist() == [-7, -5, -3, -1, 1, 3, 5, 7]
        assert a.tau == 0.25

    @pytest.mark.parametrize("bad", [0, 2, 8, 32, 100, -4])
    def test_rejects_non_power_of_four(self, bad):
        with pytest.raises(ValueError):
            make_alphabet(bad)

    @pytest.mark.parametrize("bad", [16.0, 4.0, True, "16"])
    def test_rejects_non_integer_order(self, bad):
        # the alphabets are kept per order, so 16.0 must not reach the key
        with pytest.raises(ValueError, match="modulation must be an integer, got"):
            make_alphabet(bad)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_one_shared_read_only_alphabet_per_order(self, m):
        a = make_alphabet(m)
        assert make_alphabet(m) is a
        assert make_alphabet(np.int64(m)) is a
        assert type(a.m) is int
        for arr in (a.points, a.tie_order):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("m", [4, 16, 64, 256, 1024, 4096])
    def test_scale_rule_exact(self, m):
        # distance from 2 to the largest scaled point equals half the point
        # spacing: tau * (sqrt(m) - 1) == 2 - tau, checked in exact arithmetic
        a = make_alphabet(m)
        tau = Fraction(2, a.sqrt_m)
        assert float(tau) == a.tau
        assert tau * (a.sqrt_m - 1) == 2 - tau
        assert tau * (a.sqrt_m - 1) < 2

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_point_moments(self, m):
        a = make_alphabet(m)
        assert len(a.points) == a.sqrt_m
        assert np.sum(a.points) == 0
        assert np.mean(a.points.astype(float) ** 2) == pytest.approx(a.energy)
        assert set(-a.points) == set(a.points)


class TestQuantizePam:
    def test_reference_layer_values(self):
        a = make_alphabet(4)
        assert quantize_pam(-0.2216, a) == -1.0
        assert quantize_pam(1.9297, a) == 1.0

    def test_tie_goes_to_negative_of_smallest_magnitude(self):
        a = make_alphabet(16)
        assert quantize_pam(0.0, a, scale=0.5) == -0.5

    def test_tie_goes_to_smaller_magnitude(self):
        a = make_alphabet(16)
        assert quantize_pam(2.0, a) == 1.0
        assert quantize_pam(-2.0, a) == -1.0

    @pytest.mark.parametrize("m,scale", [(4, 1.0), (16, 0.5), (64, 0.25)])
    def test_fixed_points(self, m, scale):
        a = make_alphabet(m)
        for p in a.points:
            assert quantize_pam(p * scale, a, scale=scale) == p * scale

    def test_clips_out_of_range(self):
        a = make_alphabet(16)
        assert quantize_pam(100.0, a) == 3.0
        assert quantize_pam(-100.0, a) == -3.0

    @pytest.mark.parametrize("big", [1e16, 1e17, 1e300, np.inf])
    def test_huge_inputs_go_to_the_outer_points(self, big):
        # an unclipped distance table loses its resolution near 1e17 and
        # sends the value to the tie rule's first point, -1
        a = make_alphabet(16)
        assert quantize_pam(big, a) == 3.0
        assert quantize_pam(-big, a) == -3.0
        assert quantize_pam(np.array([big, -big]), a, scale=0.5).tolist() == [1.5, -1.5]

    @pytest.mark.parametrize("m,scale", [(4, 1.0), (16, 0.5), (64, 0.25), (256, 3.0)])
    def test_in_range_bytes_unchanged_by_the_clip(self, m, scale):
        # within the outer points the clip passes v through, so the result
        # is that of the plain distance table, midpoints included
        a = make_alphabet(m)
        edge = scale * (a.sqrt_m - 1)
        rng = np.random.default_rng(m)
        v = np.concatenate([rng.uniform(-edge, edge, 2000), scale * np.arange(-a.sqrt_m + 1, a.sqrt_m)])
        pts = scale * a.tie_order
        want = pts[np.argmin(np.abs(v[:, None] - pts), axis=-1)]
        assert quantize_pam(v, a, scale=scale).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,scale", [(4, 1.0), (16, 0.5), (64, 0.25), (256, 3.0)])
    def test_clip_gives_the_bytes_of_np_clip(self, m, scale):
        a = make_alphabet(m)
        edge = scale * (a.sqrt_m - 1)
        rng = np.random.default_rng(m + 1)
        v = np.concatenate([
            rng.uniform(-2 * edge, 2 * edge, 2000),
            [0.0, -0.0, np.inf, -np.inf, edge, -edge, np.nextafter(edge, np.inf)],
        ])
        pts = scale * a.tie_order
        want = pts[np.argmin(np.abs(np.clip(v, -edge, edge)[:, None] - pts), axis=-1)]
        assert quantize_pam(v, a, scale=scale).tobytes() == want.tobytes()
        for value, expected in zip(v[-7:].tolist(), want[-7:].tolist()):
            got = quantize_pam(value, a, scale=scale)
            assert type(got) is float and got == expected

    def test_vectorized(self):
        a = make_alphabet(4)
        out = quantize_pam(np.array([-0.2, 0.9, -3.0]), a)
        assert out.tolist() == [-1.0, 1.0, -1.0]

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            quantize_pam(0.3, make_alphabet(4), scale=0.0)


class TestIntegerQuantizers:
    def test_nearest_int(self):
        assert quantize_int(1.4) == 1
        assert quantize_int(-3.0) == -3
        assert quantize_int(0.0) == 0

    def test_nearest_even(self):
        assert quantize_even_int(1.4) == 2
        assert quantize_even_int(-3.0) == -2  # tie between -2 and -4
        assert quantize_even_int(3.0) == 2
        assert quantize_even_int(0.0) == 0
        assert quantize_even_int(2.7) == 2

    def test_arrays(self):
        assert quantize_int(np.array([0.6, -0.6])).tolist() == [1, -1]
        assert quantize_even_int(np.array([1.1, -5.2])).tolist() == [2, -6]


class TestBitMapping:
    def test_two_bit_enumeration(self):
        assert bits_to_symbol([1, 1]) == 3
        assert bits_to_symbol([-1, 1]) == 1
        assert bits_to_symbol([1, -1]) == -1
        assert bits_to_symbol([-1, -1]) == -3

    @pytest.mark.parametrize("nbits", [1, 2, 3, 4])
    def test_bijection(self, nbits):
        a = make_alphabet(4**nbits)
        images = {}
        for u in itertools.product((-1, 1), repeat=nbits):
            images[u] = bits_to_symbol(u)
        assert sorted(images.values()) == a.points.tolist()

    @pytest.mark.parametrize("nbits", [1, 2, 3])
    def test_round_trip(self, nbits):
        a = make_alphabet(4**nbits)
        for p in a.points:
            u = symbol_to_bits(int(p), nbits)
            assert bits_to_symbol(u) == p

    @pytest.mark.parametrize("nbits", [1, 2, 3, 4])
    def test_top_bit_is_sign(self, nbits):
        for p in make_alphabet(4**nbits).points:
            assert symbol_to_bits(int(p), nbits)[-1] == np.sign(p)

    @pytest.mark.parametrize("nbits", [1, 2, 3])
    def test_symbols_differ_exactly_where_a_bit_does(self, nbits):
        # the harness counts symbol errors from bits, which the one-to-one
        # map makes the same count
        a = make_alphabet(4**nbits)
        rng = np.random.default_rng(nbits)
        x = a.points[rng.integers(0, a.sqrt_m, size=(2, 200, 6))].astype(float)
        x[1, :50] = x[0, :50]  # some rows all equal
        differ = (symbol_to_bits(x[0], nbits) != symbol_to_bits(x[1], nbits)).any(-1)
        assert np.array_equal(differ, x[0] != x[1])

    def test_rejects_even_or_out_of_range(self):
        with pytest.raises(ValueError):
            symbol_to_bits(2, 2)
        with pytest.raises(ValueError):
            symbol_to_bits(5, 2)
        with pytest.raises(ValueError):
            bits_to_symbol([1, 0])

    @pytest.mark.parametrize(
        "x, bad", [(2, "2"), (2.5, "2.5"), (5, "5"), (-5.0, "-5.0"), ([1, 3, 0, 7], "0")]
    )
    def test_refusal_names_the_first_bad_symbol(self, x, bad):
        with pytest.raises(ValueError, match=f"^symbol {bad} is not an odd point of the 2-bit alphabet$"):
            symbol_to_bits(np.asarray(x), 2)


class TestRandomSymbols:
    def test_membership_and_reproducibility(self):
        a = make_alphabet(4)
        x1 = random_symbols(np.random.default_rng(9), a, 100)
        x2 = random_symbols(np.random.default_rng(9), a, 100)
        assert np.array_equal(x1, x2)
        assert set(np.unique(x1)) <= {-1.0, 1.0}

    def test_frequencies(self):
        a = make_alphabet(16)
        x = random_symbols(np.random.default_rng(1), a, 10_000)
        for p in a.points:
            assert abs(np.mean(x == p) - 0.25) < 0.02

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            random_symbols(np.random.default_rng(0), make_alphabet(4), 0)
