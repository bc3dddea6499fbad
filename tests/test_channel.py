"""Channel embedding, generation, and equalizer tests."""

import re

import numpy as np
import pytest

from mzf import channel
from mzf.channel import (
    ComplexChannel,
    NoiseSpec,
    embed_complex,
    generate_channel,
    generate_real_channel,
    lmmse_inverse,
    mmse_error_matrix,
    pseudo_inverse,
)

# the 4x4 integer reference channel used throughout the golden tests
H_REF = np.array(
    [[-6, 0, -1, 5], [-3, -2, -1, 1], [1, -5, -6, 0], [1, -1, -3, -2]], dtype=float
)
HPLUS_REF = (
    np.array(
        [[-5, -55, 30, -40], [35, -59, -25, 58], [-30, 40, -5, -55], [25, -58, 35, -59]],
        dtype=float,
    )
    / 185.0
)

# the channel rule's two messages
SHAPE = "channel must be N x K with N >= K >= 1, got "
FINITE = "channel entries must be finite"

# (matrix, message) pairs the channel rule refuses
NOT_A_CHANNEL = [
    (np.ones((1, 2)), SHAPE + "(1, 2)"),  # dependent columns, no zero singular value
    (np.ones(3), SHAPE + "(3,)"),
    (np.ones((2, 2, 2)), SHAPE + "(2, 2, 2)"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), FINITE),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), FINITE),
]


class TestEmbed:
    def test_single_entry(self):
        out = embed_complex(np.array([[1 + 2j]]))
        assert out.tolist() == [[1.0, -2.0], [2.0, 1.0]]

    def test_vector_stacks_real_over_imag(self):
        assert embed_complex(np.array([1 - 1j])).tolist() == [1.0, -1.0]

    def test_matrix_product_homomorphism(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = embed_complex(a) @ embed_complex(b)
            rhs = embed_complex(a @ b)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matrix_vector_homomorphism(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.allclose(embed_complex(h) @ embed_complex(x), embed_complex(h @ x), atol=1e-12)

    def test_block_structure_preserved(self):
        rng = np.random.default_rng(2)
        cc = generate_channel(rng, 3)
        h = embed_complex(cc)
        re, im = cc.entries.real, cc.entries.imag
        assert np.array_equal(h[:3, :3], re)
        assert np.array_equal(h[3:, 3:], re)
        assert np.array_equal(h[:3, 3:], -im)
        assert np.array_equal(h[3:, :3], im)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 3), (5, 2)])
    @pytest.mark.parametrize("wrap", [False, True])
    def test_bytes_of_block_form(self, shape, wrap):
        rng = np.random.default_rng(shape)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m[0, 0] = 0.0  # a signed zero in the negated block
        re, im = m.real, m.imag
        want = np.block([[re, -im], [im, re]])
        got = embed_complex(ComplexChannel(m) if wrap else m)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestGenerateChannel:
    def test_deterministic_given_stream(self):
        a = generate_channel(np.random.default_rng(7), 2)
        b = generate_channel(np.random.default_rng(7), 2)
        assert np.array_equal(a.entries, b.entries)

    def test_moments_of_embedded_entries(self):
        rng = np.random.default_rng(8)
        draws = np.stack([embed_complex(generate_channel(rng, 2)) for _ in range(10_000)])
        assert np.all(np.abs(draws.mean(axis=0)) < 0.05)
        assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.05)

    def test_unstructured_real_variant(self):
        h = generate_real_channel(np.random.default_rng(3), 5)
        assert h.shape == (5, 5)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            generate_channel(np.random.default_rng(0), 0)

    def test_complex_channel_validation(self):
        with pytest.raises(ValueError, match=FINITE):
            ComplexChannel(np.array([[np.inf + 0j]]))
        with pytest.raises(ValueError, match=re.escape(SHAPE + "(2, 3)")):
            ComplexChannel(np.zeros((2, 3), dtype=complex))  # N < K


class TestRealChannel:
    @pytest.mark.parametrize("wrap", [np.asarray, lambda m: m.tolist(), ComplexChannel])
    def test_complex_forms_embed_alike(self, wrap):
        m = generate_channel(np.random.default_rng(3), 3).entries[:, :2]
        got = channel._real_channel(wrap(m))
        assert got.dtype == float
        assert np.array_equal(got, embed_complex(m))

    def test_complex_channel_written_to_is_checked_again(self):
        cc = generate_channel(np.random.default_rng(3), 2)
        cc.entries[0, 0] = np.inf
        with pytest.raises(ValueError, match=FINITE):
            channel._real_channel(cc)


class TestEqualizersRefuseWhatTheRuleRefuses:
    @pytest.mark.parametrize("m, message", NOT_A_CHANNEL)
    def test_pseudo_inverse(self, m, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            pseudo_inverse(m)

    @pytest.mark.parametrize("m, message", NOT_A_CHANNEL)
    @pytest.mark.parametrize("n0", [0.0, 0.1])
    def test_lmmse_inverse(self, m, message, n0):
        with pytest.raises(ValueError, match=re.escape(message)):
            lmmse_inverse(m, NoiseSpec(n0))


class TestPseudoInverse:
    def test_identity(self):
        assert np.array_equal(pseudo_inverse(np.eye(4)), np.eye(4))

    def test_reference_channel(self):
        assert np.allclose(pseudo_inverse(H_REF), HPLUS_REF, atol=1e-12)

    def test_reference_estimate(self):
        y = np.array([3.0, 1.0, 15.0, 11.0])
        want = np.array([-60.0, 309.0, -730.0, -107.0]) / 185.0
        assert np.allclose(pseudo_inverse(H_REF) @ y, want, atol=1e-12)

    def test_left_inverse_property(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = rng.standard_normal((6, 4))
            assert np.allclose(pseudo_inverse(h) @ h, np.eye(4), atol=1e-9)

    def test_rank_deficiency_names_index(self):
        h = np.ones((3, 2))  # duplicate columns
        with pytest.raises(ValueError, match=r"singular value 1"):
            pseudo_inverse(h)

    @pytest.mark.parametrize("scale", [1e-310, 1e-320])
    def test_overflowing_inverse_names_the_cause(self, scale):
        # a finite channel this small has full rank by the relative rule,
        # but the reciprocal of its smallest singular value overflows
        h = scale * np.random.default_rng(8).standard_normal((6, 6))
        with pytest.raises(ValueError, match="pseudo-inverse is not finite"):
            pseudo_inverse(h)


@pytest.mark.usefixtures("fresh_pseudo_inverse_memo")
class TestPseudoInverseMemo:
    def test_returns_the_bytes_of_a_fresh_inverse_read_only(self):
        h = generate_real_channel(np.random.default_rng(9), 6)
        first = channel._pseudo_inverse(h)
        assert first.tobytes() == pseudo_inverse(h).tobytes()
        assert channel._pseudo_inverse(h.copy()) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0
        # the public call stays the caller's own array
        assert pseudo_inverse(h).flags.writeable

    def test_writing_into_the_channel_gives_a_fresh_result(self):
        h = generate_real_channel(np.random.default_rng(10), 6)
        first = channel._pseudo_inverse(h)
        h[0, 0] += 1.0
        changed = channel._pseudo_inverse(h)
        assert changed is not first
        assert changed.tobytes() == pseudo_inverse(h).tobytes()

    def test_layout_is_part_of_the_key(self):
        h = generate_real_channel(np.random.default_rng(11), 6)
        first = channel._pseudo_inverse(h)
        other = channel._pseudo_inverse(np.asfortranarray(h))
        assert other is not first

    def test_refused_channel_raises_every_time_and_is_never_stored(self):
        good = generate_real_channel(np.random.default_rng(12), 6)
        kept = channel._pseudo_inverse(good)
        bad = good.copy()
        bad[:, 5] = bad[:, 4]
        for _ in range(2):
            with pytest.raises(ValueError, match="linearly dependent"):
                channel._pseudo_inverse(bad)
        assert channel._pseudo_inverse(good) is kept


class TestLmmseInverse:
    def test_zero_noise_equals_pseudo_inverse(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 4))
        assert np.allclose(lmmse_inverse(h, NoiseSpec(0.0)), pseudo_inverse(h), atol=1e-9)

    def test_identity_channel(self):
        out = lmmse_inverse(np.eye(3), NoiseSpec(1.0))
        assert np.allclose(out, 0.5 * np.eye(3), atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((4, 4))
        n0 = 0.5
        want = h.T @ np.linalg.inv(h @ h.T + n0 * np.eye(4))
        assert np.allclose(lmmse_inverse(h, NoiseSpec(n0)), want, atol=1e-12)

    def test_singular_gram_raises(self):
        with pytest.raises(ValueError):
            lmmse_inverse(np.zeros((2, 2)), NoiseSpec(0.0))

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(-1.0)

    @pytest.mark.parametrize("n0", [float("nan"), float("inf"), -float("inf"), -1e-300])
    def test_noise_spec_refuses_non_finite_and_negative(self, n0):
        with pytest.raises(ValueError, match="finite and >= 0"):
            NoiseSpec(n0)


class TestMmseErrorMatrix:
    def test_exact_inverse_kills_left_block(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((4, 4))
        hplus = pseudo_inverse(h)
        e = mmse_error_matrix(hplus, h, NoiseSpec(0.25))
        assert np.allclose(e[:, :4], 0.0, atol=1e-12)
        assert np.allclose(e[:, 4:], 0.25 * hplus, atol=1e-12)

    def test_identity_with_half_inverse(self):
        e = mmse_error_matrix(0.5 * np.eye(2), np.eye(2), NoiseSpec(1.0))
        assert np.allclose(e, np.hstack([-0.5 * np.eye(2), 0.5 * np.eye(2)]), atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((4, 4))
        hplus = lmmse_inverse(h, NoiseSpec(0.25))
        e = mmse_error_matrix(hplus, h, NoiseSpec(0.25))
        want = np.hstack([hplus @ h - np.eye(4), 0.25 * hplus])
        assert np.allclose(e, want, atol=1e-12)
