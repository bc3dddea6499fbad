"""Detector suite tests: estimator conventions, preprocessing, detection."""

import copy
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

import mzf
from mzf import detect, intsearch
from mzf.alphabet import make_alphabet, random_symbols, symbol_to_bits
from mzf.channel import (
    NoiseSpec,
    embed_complex,
    generate_channel,
    generate_real_channel,
    pseudo_inverse,
)
from mzf.detect import (
    EQUALIZERS,
    LAR_MODES,
    MZF_VARIANTS,
    PARITY_MODES,
    SOLVERS,
    LARDetector,
    LMMSEDetector,
    MLDetector,
    MZFDetector,
    ZFDetector,
    optimize_alpha,
)
from mzf.metrics import detector_gains, snr_to_n0
from mzf.rowwise import apply
from util_exact import ml_grid

H_REF = np.array(
    [[-6, 0, -1, 5], [-3, -2, -1, 1], [1, -5, -6, 0], [1, -1, -3, -2]], dtype=float
)
Y_REF = np.array([3.0, 1.0, 15.0, 11.0])
X_REF = np.array([1.0, -1.0, -1.0, 1.0])


def count_calls(monkeypatch, owner, names):
    """{name: calls} of owner.<name> for every name, counted from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def noiseless_cases(seed, n, dims=(2, 4, 6), mods=(4, 16, 64)):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.choice(dims))
        m = int(rng.choice(mods))
        h = generate_real_channel(rng, k)
        x = random_symbols(rng, make_alphabet(m), k)
        yield h, x, h @ x, m


def test_star_import_resolves_every_export():
    # from-import-star raises on a name __all__ lists but the package lacks
    namespace = {}
    exec("from mzf import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(mzf.__all__)


class TestEstimatorConventions:
    def test_fit_returns_self_and_sets_state(self):
        det = ZFDetector(modulation=4)
        assert det.fit(H_REF) is det
        assert det.k_ == 4
        assert hasattr(det, "hplus_")

    def test_detect_requires_fit(self):
        with pytest.raises(RuntimeError):
            ZFDetector().detect(Y_REF)

    def test_predict_shapes(self):
        det = ZFDetector(modulation=4).fit(H_REF)
        single = det.predict(Y_REF)
        assert single.shape == (4,)
        batch = det.predict(np.stack([Y_REF, Y_REF]))
        assert batch.shape == (2, 4)
        bits = det.predict_bits(np.stack([Y_REF] * 3))
        assert bits.shape == (3, 4, 1)

    def test_rejects_bad_observation_length(self):
        det = ZFDetector().fit(H_REF)
        with pytest.raises(ValueError):
            det.detect(np.zeros(3))

    @pytest.mark.parametrize("det", [ZFDetector(16), MZFDetector(16, variant="feedback")])
    def test_rejects_block_of_wrong_width(self, det):
        det.fit(H_REF)
        for call in (det.predict, det.predict_bits):
            with pytest.raises(ValueError, match="observation length 3 != 4"):
                call(np.zeros((5, 3)))

    @pytest.mark.parametrize("det", [ZFDetector(16), MZFDetector(16, variant="bitwise")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_observations(self, det, bad):
        det.fit(H_REF)
        y = np.array([3.0, 1.0, bad, 11.0])
        for call, arg in (
            (det.detect, y),
            (det.predict, y),
            (det.predict, np.stack([Y_REF, y])),
            (det.predict_bits, np.stack([Y_REF, y])),
        ):
            with pytest.raises(ValueError, match="finite"):
                call(arg)

    @pytest.mark.parametrize(
        "det", [ZFDetector, LMMSEDetector, MZFDetector, MLDetector, LARDetector]
    )
    @pytest.mark.parametrize(
        "channel, message",
        [
            # LAPACK's SVD used to loop on the embedding of an inf entry
            (np.array([[np.inf + 0j, 0], [0, 1]]), "channel entries must be finite"),
            ([[complex(np.inf), 0], [0, 1]], "channel entries must be finite"),
            (np.array([[np.nan + 0j, 0], [0, 1]]), "channel entries must be finite"),
            (np.array([[np.inf, 0], [0, 1]]), "channel entries must be finite"),
            (np.array([[1 + 1j, 2]]), "channel must be N x K with N >= K >= 1, got (1, 2)"),
            ([[1 + 1j, 2]], "channel must be N x K with N >= K >= 1, got (1, 2)"),
            (np.ones((1, 2)), "channel must be N x K with N >= K >= 1, got (1, 2)"),
            (np.array([1 + 1j, 2]), "channel must be N x K with N >= K >= 1, got (2,)"),
            (np.ones(2), "channel must be N x K with N >= K >= 1, got (2,)"),
        ],
    )
    def test_bad_channel_form_refused_at_fit(self, det, channel, message):
        d = det(4)
        with pytest.raises(ValueError, match=re.escape(message)):
            d.fit(channel, n0=0.1)
        assert not hasattr(d, "h_")

    @pytest.mark.parametrize(
        "det", [ZFDetector, LMMSEDetector, MZFDetector, MLDetector, LARDetector]
    )
    @pytest.mark.parametrize("n0", ["0.1", 1j, True, np.float32(0.1), 0])
    def test_n0_is_checked_by_noise_spec(self, det, n0):
        # fit hands n0 to NoiseSpec as given: a str, a complex or a bool is
        # refused with its ValueError, a numpy float or an int fits as float
        d = det(4)
        if isinstance(n0, (str, complex, bool)):
            with pytest.raises(ValueError, match="noise density must be a real number"):
                d.fit(H_REF, n0=n0)
            assert not hasattr(d, "h_")
        else:
            assert d.fit(H_REF, n0=n0).n0_ == float(n0)
            assert type(d.n0_) is float

    def test_complex_channel_is_embedded(self):
        cc = generate_channel(np.random.default_rng(0), 2)
        det = ZFDetector().fit(cc)
        assert det.h_.shape == (4, 4)
        det2 = ZFDetector().fit(cc.entries)
        assert np.array_equal(det.h_, det2.h_)

    def test_invalid_params_raise_at_fit(self):
        for bad in (
            MZFDetector(variant="nope"),
            MZFDetector(solver="nope"),
            MZFDetector(equalizer="nope"),
            MZFDetector(parity="nope"),
            MZFDetector(noise_weighting="nope"),
            MZFDetector(sd_budget=0),
            MZFDetector(brute_bound=-1),
            MZFDetector(sd_budget=2.5),
            MZFDetector(sd_budget=1e6),
            MZFDetector(sd_budget=True),
            MZFDetector(brute_bound=2.5),
            MZFDetector(brute_bound=True),
            MZFDetector(lll_delta=2.0),
            LARDetector(mode="nope"),
            LARDetector(delta=0.25),
        ):
            with pytest.raises(ValueError):
                bad.fit(H_REF)

    @pytest.mark.parametrize("name", ["sd_budget", "brute_bound"])
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_counts_must_be_integers(self, name, bad):
        # the budget keys the search memo, so 2.5 and 2 would be two keys
        # for one search
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            MZFDetector(**{name: bad}).fit(H_REF)

    @pytest.mark.parametrize("det", [ZFDetector(16.0), MZFDetector(16.0), MLDetector(4.0)])
    def test_rejects_float_modulation_order(self, det):
        # make_alphabet refuses it before the fit stores anything
        with pytest.raises(ValueError, match="modulation must be an integer, got"):
            det.fit(H_REF)
        assert not hasattr(det, "h_")

    def test_numpy_integer_counts_accepted(self):
        det = MZFDetector(sd_budget=np.int64(50), brute_bound=np.int32(4)).fit(H_REF)
        plain = MZFDetector(sd_budget=50, brute_bound=4).fit(H_REF)
        assert np.array_equal(det.q_, plain.q_)

    @pytest.mark.parametrize("det", [ZFDetector(), MZFDetector(), LARDetector()])
    @pytest.mark.parametrize("n0", [np.nan, np.inf, -1.0])
    def test_rejects_bad_noise_density(self, det, n0):
        with pytest.raises(ValueError, match="noise density must be finite and >= 0"):
            det.fit(H_REF, n0=n0)


class TestPreprocess:
    def test_reference_plans(self):
        det = MZFDetector(modulation=4, solver="sd").fit(H_REF)
        degenerate = [det.plans_[k][0].degenerate for k in range(4)]
        assert degenerate == [True, False, True, False]
        assert det.plans_[1][0].cost * 185 == pytest.approx(27, abs=1e-9)
        assert det.plans_[3][0].cost * 185 == pytest.approx(27, abs=1e-9)
        assert all(det.plans_[k][0].exact for k in range(4))

    def test_plan_row_consistency(self):
        rng = np.random.default_rng(1)
        h = generate_real_channel(rng, 6)
        det = MZFDetector(modulation=16, solver="sd").fit(h)
        hplus = pseudo_inverse(h)
        for k in range(6):
            plan = det.plans_[k][0]
            want = plan.tau * hplus[k] + plan.alpha * (plan.q @ hplus)
            assert np.allclose(plan.combining_row, want, atol=1e-12)

    def test_orthogonal_channel_all_degenerate(self):
        det = MZFDetector(modulation=4, solver="sd").fit(3.0 * np.eye(4))
        assert all(det.plans_[k][0].degenerate for k in range(4))

    def test_bitwise_stage_scales(self):
        det = MZFDetector(modulation=16, variant="bitwise").fit(H_REF)
        assert [p.tau for p in det.plans_[0]] == [1.0, 0.5]
        assert [p.bit_layer for p in det.plans_[0]] == [1, 2]

    def test_feedback_single_stage_at_unit_scale(self):
        det = MZFDetector(modulation=64, variant="feedback").fit(H_REF)
        assert [len(det.plans_[k]) for k in range(4)] == [1, 1, 1, 1]
        assert det.plans_[0][0].tau == 1.0

    def test_fitted_arrays_stack_the_plans(self):
        det = MZFDetector(modulation=64, variant="bitwise").fit(H_REF)
        assert det.comb_.shape == (3, 4, 4)
        assert det.q_.shape == (3, 4, 4)
        assert det.tau_.tolist() == [1.0, 0.5, 0.25]
        assert "plans_" not in vars(det)
        for k in range(4):
            for s, plan in enumerate(det.plans_[k]):
                assert np.array_equal(det.q_[s, k], plan.q)
                assert np.array_equal(det.comb_[s, k], plan.combining_row)
                assert det.tau_[s] == plan.tau
                assert det.alpha_[s, k] == plan.alpha
                assert det.degenerate_[s, k] == plan.degenerate
                assert det.parity_[s, k] == (plan.parity.half_q_sum % 2 == 1)
                assert det.cost_[s, k] == plan.cost
                assert det.exact_[s, k] == plan.exact
                assert det.nodes_[s, k] == plan.nodes

    def test_plans_carry_search_nodes(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            h = generate_real_channel(rng, 6)
            for variant in ("plain", "bitwise"):
                sd = MZFDetector(modulation=16, variant=variant).fit(h)
                assert all(p.nodes > 0 for row in sd.plans_ for p in row)
                lll = MZFDetector(modulation=16, variant=variant, solver="lll").fit(h)
                assert all(p.nodes == 0 for row in lll.plans_ for p in row)

    @pytest.mark.usefixtures("fresh_reduction_memo")
    @pytest.mark.parametrize("solver", ["sd", "lll"])
    def test_fit_factors_each_basis_once(self, solver, monkeypatch):
        # the sphere search reads one QR of the doubled reduced basis and the
        # reduction-based estimate one pinv each of the reduced and the
        # unreduced basis; each serves all 8 layers x 3 bit stages
        calls = count_calls(monkeypatch, np.linalg, ("qr", "pinv"))
        h = generate_real_channel(np.random.default_rng(27), 8)
        MZFDetector(modulation=64, variant="bitwise", solver=solver).fit(h)
        sd = solver == "sd"
        assert calls == {"qr": 1 if sd else 0, "pinv": 0 if sd else 2}


class TestZF:
    def test_reference_symbols(self):
        det = ZFDetector(modulation=4).fit(H_REF)
        got = det.detect(Y_REF)
        assert got.symbols.tolist() == [-1.0, 1.0, -1.0, -1.0]
        # only the third layer matches the transmitted vector
        assert (got.symbols == X_REF).tolist() == [False, False, True, False]

    def test_noiseless_recovery(self):
        for h, x, y, m in noiseless_cases(2, 25):
            det = ZFDetector(modulation=m).fit(h)
            assert np.array_equal(det.detect(y).symbols, x)

    def test_huge_observation_goes_to_the_outer_points(self):
        det = ZFDetector(16).fit(np.eye(2))
        assert det.predict([1e17, -1e17]).tolist() == [3.0, -3.0]


class TestMZFSymbolwise:
    def test_reference_detection_derived(self):
        det = MZFDetector(modulation=4, solver="sd", parity="derived").fit(H_REF)
        got = det.detect(Y_REF)
        assert got.symbols.tolist() == [-1.0, -1.0, -1.0, -1.0]
        # degenerate layers carry the plain equalizer values
        assert got.layer_z[0] * 185 == pytest.approx(-60, abs=1e-9)
        assert got.layer_z[2] * 185 == pytest.approx(-730, abs=1e-9)

    def test_noiseless_recovery_all_solvers(self):
        for h, x, y, m in noiseless_cases(3, 12, dims=(2, 4), mods=(4, 16)):
            for solver in ("sd", "brute", "lll"):
                det = MZFDetector(modulation=m, solver=solver).fit(h)
                if solver == "lll":
                    continue  # approximate plans need not recover exactly
                assert np.array_equal(det.detect(y).symbols, x), solver

    def test_degenerate_channel_matches_zf_bit_for_bit(self):
        rng = np.random.default_rng(4)
        h = 2.5 * np.eye(4)
        mzf = MZFDetector(modulation=16, solver="sd").fit(h)
        zf = ZFDetector(modulation=16).fit(h)
        for _ in range(50):
            y = rng.normal(scale=4.0, size=4)
            a, b = mzf.detect(y), zf.detect(y)
            assert np.array_equal(a.symbols, b.symbols)
            assert np.array_equal(a.bits, b.bits)

    def test_gain_dominance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = generate_real_channel(rng, 6)
            det = MZFDetector(modulation=16, solver="sd").fit(h)
            for g in detector_gains(det):
                assert g.gain_db >= -1e-9


class TestScaledAlpha:
    def test_clamped_when_orthogonal(self):
        # with an identity equalizer the perturbation row 2 e_j is orthogonal
        # to e_k, so the unconstrained optimum 0 clamps to 1
        alpha, q = optimize_alpha(np.array([0, 2, 0]), 0, 1.0, np.eye(3))
        assert alpha == 1.0
        assert q.tolist() == [0, 2, 0]

    def test_rejects_zero_perturbation(self):
        with pytest.raises(ValueError):
            optimize_alpha(np.zeros(3), 0, 1.0, np.eye(3))

    def test_never_worse_than_unit_scale(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            hplus = pseudo_inverse(generate_real_channel(rng, 4))
            q = 2 * rng.integers(-3, 4, size=4)
            if not q.any():
                continue
            k = int(rng.integers(0, 4))
            tau = float(rng.choice([1.0, 0.5]))
            alpha, q_out = optimize_alpha(q, k, tau, hplus)
            assert alpha >= 1.0
            before = tau * hplus[k] + q @ hplus
            after = tau * hplus[k] + alpha * (q_out @ hplus)
            assert float(after @ after) <= float(before @ before) + 1e-12

    def test_noiseless_recovery(self):
        for h, x, y, m in noiseless_cases(7, 15):
            det = MZFDetector(modulation=m, variant="scaled-alpha").fit(h)
            assert np.array_equal(det.detect(y).symbols, x)

    def test_rescaling_engages_on_some_layers(self):
        rng = np.random.default_rng(23)
        seen_above_one = False
        for _ in range(40):
            det = MZFDetector(modulation=4, variant="scaled-alpha").fit(
                generate_real_channel(rng, 6)
            )
            for k in range(6):
                plan = det.plans_[k][0]
                assert plan.alpha >= 1.0
                seen_above_one = seen_above_one or plan.alpha > 1.0 + 1e-9
        assert seen_above_one

    def test_vanishing_scale_clamps_to_one(self):
        # as the target scale shrinks, the unconstrained optimum goes to 0
        # and the constraint pins the rescale at 1
        rng = np.random.default_rng(24)
        hplus = pseudo_inverse(generate_real_channel(rng, 4))
        q = np.array([2, 0, -2, 0])
        alpha, _ = optimize_alpha(q, 1, 1e-9, hplus)
        assert alpha == 1.0

    def test_plan_cost_not_above_plain(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = generate_real_channel(rng, 4)
            plain = MZFDetector(modulation=16).fit(h)
            scaled = MZFDetector(modulation=16, variant="scaled-alpha").fit(h)
            for k in range(4):
                assert scaled.plans_[k][0].cost <= plain.plans_[k][0].cost + 1e-12


class TestBitwise:
    def test_noiseless_bits(self):
        for h, x, y, m in noiseless_cases(9, 20, mods=(16, 64)):
            det = MZFDetector(modulation=m, variant="bitwise").fit(h)
            got = det.detect(y)
            want = np.stack([symbol_to_bits(int(s), make_alphabet(m).nbits) for s in x])
            assert np.array_equal(got.bits, want)
            assert np.array_equal(got.symbols, x)

    def test_single_bit_layer_collapses_to_plain(self):
        rng = np.random.default_rng(10)
        h = generate_real_channel(rng, 4)
        plain = MZFDetector(modulation=4, solver="sd").fit(h)
        bitwise = MZFDetector(modulation=4, variant="bitwise", solver="sd").fit(h)
        for _ in range(50):
            y = rng.normal(scale=3.0, size=4)
            assert np.array_equal(plain.detect(y).symbols, bitwise.detect(y).symbols)


class TestFeedback:
    def test_noiseless_recovery(self):
        for h, x, y, m in noiseless_cases(11, 20, mods=(16, 64)):
            det = MZFDetector(modulation=m, variant="feedback").fit(h)
            assert np.array_equal(det.detect(y).symbols, x)

    def test_single_bit_layer_collapses_to_plain(self):
        rng = np.random.default_rng(12)
        h = generate_real_channel(rng, 4)
        plain = MZFDetector(modulation=4, solver="sd").fit(h)
        fb = MZFDetector(modulation=4, variant="feedback", solver="sd").fit(h)
        for _ in range(50):
            y = rng.normal(scale=3.0, size=4)
            assert np.array_equal(plain.detect(y).symbols, fb.detect(y).symbols)

    def test_noiseless_recovery_on_degenerate_channel(self):
        # identity channel: every layer degenerate, bits still come out right
        h = np.eye(4)
        det = MZFDetector(modulation=16, variant="feedback").fit(h)
        alphabet = make_alphabet(16)
        for x0 in alphabet.points:
            x = np.full(4, float(x0))
            got = det.detect(h @ x)
            assert np.array_equal(got.symbols, x)


class TestML:
    def test_noiseless_recovery(self):
        for h, x, y, m in noiseless_cases(13, 10, dims=(2, 4), mods=(4, 16)):
            det = MLDetector(modulation=m).fit(h)
            assert np.array_equal(det.detect(y).symbols, x)

    def test_noiseless_recovery_past_the_grid(self):
        # kc = 6 at 16-QAM: 4**12 = 1.7e7 symbol vectors, more than a grid
        # search could score per observation
        rng = np.random.default_rng(15)
        h = embed_complex(generate_channel(rng, 6))
        x = make_alphabet(16).points[rng.integers(0, 4, size=(20, 12))].astype(float)
        assert np.array_equal(MLDetector(modulation=16).fit(h).predict(x @ h.T), x)

    def test_equals_the_grid_oracle(self):
        # kc = 2 and 3 at M = 4, 16 and 64 (8**6 grid points at the largest),
        # 10 observations at each of 0, 4, ..., 32 dB on 4 channels each
        rng = np.random.default_rng(14)
        snrs = np.arange(0.0, 33.0, 4.0)
        checked = 0
        for kc in (2, 3):
            for m in (4, 16, 64):
                alphabet = make_alphabet(m)
                sigma = np.sqrt([snr_to_n0(s, alphabet).n0 / 2.0 for s in snrs])
                sigma = np.repeat(sigma, 10)[:, None]
                for _ in range(4):
                    h = embed_complex(generate_channel(rng, kc))
                    x = alphabet.points[rng.integers(0, alphabet.sqrt_m, (len(sigma), 2 * kc))]
                    y = x @ h.T + sigma * rng.standard_normal((len(sigma), 2 * kc))
                    got = MLDetector(modulation=m).fit(h).predict(y)
                    assert np.array_equal(got, ml_grid(h, y, alphabet))
                    checked += len(y)
        assert checked >= 2000

    def test_lexicographic_ties(self):
        # an all-zero channel makes every candidate equidistant
        det = MLDetector(modulation=4).fit(np.zeros((2, 2)) + np.eye(2) * 1e-300)
        got = det.detect(np.zeros(2))
        assert got.symbols.tolist() == [-1.0, -1.0]

    @pytest.mark.parametrize("m,scale,y", [
        (16, 1.0, [0.0, 0.0, 0.0]),     # ties between +-1 on every layer
        (16, 1.0, [2.0, 0.0, -2.0]),
        (64, 1e-300, [0.0, 0.0, 0.0]),  # every distance underflows to 0
    ])
    def test_lexicographic_ties_in_the_box(self, m, scale, y):
        h, y = scale * np.eye(3), np.array(y)
        got = MLDetector(modulation=m).fit(h).predict(y)
        assert np.array_equal(got, ml_grid(h, y[None], make_alphabet(m))[0])

    def test_rejects_dependent_columns(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            MLDetector(modulation=16).fit(np.array([[1.0, 0.0], [2.0, 0.0]]))


def dfs_decisions(det, y):
    """det's decisions on every row of y by the boxed depth-first search."""
    q, r = det.qr_
    cols, diag = intsearch._triangle(r)
    hi = det.alphabet_.sqrt_m - 1
    u = np.array([detect._box_dfs(v, cols, diag, hi) for v in apply(q.T, y + det.shift_)])
    return (2 * u - hi).astype(float).reshape(len(y), det.k_)


def noisy_blocks(rng, kc, m, channels, per_point):
    """(channel, block) pairs: per_point observations at each of 0, 2, ...,
    32 dB on each of channels random kc x kc complex channels at M-QAM."""
    alphabet = make_alphabet(m)
    snrs = np.arange(0.0, 33.0, 2.0)
    sigma = np.sqrt([snr_to_n0(s, alphabet).n0 / 2.0 for s in snrs])
    sigma = np.repeat(sigma, per_point)[:, None]
    for _ in range(channels):
        h = embed_complex(generate_channel(rng, kc))
        x = alphabet.points[rng.integers(0, alphabet.sqrt_m, (len(sigma), 2 * kc))]
        yield h, x @ h.T + sigma * rng.standard_normal((len(sigma), 2 * kc))


# ties between +-1 on every layer, and every distance underflowing to 0
TIE_CASES = [
    (16, 1.0, [0.0, 0.0, 0.0]),
    (16, 1.0, [2.0, 0.0, -2.0]),
    (64, 1e-300, [0.0, 0.0, 0.0]),
]


class TestBoxSearch:
    """The block search against the per-row depth-first search; predict
    takes the block search for every block here."""

    @pytest.fixture(autouse=True)
    def block_search_always(self, monkeypatch):
        monkeypatch.setattr(detect, "ML_BLOCK_ROWS", 0)

    @pytest.mark.parametrize("kc", [2, 3, 4])
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_equals_the_boxed_dfs(self, kc, m):
        # 2,040 observations: 8 channels x 17 SNR points x 15
        checked = 0
        for h, y in noisy_blocks(np.random.default_rng([40, kc, m]), kc, m, 8, 15):
            det = MLDetector(m).fit(h)
            assert np.array_equal(det.predict(y), dfs_decisions(det, y))
            checked += len(y)
        assert checked >= 2000

    @pytest.mark.parametrize("m,scale,y", TIE_CASES)
    def test_ties_in_one_block(self, m, scale, y):
        # the tie cases stacked with their negatives and a clean row
        h = scale * np.eye(3)
        block = np.array([y, [-v for v in y], [scale, -scale, scale]])
        det = MLDetector(m).fit(h)
        assert np.array_equal(det.predict(block), dfs_decisions(det, block))
        assert np.array_equal(det.predict(block), ml_grid(h, block, make_alphabet(m)))

    @pytest.mark.parametrize("block_nodes", [1, 5, 64])
    def test_split_blocks_decide_the_same(self, monkeypatch, block_nodes):
        # blocks of a few nodes split every frontier, so each row's leaves
        # come in many blocks and ties meet across them
        cases = [(h, y, m) for m in (4, 16, 64)
                 for h, y in noisy_blocks(np.random.default_rng([41, m]), 3, m, 2, 2)]
        cases += [(scale * np.eye(3), np.array([y]), m) for m, scale, y in TIE_CASES]
        want = [MLDetector(m).fit(h).predict(y) for h, y, m in cases]
        monkeypatch.setattr(detect, "ML_BLOCK_NODES", block_nodes)
        for (h, y, m), w in zip(cases, want):
            det = MLDetector(m).fit(h)
            got = det.predict(y)
            assert np.array_equal(got, w)
            assert np.array_equal(got, dfs_decisions(det, y))

    def test_frontier_stays_within_its_bound(self):
        # every distance underflows to 0, so no node is ever pruned: 8**6 =
        # 262,144 leaves, 29 MB as one frontier
        k = 6
        det = MLDetector(64).fit(1e-300 * np.eye(k))
        q, r = det.qr_
        v = apply(q.T, np.zeros((1, k)) + det.shift_)
        bound = k * detect.ML_BLOCK_NODES * (2 * k + 2) * 8
        tracemalloc.start()
        try:
            u = detect._box_search(v, r, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u.tolist() == [[0] * k]
        assert peak <= bound


class TestSearchChoice:
    """Blocks of fewer than ML_BLOCK_ROWS observations are searched row by
    row depth first, larger ones by the block search."""

    def test_block_size_picks_the_search(self, monkeypatch):
        calls = count_calls(monkeypatch, detect, ["_box_search", "_box_dfs"])
        h, y = next(noisy_blocks(np.random.default_rng(42), 3, 16, 1, 2))
        det = MLDetector(16).fit(h)
        det.predict(y[: detect.ML_BLOCK_ROWS - 1])
        assert calls == {"_box_search": 0, "_box_dfs": detect.ML_BLOCK_ROWS - 1}
        det.predict(y[: detect.ML_BLOCK_ROWS])
        assert calls == {"_box_search": 1, "_box_dfs": detect.ML_BLOCK_ROWS - 1}

    def test_single_rows_take_the_dfs(self, monkeypatch):
        calls = count_calls(monkeypatch, detect, ["_box_search", "_box_dfs"])
        h, y = next(noisy_blocks(np.random.default_rng(43), 2, 4, 1, 1))
        det = MLDetector(4).fit(h)
        det.detect(y[0])
        det.predict(y[1])
        assert calls == {"_box_search": 0, "_box_dfs": 2}

    @pytest.mark.parametrize("kc,m", [(2, 4), (2, 16), (2, 64), (3, 4), (3, 16)])
    def test_dfs_rows_equal_the_grid_oracle(self, kc, m):
        # blocks of 2 and 1 observations, 17 per channel at 0-32 dB
        for h, y in noisy_blocks(np.random.default_rng([44, kc, m]), kc, m, 4, 1):
            det = MLDetector(m).fit(h)
            got = np.concatenate([det.predict(y[i:i + 2]) for i in range(0, len(y), 2)])
            assert np.array_equal(got, ml_grid(h, y, make_alphabet(m)))

    def test_both_searches_equal_on_every_block_size(self, monkeypatch):
        h, y = next(noisy_blocks(np.random.default_rng(45), 3, 64, 1, 2))
        det = MLDetector(64).fit(h)
        for rows in range(1, len(y) + 1):
            # every row depth first, then the block search
            got = []
            for limit in (rows + 1, 0):
                monkeypatch.setattr(detect, "ML_BLOCK_ROWS", limit)
                got.append(det.predict(y[:rows]))
            assert np.array_equal(got[0], got[1])


@pytest.mark.parametrize("scale", [1e200, 1e-200])
class TestExtremeScaleChannels:
    """Finite channels whose lattice basis squares out of floating point."""

    @staticmethod
    def channel(scale):
        return scale * np.random.default_rng(1).standard_normal((6, 6))

    @pytest.mark.parametrize(
        "det", [MZFDetector(16, solver="sd"), MZFDetector(16, solver="lll"), LARDetector(16)]
    )
    def test_lattice_detectors_refuse(self, det, scale):
        with pytest.raises(ValueError, match="Gram-Schmidt norms or coefficients"):
            det.fit(self.channel(scale))

    def test_zf_fits(self, scale):
        det = ZFDetector(16).fit(self.channel(scale))
        assert np.all(np.isfinite(det.hplus_))


def dependent_channel():
    """A 6x6 Gaussian channel whose column 5 equals column 4."""
    h = np.random.default_rng(2).standard_normal((6, 6))
    h[:, 5] = h[:, 4]
    return h


# every detector without regularization, each fitted at n0 = 0
UNREGULARIZED = [
    ZFDetector(16),
    MZFDetector(16, solver="sd"),
    MZFDetector(16, solver="lll"),
    MZFDetector(16, solver="brute"),
    MZFDetector(16, equalizer="lmmse"),
    MLDetector(16),
    LARDetector(16),
    LMMSEDetector(16),
]


@pytest.mark.usefixtures("fresh_pseudo_inverse_memo")
@pytest.mark.parametrize("det", UNREGULARIZED, ids=lambda d: type(d).__name__)
class TestRankRule:
    """One full-column-rank test, the RANK_RTOL rule on the singular values
    of the channel, refuses a singular channel at fit for every family."""

    def test_refuses_dependent_columns(self, det):
        with pytest.raises(ValueError, match="linearly dependent: singular value 5"):
            det.fit(dependent_channel())

    def test_refuses_an_overflowing_pseudo_inverse(self, det):
        h = 1e-310 * np.random.default_rng(2).standard_normal((6, 6))
        with pytest.raises(ValueError, match="pseudo-inverse is not finite"):
            det.fit(h)


@pytest.mark.parametrize("det", [LMMSEDetector(16), MZFDetector(16, equalizer="lmmse")])
def test_regularized_fit_accepts_dependent_columns(det):
    det.fit(dependent_channel(), n0=0.1)
    assert np.all(np.isfinite(det.hplus_))


class TestLAR:
    def test_orthogonal_channel_matches_zf(self):
        rng = np.random.default_rng(14)
        h = 2.0 * np.eye(4)
        lar = LARDetector(modulation=16).fit(h)
        zf = ZFDetector(modulation=16).fit(h)
        assert np.array_equal(lar.reduction_.t, np.eye(4, dtype=np.int64))
        for _ in range(50):
            y = rng.normal(scale=5.0, size=4)
            assert np.array_equal(lar.detect(y).symbols, zf.detect(y).symbols)

    def test_noiseless_recovery_shifted(self):
        for h, x, y, m in noiseless_cases(15, 25):
            det = LARDetector(modulation=m).fit(h)
            assert np.array_equal(det.detect(y).symbols, x)

    def test_noiseless_recovery_literal(self):
        for h, x, y, m in noiseless_cases(16, 15):
            det = LARDetector(modulation=m, mode="literal").fit(h)
            assert np.array_equal(det.detect(y).symbols, x)


class TestLMMSE:
    def test_zero_noise_matches_zf(self):
        rng = np.random.default_rng(17)
        h = generate_real_channel(rng, 4)
        zf = ZFDetector(modulation=16).fit(h)
        lmmse = LMMSEDetector(modulation=16).fit(h, n0=0.0)
        for _ in range(20):
            y = rng.normal(scale=3.0, size=4)
            assert np.array_equal(zf.detect(y).symbols, lmmse.detect(y).symbols)


class TestExt4Equalizer:
    def test_zero_noise_limit_attains_zf_costs(self):
        # with the amplitude-correct noise weight the residual objective
        # collapses onto the plain equalizer one as n0 -> 0, so the plans
        # attain the same optimum (possibly another member of a cost tie)
        rng = np.random.default_rng(18)
        for _ in range(20):
            h = generate_real_channel(rng, 4)
            hplus = pseudo_inverse(h)
            zf_det = MZFDetector(modulation=4, equalizer="zf").fit(h)
            ext4 = MZFDetector(
                modulation=4, equalizer="lmmse", noise_weighting="physical"
            ).fit(h, n0=1e-12)
            for k in range(4):
                q_zf = zf_det.plans_[k][0].q
                q_e4 = ext4.plans_[k][0].q
                c_zf = np.sum((hplus[k] + q_zf @ hplus) ** 2)
                c_e4 = np.sum((hplus[k] + q_e4 @ hplus) ** 2)
                assert c_e4 == pytest.approx(c_zf, rel=1e-6)

    def test_printed_weighting_runs_and_recovers_noiselessly(self):
        for h, x, y, m in noiseless_cases(19, 10, dims=(2, 4), mods=(4, 16)):
            det = MZFDetector(modulation=m, equalizer="lmmse").fit(h, n0=0.0)
            assert np.array_equal(det.detect(y).symbols, x)

    def test_bitwise_with_lmmse_equalizer(self):
        rng = np.random.default_rng(20)
        h = generate_real_channel(rng, 4)
        det = MZFDetector(modulation=16, variant="bitwise", equalizer="lmmse").fit(
            h, n0=0.5
        )
        got = det.detect(rng.normal(size=4))
        assert got.bits.shape == (4, 2)


class TestTallChannels:
    def test_more_receive_than_transmit_dimensions(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            h = rng.standard_normal((6, 4))
            x = random_symbols(rng, make_alphabet(16), 4)
            y = h @ x
            for det in (
                ZFDetector(16),
                MZFDetector(16, solver="sd"),
                MZFDetector(16, variant="bitwise"),
            ):
                assert np.array_equal(det.fit(h).detect(y).symbols, x)

    def test_rejects_wide_channel(self):
        with pytest.raises(ValueError):
            ZFDetector().fit(np.zeros((2, 4)))


class TestParityModes:
    def test_paper_literal_mode_runs(self):
        rng = np.random.default_rng(21)
        h = generate_real_channel(rng, 4)
        det = MZFDetector(modulation=4, parity="paper-literal").fit(h)
        out = det.detect(rng.normal(size=4))
        assert out.symbols.shape == (4,)

    def test_modes_differ_on_even_parity_plans(self):
        # hunt for a channel whose plan has an even perturbation half-sum;
        # there the two branch rules fold differently
        rng = np.random.default_rng(22)
        for _ in range(200):
            h = generate_real_channel(rng, 4)
            det = MZFDetector(modulation=4, parity="derived").fit(h)
            evens = [
                k
                for k in range(4)
                if not det.plans_[k][0].degenerate
                and det.plans_[k][0].parity.half_q_sum % 2 == 0
            ]
            if not evens:
                continue
            lit = MZFDetector(modulation=4, parity="paper-literal").fit(h)
            k = evens[0]
            y = rng.normal(scale=2.0, size=4)
            z_derived = det.detect(y).layer_z[k]
            z_literal = lit.detect(y).layer_z[k]
            assert z_derived != z_literal
            return
        pytest.fail("no even-parity plan found in 200 channels")


def _grid_blocks():
    """(channel, M, n0, block) on one kc = 3 channel and one real K = 16
    channel at M = 4, 16, 64; rows at 10, 20 and 30 dB, the first
    NOISELESS rows noiseless, n0 that of 20 dB."""
    rows, noiseless, snrs = 24, 6, (10.0, 20.0, 30.0)
    rng = np.random.default_rng(31)
    for h in (embed_complex(generate_channel(rng, 3)), generate_real_channel(rng, 16)):
        k = h.shape[1]
        for m in (4, 16, 64):
            alphabet = make_alphabet(m)
            x = alphabet.points[rng.integers(0, alphabet.sqrt_m, size=(rows, k))]
            n0s = [snr_to_n0(s, alphabet).n0 for s in snrs]
            sigma = np.repeat(np.sqrt(np.array(n0s) / 2.0), rows // len(snrs))
            sigma[:noiseless] = 0.0
            noise = sigma[:, None] * rng.standard_normal((rows, h.shape[0]))
            yield h, m, n0s[1], x.astype(float) @ h.T + noise


def _identity_grid():
    """(fitted detector, block) pairs: every variant, parity mode and
    equalizer on every _grid_blocks entry."""
    for h, m, n0, y in _grid_blocks():
        for variant in MZF_VARIANTS:
            for parity in PARITY_MODES:
                for equalizer in EQUALIZERS:
                    det = MZFDetector(m, variant, equalizer=equalizer, parity=parity)
                    yield det.fit(h, n0=n0), y


def _baseline_grid():
    """(fitted detector, block) pairs for the ZF, LMMSE (fitted with n0),
    LAR (both modes) and ML detectors on every _grid_blocks entry; ML only
    on the kc = 3 channel at M <= 16."""
    for h, m, n0, y in _grid_blocks():
        yield ZFDetector(m).fit(h), y
        yield LMMSEDetector(m).fit(h, n0=n0), y
        for mode in LAR_MODES:
            yield LARDetector(m, mode=mode).fit(h), y
        if h.shape[1] == 6 and m <= 16:
            yield MLDetector(m).fit(h), y


def _digests(pairs):
    """sha256 of detect() symbols, bits and layer_z row by row, and of
    predict() symbols block by block; asserts predict and predict_bits
    equal the stacked detect() rows."""
    per_row = hashlib.sha256()
    per_block = hashlib.sha256()
    for det, y in pairs:
        results = [det.detect(row) for row in y]
        for r in results:
            per_row.update(r.symbols.tobytes() + r.bits.tobytes() + r.layer_z.tobytes())
        symbols = det.predict(y)
        per_block.update(symbols.tobytes())
        assert np.array_equal(symbols, np.stack([r.symbols for r in results]))
        assert np.array_equal(det.predict_bits(y), np.stack([r.bits for r in results]))
    return per_row.hexdigest(), per_block.hexdigest()


class TestBlockDetection:
    # sha256 of the outputs on _identity_grid, made with the per-layer
    # detection loops the block kernel replaced: detect() symbols, bits and
    # layer_z row by row, and predict() symbols block by block
    DETECT_DIGEST = "33bf7733f0a317b17016c6925968e426ea2f5cdb1b0b08b1784f632a03f2be80"
    PREDICT_DIGEST = "d1b1e92c9207734712294c61f6ee8a44b24d2b10bcc375b558ab9ed6fca3a30f"
    # the same digests on _baseline_grid, made with the row-by-row detection
    # the ZF, LMMSE, LAR and ML block kernels replaced; the detect digest
    # was re-made when the ML layer_z became H x of the decision row by row
    # (the grid search took it from a GEMM over every candidate, which
    # rounds differently), and with the grid's layer_z it is still
    # 702cd0a1dbaad7f6383253b9a44855ebcfae1fe6abc178c0222ade89108daf0d
    BASELINE_DETECT_DIGEST = "ee92e52ffebc07f7158d5e4efbe979ebb488cbf9af7ba3db5be900c49306a4b9"
    BASELINE_PREDICT_DIGEST = "ec15fce4a582315dee5da02e35acf9cb6607bf73c346ea532c49a0d28e54222f"
    # sha256 of the ML detect() symbols and bits alone, row by row on
    # _baseline_grid, made with the exhaustive grid search: what any exact
    # ML search decides, whatever its layer_z
    ML_DECISION_DIGEST = "92c68f9fe1f16213ff02ef777d281fab83453cddd70f230a2e3a2173b6e49540"

    def test_ml_decisions_pinned(self):
        digest = hashlib.sha256()
        for det, y in _baseline_grid():
            if isinstance(det, MLDetector):
                for r in map(det.detect, y):
                    digest.update(r.symbols.tobytes() + r.bits.tobytes())
        assert digest.hexdigest() == self.ML_DECISION_DIGEST

    def test_byte_identical_to_row_by_row_detection(self):
        assert _digests(_identity_grid()) == (self.DETECT_DIGEST, self.PREDICT_DIGEST)

    def test_baseline_detectors_byte_identical_to_row_by_row_detection(self):
        assert _digests(_baseline_grid()) == (
            self.BASELINE_DETECT_DIGEST,
            self.BASELINE_PREDICT_DIGEST,
        )

    def test_single_row_shapes(self):
        det = MZFDetector(modulation=16, variant="feedback").fit(H_REF)
        assert det.predict(Y_REF).shape == (4,)
        assert det.predict_bits(Y_REF).shape == (4, 2)
        assert det.detect(Y_REF).layer_z.shape == (4, 2)
        assert det.predict(np.stack([Y_REF] * 3)).shape == (3, 4)


class TestDecidedForm:
    """_block returns the form a detector decides in, symbols or bits; the
    other form is mapped only when a caller asks for it."""

    @staticmethod
    def fitted(det):
        rng = np.random.default_rng(53)
        h = embed_complex(generate_channel(rng, 2))
        alphabet = make_alphabet(16)
        x = alphabet.points[rng.integers(0, alphabet.sqrt_m, size=(5, 4))]
        y = x @ h.T + 0.3 * rng.standard_normal((5, 4))
        return det.fit(h, n0=0.1), y

    @pytest.mark.parametrize(
        "det",
        [
            ZFDetector(16),
            LMMSEDetector(16),
            MLDetector(16),
            LARDetector(16),
            MZFDetector(16, "plain"),
            MZFDetector(16, "scaled-alpha"),
        ],
        ids=lambda d: getattr(d, "variant", type(d).__name__),
    )
    def test_symbol_detectors_map_bits_only_for_bits(self, monkeypatch, det):
        det, y = self.fitted(det)
        calls = count_calls(monkeypatch, mzf.detect, ("symbol_to_bits", "bits_to_symbol"))
        det.predict(y)
        assert calls == {"symbol_to_bits": 0, "bits_to_symbol": 0}
        det.predict_bits(y)
        det.detect(y[0])
        assert calls == {"symbol_to_bits": 2, "bits_to_symbol": 0}

    @pytest.mark.parametrize("variant", ["bitwise", "feedback"])
    def test_bit_detectors_map_symbols_only_for_symbols(self, monkeypatch, variant):
        det, y = self.fitted(MZFDetector(16, variant))
        calls = count_calls(monkeypatch, mzf.detect, ("symbol_to_bits", "bits_to_symbol"))
        det.predict_bits(y)
        assert calls == {"symbol_to_bits": 0, "bits_to_symbol": 0}
        det.predict(y)
        det.detect(y[0])
        assert calls == {"symbol_to_bits": 0, "bits_to_symbol": 2}


def _fit_configs():
    """(channel, n0, unfitted detector): solvers sd and lll, every variant
    and equalizer setting on one kc = 3 and one real K = 8 channel at
    M = 4, 16, 64; brute on a real K = 4 channel; and a starved sd_budget=50
    fit on a real K = 12 channel whose plans partly come back inexact."""
    rng = np.random.default_rng(41)
    equalizers = (("zf", "printed"), ("lmmse", "printed"), ("lmmse", "physical"))
    for h in (embed_complex(generate_channel(rng, 3)), generate_real_channel(rng, 8)):
        for m in (4, 16, 64):
            n0 = snr_to_n0(20.0, make_alphabet(m)).n0
            for solver in ("sd", "lll"):
                for variant in MZF_VARIANTS:
                    for equalizer, weighting in equalizers:
                        det = MZFDetector(
                            m, variant, solver, equalizer, noise_weighting=weighting
                        )
                        yield h, n0, det
    h = generate_real_channel(rng, 4)
    for m in (4, 16, 64):
        for variant in MZF_VARIANTS:
            yield h, 0.0, MZFDetector(m, variant, solver="brute")
    yield generate_real_channel(rng, 12), 0.0, MZFDetector(4, sd_budget=50)


def _fit_grid():
    """The _fit_configs detectors, fitted in turn."""
    for h, n0, det in _fit_configs():
        yield det.fit(h, n0=n0)


class TestFitPinned:
    # sha256 over every plan field a fit produces and its gains, made with
    # one IlsProblem and one search call per layer
    DIGEST = "b5a24f92e7b8d61f63c59ee0061ccdf732be2744e23b51edd3a5cd93e5284a7d"

    def test_plans_and_gains_pinned(self):
        digest = hashlib.sha256()
        inexact = 0
        for det in _fit_grid():
            for plan in (p for row in det.plans_ for p in row):
                digest.update(plan.q.tobytes() + plan.combining_row.tobytes())
                digest.update(repr((plan.cost, plan.alpha, plan.degenerate)).encode())
                digest.update(repr((plan.parity.half_q_sum, plan.exact, plan.nodes)).encode())
                inexact += det.solver == "sd" and not plan.exact
            digest.update(repr(detector_gains(det)).encode())
        assert inexact > 0
        assert digest.hexdigest() == self.DIGEST


FITTED_ARRAYS = ("q_", "cost_", "exact_", "nodes_", "comb_", "alpha_", "degenerate_", "parity_")


def fit_family(dets, h, n0=0.0):
    """dets fitted to the real channel h as one family, the way the harness
    fits the modulus detectors of one equalizer and one solver."""
    noise = NoiseSpec(n0)
    for det in dets:
        det._bind(h, noise, make_alphabet(det.modulation))
    detect._fit_family(dets, h, noise)
    return dets


class TestFitMemo:
    # fits of one channel share its reduction, and a family of fits the
    # search rows its members have in common; what they reuse must be the
    # bytes a fresh fit computes

    @pytest.mark.usefixtures("fresh_reduction_memo")
    def test_orders_share_one_reduction(self, monkeypatch):
        # the ZF basis -H^+ does not depend on M, so the fits at three orders
        # reduce it once and factor it once; the sphere search takes no
        # pseudo-inverse of it
        reductions = count_calls(monkeypatch, intsearch, ("lll_reduce",))
        calls = count_calls(monkeypatch, np.linalg, ("qr", "pinv"))
        h = generate_real_channel(np.random.default_rng(28), 8)
        dets = [MZFDetector(m).fit(h) for m in (4, 16, 64)]
        assert reductions == {"lll_reduce": 1}
        assert calls == {"qr": 1, "pinv": 0}
        assert all(d.reduction_ is dets[0].reduction_ for d in dets)

    @pytest.mark.usefixtures("fresh_reduction_memo")
    def test_variants_share_search_rows(self, monkeypatch):
        # at 16-QAM plain searches tau = 0.5, bitwise tau = 1 and 0.5 and
        # feedback tau = 1: 24 rows on a kc = 3 channel, 12 of them distinct,
        # and one family fit of the three searches those 12 once, through
        # the one kernel binding its row search makes
        bindings, searches = [], []
        kernel = intsearch._se_kernel

        def counted_kernel(k):
            def bind(*tables):
                search = kernel(k)(*tables)
                bindings.append(k)

                def counted(*row):
                    searches.append(k)
                    return search(*row)

                return counted

            return bind

        monkeypatch.setattr(intsearch, "_se_kernel", counted_kernel)
        h = embed_complex(generate_channel(np.random.default_rng(29), 3))
        fit_family([MZFDetector(16, v) for v in ("plain", "bitwise", "feedback")], h)
        assert (bindings, searches) == ([6], [6] * 12)

    def test_lone_scaled_alpha_fit_assembles_once(self, monkeypatch):
        # its alpha step assembles the stage it reads; the alpha = 1
        # assembly is only for members without that step
        calls = count_calls(monkeypatch, detect, ("_combined",))
        h = embed_complex(generate_channel(np.random.default_rng(35), 3))
        MZFDetector(16, "scaled-alpha").fit(h)
        assert calls == {"_combined": 1}
        # with feedback, which reads the first of the two stages, the alpha
        # = 1 assembly covers that stage alone
        family = fit_family([MZFDetector(16, v) for v in ("scaled-alpha", "feedback")], h)
        assert calls == {"_combined": 3}
        for det in family:
            alone = MZFDetector(16, det.variant).fit(h)
            for name in FITTED_ARRAYS:
                assert getattr(det, name).tobytes() == getattr(alone, name).tobytes(), name

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_family_members_equal_their_lone_fits(self, solver):
        # every variant fitted as one family gives each member the bytes of
        # its own fit, nodes_ and exact_ included, in read-only views of the
        # family's stages; a starved sd_budget=10 leaves some rows inexact
        rng = np.random.default_rng(34)
        h = embed_complex(generate_channel(rng, 2)) if solver == "brute" else (
            embed_complex(generate_channel(rng, 3))
        )
        inexact = 0
        for m in (4, 16, 64):
            n0 = snr_to_n0(20.0, make_alphabet(m)).n0
            for equalizer, weighting in (("zf", "printed"), ("lmmse", "physical")):
                options = dict(
                    solver=solver, equalizer=equalizer, noise_weighting=weighting,
                    sd_budget=10, brute_bound=2,
                )
                family = fit_family(
                    [MZFDetector(m, v, **options) for v in MZF_VARIANTS], h, n0
                )
                for det in family:
                    alone = MZFDetector(m, det.variant, **options).fit(h, n0=n0)
                    for name in ("tau_", "hplus_", *FITTED_ARRAYS):
                        a, b = getattr(alone, name), getattr(det, name)
                        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                        assert a.tobytes() == b.tobytes(), name
                        assert not b.flags.writeable, name
                        assert a.flags.writeable or name == "hplus_", name
                    inexact += int(np.count_nonzero(~det.exact_))
                plain, _, bitwise, feedback = family
                # plain takes the last stage and feedback the first
                assert np.shares_memory(plain.q_, bitwise.q_)
                assert np.shares_memory(feedback.comb_, bitwise.comb_)
        assert inexact > 0 or solver != "sd"

    def test_fit_does_not_recheck_its_own_reduction(self, monkeypatch):
        # _check_cache guards the public solve_sd and solve_lll; a fit
        # searches on the reduction it has just made from the same basis
        calls = count_calls(monkeypatch, intsearch, ("_check_cache",))
        h = generate_real_channel(np.random.default_rng(33), 6)
        for solver in ("sd", "lll"):
            MZFDetector(16, solver=solver).fit(h)
        assert calls == {"_check_cache": 0}

    def test_warm_memo_fits_byte_identical(self, monkeypatch):
        # every pinned configuration, fitted once on an empty memo and once
        # on the reduction a fit of its channel at another order and variant
        # left behind (same n0, so an LMMSE basis is shared too)
        for h, n0, det in _fit_configs():
            if det.solver == "brute":  # it reduces nothing, so shares nothing
                continue
            monkeypatch.setattr(intsearch, "_last_reduction", None)
            cold = copy.copy(det).fit(h, n0=n0)
            warm_up = copy.copy(det)
            warm_up.variant = "feedback" if det.variant == "bitwise" else "bitwise"
            warm_up.modulation = 16 if det.modulation == 64 else 64
            monkeypatch.setattr(intsearch, "_last_reduction", None)
            warm_up.fit(h, n0=n0)
            warm = copy.copy(det).fit(h, n0=n0)
            assert warm.reduction_ is warm_up.reduction_
            for name in FITTED_ARRAYS:
                a, b = getattr(cold, name), getattr(warm, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name

    def test_shared_reduction_is_read_only(self):
        h = generate_real_channel(np.random.default_rng(30), 6)
        det = MZFDetector(16, "bitwise").fit(h)
        other = MZFDetector(64, "feedback").fit(h)
        red = det.reduction_
        assert other.reduction_ is red
        shared = [red.bbar, red.t, red.source, *red.doubled_qr, red.bbar_pinv, red.source_pinv]
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        # fitted arrays stay the detector's own
        assert det.q_.flags.writeable and other.q_.flags.writeable
        assert not np.shares_memory(det.q_, other.q_)

    @pytest.mark.usefixtures("fresh_reduction_memo")
    def test_writing_into_the_channel_cannot_poison_the_memo(self):
        h = generate_real_channel(np.random.default_rng(32), 6)
        first = MZFDetector(16).fit(h)
        h[0, 0] += 1.0
        changed = MZFDetector(16).fit(h)
        assert changed.reduction_ is not first.reduction_
        intsearch._last_reduction = None
        fresh = MZFDetector(16).fit(h)
        for name in FITTED_ARRAYS:
            assert getattr(changed, name).tobytes() == getattr(fresh, name).tobytes()
