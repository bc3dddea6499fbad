"""Modulus recovery tests, largely in exact rational arithmetic."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mzf.modarith import ParityContext, branch_parity, mod_recover


class TestModRecover:
    def test_hand_example(self):
        # 0.5 buried under one even-odd product 2 * 3
        assert mod_recover(6.5, 1, True) == pytest.approx(0.5)

    def test_identity_when_no_perturbation(self):
        for z in (Fraction(-19, 10), Fraction(0), Fraction(3, 2), Fraction(199, 100)):
            assert mod_recover(z, 1, False) == z

    def test_reference_layer_two(self):
        r = Fraction(-1151, 185)
        assert mod_recover(r, 1, True) == Fraction(-41, 185)

    def test_alpha_two(self):
        assert mod_recover(5, 2, True) == 1

    def test_output_range(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            alpha = float(rng.uniform(1, 4))
            y = float(rng.uniform(-100, 100))
            for parity in (True, False):
                out = mod_recover(y, alpha, parity)
                assert -2 * alpha <= out < 2 * alpha

    def test_periodicity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            alpha = Fraction(int(rng.integers(1, 4)))
            y = Fraction(int(rng.integers(-1000, 1000)), 257)
            t = int(rng.integers(-5, 6))
            for parity in (True, False):
                assert mod_recover(y + 4 * alpha * t, alpha, parity) == mod_recover(
                    y, alpha, parity
                )

    def test_round_trip_exact(self):
        # recovery is exact for any |z| < 2*alpha under even-times-odd
        # interference, on the branch picked by the half-sum parity
        rng = np.random.default_rng(2)
        for _ in range(2000):
            alpha = Fraction(int(rng.integers(1, 5)))
            z = Fraction(int(rng.integers(-1999, 2000)), 1000) * alpha
            n_terms = int(rng.integers(1, 7))
            p = [2 * int(v) for v in rng.integers(-9, 10, size=n_terms)]
            b = [2 * int(v) + 1 for v in rng.integers(-9, 10, size=n_terms)]
            y = z + alpha * sum(pi * bi for pi, bi in zip(p, b))
            parity_odd = (sum(p) // 2) % 2 == 1
            assert mod_recover(y, alpha, parity_odd) == z

    def test_vectorized(self):
        out = mod_recover(np.array([6.5, -1.5]), 1, True)
        assert out.tolist() == [0.5, 0.5]


class TestBranchParity:
    def test_symbol_mode(self):
        assert branch_parity(ParityContext(1)) is True
        assert branch_parity(ParityContext(0)) is False
        assert branch_parity(ParityContext(-3)) is True
        assert branch_parity(ParityContext(2)) is False

    def test_bit_mode_flips_below_top_layer(self):
        assert branch_parity(ParityContext(0, layer=1, nlayers=2)) is True
        assert branch_parity(ParityContext(1, layer=1, nlayers=2)) is False
        assert branch_parity(ParityContext(0, layer=2, nlayers=2)) is False
        assert branch_parity(ParityContext(1, layer=2, nlayers=2)) is True
        assert branch_parity(ParityContext(0, layer=2, nlayers=3)) is True

    def test_bit_mode_oracle(self):
        # noiseless recovery of the weight-1 bit for every symbol combination:
        # only the flipped branch recovers it, the unflipped branch fails
        # somewhere
        k, nlayers = 2, 2
        q = (0, 2)  # perturbation for layer 0, half sum 1
        ctx = ParityContext(sum(q) // 2, layer=1, nlayers=nlayers)
        flipped_ok = True
        unflipped_ok = True
        for u in itertools.product((-1, 1), repeat=2 * k):
            x = [u[2 * i] + 2 * u[2 * i + 1] for i in range(k)]
            r = Fraction(x[0]) + sum(qi * xi for qi, xi in zip(q, x))
            z = mod_recover(r, 1, branch_parity(ctx))
            flipped_ok = flipped_ok and (1 if z >= 0 else -1) == u[0] and z == u[0]
            z_bad = mod_recover(r, 1, not branch_parity(ctx))
            unflipped_ok = unflipped_ok and (1 if z_bad >= 0 else -1) == u[0]
        assert flipped_ok
        assert not unflipped_ok

    def test_rejects_bad_layer(self):
        with pytest.raises(ValueError):
            ParityContext(0, layer=3, nlayers=2)
        with pytest.raises(ValueError):
            ParityContext(0, layer=-1)


class TestRecoverZ:
    def test_reference_layer_two(self):
        ctx = ParityContext(1)
        z = mod_recover(Fraction(-1151, 185), 1, branch_parity(ctx))
        assert z == Fraction(-41, 185)
        assert z < 0  # quantizes to -1, the transmitted symbol

    def test_noiseless_symbolic_instances(self):
        # r assembled exactly as tau x_k + sum q_l x_l must fold back to
        # tau x_k, for random 16-point instances in exact arithmetic
        rng = np.random.default_rng(3)
        tau = Fraction(1, 2)
        for _ in range(2000):
            k = 4
            x = [2 * int(v) + 1 for v in rng.integers(-2, 2, size=k)]
            q = [2 * int(v) for v in rng.integers(-4, 5, size=k)]
            r = tau * x[0] + sum(qi * xi for qi, xi in zip(q, x))
            ctx = ParityContext(sum(q) // 2)
            assert mod_recover(r, 1, branch_parity(ctx)) == tau * x[0]

    def test_alpha_two_example(self):
        assert mod_recover(5, 2, branch_parity(ParityContext(1))) == 1
