"""Relations the exact even-integer optimum obeys at any K, checked on MZF
fits at K = 12 to 24: past the box oracle's K <= 4, and past one level group
of the generated enumeration kernel at K = 20 and 24.

A bitwise 16-QAM fit searches every layer at tau = 1 and 0.5.  Where the
searches of a (stage, layer) on both sides of a relation are exact, their
costs must agree to REL; the rows where either is not exact are counted and
skipped, and at most a tenth of them may be.
"""

import numpy as np
import pytest

from mzf.channel import embed_complex, generate_channel, generate_real_channel
from mzf.detect import MZFDetector

REL = 1e-10
DIMS = (12, 16, 20, 24)
CHANNELS = 3


def fit(h, **options):
    return MZFDetector(16, "bitwise", **options).fit(h)


def real_fits(k):
    """(rng, h, fit of h) for CHANNELS real k x k channels, the rng then
    drawing each channel's transform."""
    rng = np.random.default_rng([53, k])
    for _ in range(CHANNELS):
        h = generate_real_channel(rng, k)
        yield rng, h, fit(h)


def assert_costs_agree(cost, exact, other_cost, other_exact) -> int:
    """Check the costs where both rows are exact; returns the rows skipped."""
    both = exact & other_exact
    gap = np.abs(cost - other_cost)[both]
    scale = np.maximum(np.abs(cost), np.abs(other_cost))[both]
    assert np.all(gap <= REL * scale), float(np.max(gap / scale))
    return int(np.count_nonzero(~both))


def assert_few_skipped(skipped: int, rows: int) -> None:
    assert skipped <= rows // 10, f"{skipped} of {rows} rows not exact"


@pytest.mark.parametrize("k", DIMS)
def test_column_permutation_and_signs_permute_the_costs(k):
    # column j of H P S is s_j times column perm[j] of H: its layer j is
    # layer perm[j] of H, and the sign flips q
    skipped = 0
    for rng, h, det in real_fits(k):
        perm, signs = rng.permutation(k), rng.choice([-1.0, 1.0], k)
        other = fit(h[:, perm] * signs)
        skipped += assert_costs_agree(
            det.cost_[:, perm], det.exact_[:, perm], other.cost_, other.exact_
        )
    assert_few_skipped(skipped, CHANNELS * det.cost_.size)


@pytest.mark.parametrize("k", DIMS)
def test_receive_rotation_keeps_the_costs(k):
    # U H has the pseudo-inverse H^+ U^T: every lattice point and target
    # turns by U^T, which keeps every distance
    skipped = 0
    for rng, h, det in real_fits(k):
        u, _ = np.linalg.qr(rng.standard_normal((k, k)))
        other = fit(u @ h)
        skipped += assert_costs_agree(det.cost_, det.exact_, other.cost_, other.exact_)
    assert_few_skipped(skipped, CHANNELS * det.cost_.size)


@pytest.mark.parametrize("k", DIMS)
def test_doubled_channel_quarters_the_costs_byte_for_byte(k):
    # scaling by 2 is exact in binary floating point, so every comparison
    # of the search falls the same way: the same points and node counts,
    # and costs a quarter of the bytes
    for _, h, det in real_fits(k):
        other = fit(2.0 * h)
        assert other.cost_.tobytes() == (0.25 * det.cost_).tobytes()
        for name in ("q_", "nodes_", "exact_"):
            assert getattr(other, name).tobytes() == getattr(det, name).tobytes(), name


@pytest.mark.parametrize("kc", [k // 2 for k in DIMS])
def test_complex_layers_pair_up(kc):
    # the embedding's lattice and targets are closed under multiplication
    # by i, which takes layer k to layer k + kc
    rng = np.random.default_rng([54, kc])
    skipped = 0
    for _ in range(CHANNELS):
        det = fit(embed_complex(generate_channel(rng, kc)))
        real, imag = np.split(det.cost_, 2, axis=1)
        real_exact, imag_exact = np.split(det.exact_, 2, axis=1)
        skipped += assert_costs_agree(real, real_exact, imag, imag_exact)
    assert_few_skipped(skipped, CHANNELS * real.size)


@pytest.mark.parametrize("k", DIMS)
def test_lll_delta_does_not_move_the_optimum(k):
    # delta = 0.99 reduces the basis further than 0.75; the exact searches
    # on either reduction reach the same optimum
    skipped = 0
    for _, h, det in real_fits(k):
        other = fit(h, lll_delta=0.99)
        skipped += assert_costs_agree(det.cost_, det.exact_, other.cost_, other.exact_)
    assert_few_skipped(skipped, CHANNELS * det.cost_.size)
