"""Property tests for the array forms block detection relies on: the bit
map, the PAM quantizer and the per-element fold, each against scalar
references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mzf.alphabet import bits_to_symbol, make_alphabet, quantize_pam, symbol_to_bits
from mzf.modarith import mod_recover, mod_recover_each

# derandomized and without an example database, so every run checks the
# same examples
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _bits_reference(x: int, nbits: int) -> np.ndarray:
    """Greedy top-down bit map, one symbol at a time."""
    u = np.empty(nbits, dtype=np.int64)
    res = x
    for b in range(nbits - 1, -1, -1):
        u[b] = 1 if res > 0 else -1
        res -= u[b] * 2**b
    return u


@st.composite
def symbol_blocks(draw):
    nbits = draw(st.integers(1, 4))
    points = make_alphabet(4**nbits).points.tolist()
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    flat = draw(st.lists(st.sampled_from(points), min_size=rows * cols, max_size=rows * cols))
    return nbits, np.array(flat, dtype=float).reshape(rows, cols)


@PROPERTY
@given(symbol_blocks())
def test_bit_map_matches_scalar_reference(case):
    nbits, x = case
    bits = symbol_to_bits(x, nbits)
    assert bits.dtype == np.int64
    assert bits.shape == x.shape + (nbits,)
    want = np.array([_bits_reference(int(s), nbits) for s in x.flat]).reshape(bits.shape)
    assert np.array_equal(bits, want)
    assert np.array_equal(symbol_to_bits(int(x.flat[0]), nbits), want.reshape(-1, nbits)[0])
    assert np.array_equal(bits[..., -1], np.sign(x).astype(np.int64))
    assert np.array_equal(bits_to_symbol(bits), x.astype(np.int64))
    assert bits_to_symbol(bits.reshape(-1, nbits)[0]) == int(x.flat[0])


@st.composite
def quantizer_inputs(draw):
    alphabet = make_alphabet(draw(st.sampled_from([4, 16, 64])))
    scale = draw(st.sampled_from([1.0, alphabet.tau, 0.3]))
    top = alphabet.sqrt_m
    # even multiples of the scale are the decision boundaries, where ties fall
    ties = st.integers(-top, top).map(lambda j: 2 * j * scale)
    values = draw(st.lists(st.one_of(FINITE, ties), min_size=1, max_size=40))
    return alphabet, scale, np.array(values)


@PROPERTY
@given(quantizer_inputs())
def test_quantizer_array_matches_scalar_calls(case):
    alphabet, scale, v = case
    out = quantize_pam(v, alphabet, scale=scale)
    points = alphabet.points.tolist()
    for vi, oi in zip(v.tolist(), out.tolist()):
        assert quantize_pam(vi, alphabet, scale=scale) == oi
        # nearest point; ties to the smaller magnitude, then to the negative
        best = min(points, key=lambda p: (abs(vi - p * scale), abs(p), p))
        assert oi == best * scale


@st.composite
def fold_inputs(draw):
    n = draw(st.integers(1, 30))
    r = draw(st.lists(FINITE, min_size=n, max_size=n))
    scales = st.one_of(st.just(1.0), st.floats(1.0, 8.0))
    alpha = draw(st.lists(scales, min_size=n, max_size=n))
    odd = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(r), np.array(alpha), np.array(odd)


@PROPERTY
@given(fold_inputs())
def test_fold_matches_scalar_mod_recover_on_both_branches(case):
    r, alpha, odd = case
    out = mod_recover_each(r, alpha, odd)
    for ri, ai, oi, zi in zip(r.tolist(), alpha.tolist(), odd.tolist(), out.tolist()):
        want = mod_recover(ri, ai, oi)
        assert zi == want and np.signbit(zi) == np.signbit(want)
    # one branch for every element is the scalar-branch array call
    assert np.array_equal(mod_recover_each(r, alpha, True), mod_recover(r, alpha, True))
    assert np.array_equal(mod_recover_each(r, alpha, False), mod_recover(r, alpha, False))
