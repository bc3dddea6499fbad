"""Channel model: complex-to-real embedding, random generation, equalizers.

A complex N x K channel is handled through its real 2N x 2K embedding
[[Re, -Im], [Im, Re]]; all detectors operate on the real model
y = H x + n with noise covariance (N0 / 2) * I.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Relative cutoff below which a singular value counts as zero.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class NoiseSpec:
    """Noise spectral density; the real-noise covariance is (n0 / 2) * I.

    The one check of an n0: a real number (not a str, a complex or a bool),
    finite and >= 0, stored as a float.
    """

    n0: float

    def __post_init__(self):
        n0 = self.n0
        if type(n0) is not float:  # a float skips the numbers.Real test, the slow part
            if isinstance(n0, bool) or not isinstance(n0, numbers.Real):
                raise ValueError(f"noise density must be a real number, got {n0!r}")
            n0 = float(n0)
            object.__setattr__(self, "n0", n0)
        if not math.isfinite(n0) or n0 < 0:
            raise ValueError(f"noise density must be finite and >= 0, got {n0}")


@dataclass(frozen=True)
class ComplexChannel:
    """Complex channel matrix, N receive x K transmit antennas."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked(np.asarray(self.entries, dtype=complex)))


def _checked(m: np.ndarray) -> np.ndarray:
    """m, if it is an N x K matrix with N >= K >= 1 and finite entries, the
    one channel rule; ValueError otherwise."""
    if m.ndim != 2 or m.shape[0] < m.shape[1] or m.shape[1] < 1:
        raise ValueError(f"channel must be N x K with N >= K >= 1, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("channel entries must be finite")
    return m


def _real_channel(channel) -> np.ndarray:
    """The checked real N x K float matrix of a real matrix, a complex one
    (ndarray or nested list) or a ComplexChannel, whose entries may have
    been written to since; a complex form is checked before its embedding,
    so a refusal names the shape it was given."""
    h = np.asarray(channel.entries if isinstance(channel, ComplexChannel) else channel)
    if np.iscomplexobj(h):
        return embed_complex(_checked(h))
    return _checked(h.astype(float))


def embed_complex(mat) -> np.ndarray:
    """Real embedding of a complex matrix or vector.

    Matrices map to [[Re, -Im], [Im, Re]]; vectors stack Re over Im.  The
    embedding is a ring homomorphism, so embed(A) @ embed(B) == embed(A @ B).
    """
    if isinstance(mat, ComplexChannel):
        mat = mat.entries
    m = np.asarray(mat, dtype=complex)
    re, im = m.real, m.imag
    if m.ndim == 1:
        return np.concatenate([re, im])
    if m.ndim != 2:
        raise ValueError(f"expected a matrix or vector, got ndim={m.ndim}")
    n, k = m.shape
    out = np.empty((2 * n, 2 * k))
    out[:n, :k] = re
    np.negative(im, out=out[:n, k:])
    out[n:, :k] = im
    out[n:, k:] = re
    return out


def generate_channel(rng: np.random.Generator, kc: int) -> ComplexChannel:
    """Draw a kc x kc complex channel with N(0, 1) real and imaginary parts.

    Every entry of the real embedding is then zero-mean unit-variance; the
    complex entries have variance 2.
    """
    if kc < 1:
        raise ValueError(f"need at least one antenna, got kc={kc}")
    re = rng.standard_normal((kc, kc))
    im = rng.standard_normal((kc, kc))
    return ComplexChannel(re + 1j * im)


def generate_real_channel(rng: np.random.Generator, k: int) -> np.ndarray:
    """Unstructured k x k real i.i.d. N(0, 1) channel.

    Comparison variant without the block structure the complex embedding
    imposes; the simulation default uses generate_channel + embed_complex.
    """
    if k < 1:
        raise ValueError(f"need at least one dimension, got k={k}")
    return rng.standard_normal((k, k))


def pseudo_inverse(h) -> np.ndarray:
    """Left pseudo-inverse of a full-column-rank real matrix.

    Raises if any singular value falls below RANK_RTOL times the largest,
    naming the offending index, or if the inverse overflows; a matrix that
    breaks the channel rule (wide, or an entry not finite) is refused first.
    """
    h = _checked(np.asarray(h, dtype=float))
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    tol = RANK_RTOL * s[0] if s.size else 0.0
    bad = np.flatnonzero(s <= tol)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"rank-deficient matrix, columns linearly dependent: singular value {i}"
            f" is {s[i]:.3e} (tolerance {tol:.3e})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        hplus = (vt.T / s) @ u.T
    if not np.all(np.isfinite(hplus)):
        raise ValueError(
            f"pseudo-inverse is not finite: the smallest singular value {s[-1]:.3e}"
            " overflows its reciprocal"
        )
    return hplus


# ((shape, strides, bytes), read-only pseudo-inverse) of the last
# _pseudo_inverse call
_last_pseudo_inverse = None


def _pseudo_inverse(h) -> np.ndarray:
    """pseudo_inverse(h), read-only and shared: the last result again when h
    has its shape, layout and bytes.  Every detector fitted to one channel
    applies the rank rule through this one SVD.  The key holds a copy of
    the bytes, so a caller that later writes into h cannot alter the entry;
    a refused matrix raises on every call and is never stored."""
    global _last_pseudo_inverse
    h = np.asarray(h, dtype=float)
    key = (h.shape, h.strides, h.tobytes())
    if _last_pseudo_inverse is None or _last_pseudo_inverse[0] != key:
        hplus = pseudo_inverse(h)
        hplus.flags.writeable = False
        _last_pseudo_inverse = (key, hplus)
    return _last_pseudo_inverse[1]


def lmmse_inverse(h, noise: NoiseSpec) -> np.ndarray:
    """Regularized equalizer Ht (H Ht + N0 I)^-1 (real case).

    h must pass the channel rule, and at n0 = 0, the ZF limit,
    pseudo_inverse's rank rule.
    """
    h = _checked(np.asarray(h, dtype=float))
    if noise.n0 == 0:
        _pseudo_inverse(h)
    gram = h @ h.T + noise.n0 * np.eye(h.shape[0])
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as err:
        raise ValueError(
            f"equalizer Gram matrix is singular (n0={noise.n0})"
        ) from err
    return h.T @ inv


def mmse_error_matrix(hplus, h, noise: NoiseSpec) -> np.ndarray:
    """Residual interference-plus-noise matrix [Hplus H - I, N0 Hplus].

    With an exact pseudo-inverse the left block vanishes and only the noise
    block remains.
    """
    hplus = np.asarray(hplus, dtype=float)
    h = np.asarray(h, dtype=float)
    left = hplus @ h - np.eye(hplus.shape[0])
    return np.hstack([left, noise.n0 * hplus])
