"""PAM constellations, quantizers, and the additive bit mapping.

The real-valued model of an M-QAM link carries sqrt(M)-PAM symbols per
dimension, drawn from the odd integers {+-1, +-3, ..., +-(sqrt(M)-1)}.
The modulus detector additionally needs a scale tau chosen so that the
distance from 2 to the largest point of tau*A is half the point spacing,
which gives tau = 2**(1 - log2(sqrt(M))).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PamAlphabet:
    """Real PAM point set for one dimension of an M-QAM constellation."""

    m: int                 # complex QAM cardinality, power of 4
    sqrt_m: int
    points: np.ndarray     # odd integers, ascending
    nbits: int             # log2(sqrt_m) bits per real symbol
    tau: float             # modulus scale, 2**(1 - nbits)
    energy: float          # mean square of points, (m - 1) / 3
    tie_order: np.ndarray  # points as floats sorted by (|p|, p), the quantizer's tie rule


def check_count(value, name: str, low: int) -> None:
    """Raise ValueError unless value is an integer >= low; a bool or a float
    is refused even where it equals an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


# order -> its alphabet; every fit and config check asks for the same few
_ALPHABETS: dict[int, PamAlphabet] = {}


def make_alphabet(m: int) -> PamAlphabet:
    """The sqrt(M)-PAM alphabet for M-QAM, M an integer power of 4.

    One object per order is built and shared, so its arrays are read-only.
    """
    check_count(m, "modulation", 4)
    m = int(m)
    if m in _ALPHABETS:
        return _ALPHABETS[m]
    nbits = round(np.log2(m) / 2)
    if 4**nbits != m:
        raise ValueError(f"modulation order must be a power of 4, got {m}")
    sqrt_m = 2**nbits
    points = np.arange(-(sqrt_m - 1), sqrt_m, 2, dtype=np.int64)
    tie_order = np.array(sorted(points.tolist(), key=lambda p: (abs(p), p)), dtype=float)
    points.flags.writeable = tie_order.flags.writeable = False
    _ALPHABETS[m] = alphabet = PamAlphabet(
        m=m,
        sqrt_m=sqrt_m,
        points=points,
        nbits=nbits,
        tau=2.0 ** (1 - nbits),
        energy=(m - 1) / 3.0,
        tie_order=tie_order,
    )
    return alphabet


def quantize_pam(v, alphabet: PamAlphabet, scale: float = 1.0):
    """Quantize to the nearest point of scale*points.

    Ties go to the point of smaller absolute value, and between +-p to -p,
    so quantization is deterministic and platform independent.  v is
    clipped to the outer points first: beyond them the distance table would
    lose its resolution and send a huge v to the tie rule's first point.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    pts = scale * alphabet.tie_order
    edge = scale * (alphabet.sqrt_m - 1)
    # np.clip's bytes at half its call overhead
    v_arr = np.minimum(np.maximum(np.asarray(v, dtype=float), -edge), edge)
    d = np.abs(v_arr[..., None] - pts)
    idx = np.argmin(d, axis=-1)  # first hit wins, order encodes the tie rule
    out = pts[idx]
    return out if v_arr.ndim else float(out)


def quantize_int(v):
    """Nearest integer; halfway ties round to the even integer."""
    out = np.rint(np.asarray(v, dtype=float)).astype(np.int64)
    return out if np.ndim(v) else int(out)


def quantize_even_int(v):
    """Nearest even integer; halfway ties round toward smaller magnitude."""
    h = np.asarray(v, dtype=float) / 2.0
    out = (2 * np.sign(h) * np.ceil(np.abs(h) - 0.5)).astype(np.int64)
    return out if np.ndim(v) else int(out)


def bits_to_symbol(u):
    """Map +-1 bits to odd PAM points; the bits run along the last axis,
    index 0 being the weight-1 layer.

    One bit vector gives an int, a stack of them an int64 array of the
    leading shape.
    """
    u = np.asarray(u, dtype=np.int64)
    if u.ndim < 1 or not np.all(np.abs(u) == 1):
        raise ValueError("bits must have +-1 entries along a last axis")
    out = u @ 2 ** np.arange(u.shape[-1], dtype=np.int64)
    return int(out) if u.ndim == 1 else out


def symbol_to_bits(x, nbits: int) -> np.ndarray:
    """Invert bits_to_symbol: the +-1 bits of each odd point x, with
    |x| <= 2**nbits - 1, along a new last axis of length nbits.

    Bit j is 2 b_j - 1 with b_j = ((x + 2**nbits - 1) / 2 >> j) & 1.
    """
    x = np.asarray(x)
    mask = 2**nbits - 1
    half = (x.astype(np.int64) + mask) // 2
    u = 2 * (half[..., None] >> np.arange(nbits) & 1) - 1
    # an even, fractional or out-of-range x does not map back from its bits,
    # whose symbol is 2 * (half & mask) - mask
    back = 2 * (half & mask) - mask
    if not np.array_equal(back, x):
        bad = x[back != x].flat[0]
        raise ValueError(f"symbol {bad} is not an odd point of the {nbits}-bit alphabet")
    return u


def random_symbols(rng: np.random.Generator, alphabet: PamAlphabet, k: int) -> np.ndarray:
    """Draw k i.i.d. uniform symbols from the alphabet."""
    if k < 1:
        raise ValueError(f"need at least one symbol, got k={k}")
    idx = rng.integers(0, alphabet.sqrt_m, size=k)
    return alphabet.points[idx].astype(float)
