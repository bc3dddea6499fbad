"""Modulus recovery of a bounded value buried under even-integer interference.

Given y = z + alpha * sum_m p_m * b_m with |z| < 2 (scaled by alpha), every
p_m even and every b_m odd, z is recovered exactly by a mod-4*alpha fold
whose branch depends on the parity of (1/2) * sum_m p_m.  mod_recover is
numeric-type agnostic: floats, numpy arrays and fractions.Fraction all
work, which lets golden tests run in exact rational arithmetic, and its
alpha and parity broadcast against an array y, one branch per element.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ParityContext:
    """Branch-selection context for one detection layer.

    half_q_sum is (1/2) * sum of the even perturbation entries.  layer is the
    1-based bit layer under detection, with 0 meaning symbol-wise detection;
    nlayers is the total number of bit layers.
    """

    half_q_sum: int
    layer: int = 0
    nlayers: int = 1

    def __post_init__(self):
        if not 0 <= self.layer <= self.nlayers:
            raise ValueError(
                f"bit layer {self.layer} outside [0, {self.nlayers}]"
            )


def mod_recover(y, alpha=1, parity_odd=True):
    """Fold y into [-2*alpha, 2*alpha) on the branch selected by the parity.

    Uses floored modulo (result in [0, 4*alpha)), so negative inputs wrap
    upward.  With parity_odd the fold is (y mod 4a) - 2a, otherwise
    ((y + 2a) mod 4a) - 2a.  Both are one fold of y shifted by 2a - 2a *
    parity_odd, so alpha and parity_odd may be arrays that broadcast
    against y; the odd branch's shift of 0 alters only -0.0, which folds
    as +0.0 does.
    """
    half = 2 * alpha
    return ((y + (half - half * parity_odd)) % (4 * alpha)) - half


def branch_parity(ctx: ParityContext) -> bool:
    """True when the odd-parity branch of mod_recover applies.

    Symbol-wise (layer 0): the branch follows the parity of half_q_sum.
    Bit-wise at layer n < nlayers: the not-yet-detected higher bits act as one
    extra even perturbation whose half-sum is always odd, so the branch flips
    exactly once.  At the top layer there is no residual and no flip.
    """
    base = ctx.half_q_sum % 2 == 1
    if 1 <= ctx.layer < ctx.nlayers:
        return not base
    return base
