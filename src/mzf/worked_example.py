"""Reference 4x4 worked example, executed in exact rational arithmetic.

A fixed integer channel with known inverse (denominator 185) exercises the
whole modulus detection chain end to end: equalizer, per-layer even-integer
search, degeneracy handling, fold branch, and quantization.  All values are
checked as exact fractions; the float pipeline is cross-checked against the
rational one at 1e-12.

Two discrepancies between the published walk-through of this example and
exact evaluation are reported explicitly:

* its layer-2 fold value is printed as -7/38 where exact evaluation of the
  stated fold gives -41/185 (both quantize to -1);
* its layer-4 detection applies the always-odd fold branch although the
  stated two-branch rule selects the even branch there (half the
  perturbation sum is 0).  The two branches give 357/185 (symbol +1) and
  -13/185 (symbol -1) respectively; parity mode "paper-literal" reproduces
  the printed choice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .detect import MZFDetector, ZFDetector
from .modarith import ParityContext, branch_parity, mod_recover

CHANNEL = (
    (-6, 0, -1, 5),
    (-3, -2, -1, 1),
    (1, -5, -6, 0),
    (1, -1, -3, -2),
)
SYMBOLS = (1, -1, -1, 1)
OBSERVATION = (3, 1, 15, 11)
DENOM = 185

# reference values, all exact
HPLUS_NUM = (
    (-5, -55, 30, -40),
    (35, -59, -25, 58),
    (-30, 40, -5, -55),
    (25, -58, 35, -59),
)
ZF_NUM = (-60, 309, -730, -107)
ZF_SYMBOLS = (-1, 1, -1, -1)
DEGENERATE_LAYERS = (1, 3)           # 1-based
OPTIMAL_COST = Fraction(27, 185)     # layers 2 and 4
GAMMA_BEFORE = Fraction(185, 47)
GAMMA_AFTER = Fraction(185, 27)
Q_ROW_2 = (0, 0, 2, 0)
Q_ROW_4 = (2, 0, 0, -2)
R_2 = Fraction(-1151, 185)
R_4 = Fraction(-13, 185)
Z_2 = Fraction(-41, 185)
Z_2_PRINTED = Fraction(-7, 38)
Z_4_EVEN_BRANCH = Fraction(-13, 185)
Z_4_PRINTED = Fraction(357, 185)
FINAL_SYMBOLS = {
    "derived": (-1, -1, -1, -1),
    "paper-literal": (-1, -1, -1, 1),
}

DISCREPANCY_NOTES = (
    "published layer-2 fold value -7/38 differs from exact evaluation "
    "-41/185; both quantize to -1",
    "published layer-4 detection uses the always-odd fold (357/185 -> +1) "
    "although the two-branch rule selects the even fold (-13/185 -> -1); "
    "parity mode paper-literal reproduces the printed choice",
)


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class ExampleReport:
    parity: str
    checks: tuple
    notes: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def exact_inverse(matrix) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over exact rationals; square input only."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_piv = 1 / aug[col][col]
        aug[col] = [v * inv_piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _exact_layer_search(num_rows: np.ndarray, layer: int, bound: int = 8):
    """Integer brute force over even q in a box; cost scaled by DENOM**2.

    Returns (min cost as Fraction, degenerate flag).  A layer is degenerate
    exactly when the zero perturbation already attains the minimum, since
    self-only perturbations cannot beat it at unit scale.
    """
    values = range(-bound, bound + 1, 2)
    delta = np.zeros(4, dtype=np.int64)
    delta[layer] = 1
    best = None
    for q in itertools.product(values, repeat=4):
        row = (delta + np.array(q, dtype=np.int64)) @ num_rows
        cost = int(row @ row)
        if best is None or cost < best:
            best = cost
    zero_cost = int(num_rows[layer] @ num_rows[layer])
    return Fraction(best, DENOM**2), zero_cost == best


def _fold_exact(r: Fraction, half_q_sum: int, parity: str) -> Fraction:
    if parity == "paper-literal":
        return mod_recover(r, 1, True)
    return mod_recover(r, 1, branch_parity(ParityContext(half_q_sum)))


def _quantize_pm1(z: Fraction) -> int:
    return 1 if z >= 0 else -1


def run_worked_example(parity: str = "derived") -> ExampleReport:
    """Execute the reference example and compare every stage exactly."""
    if parity not in FINAL_SYMBOLS:
        raise ValueError(f"parity must be one of {tuple(FINAL_SYMBOLS)}, got {parity!r}")
    checks: list[ExampleCheck] = []

    def check(name, expected, actual):
        checks.append(
            ExampleCheck(
                name=name,
                expected=repr(expected),
                actual=repr(actual),
                passed=expected == actual,
            )
        )

    hplus = exact_inverse(CHANNEL)
    hplus_num = tuple(tuple(int(v * DENOM) for v in row) for row in hplus)
    check("equalizer matrix x185", HPLUS_NUM, hplus_num)

    zf_est = [sum(hplus[i][j] * OBSERVATION[j] for j in range(4)) for i in range(4)]
    check("zero-forcing estimate x185", ZF_NUM, tuple(int(v * DENOM) for v in zf_est))
    check("zero-forcing symbols", ZF_SYMBOLS, tuple(_quantize_pm1(v) for v in zf_est))

    num_rows = np.array(HPLUS_NUM, dtype=np.int64)
    costs = []
    degenerate = []
    for layer in range(4):
        cost, degen = _exact_layer_search(num_rows, layer)
        costs.append(cost)
        degenerate.append(degen)
    check(
        "degenerate layers",
        DEGENERATE_LAYERS,
        tuple(i + 1 for i, d in enumerate(degenerate) if d),
    )
    check("layer-2 search cost", OPTIMAL_COST, costs[1])
    check("layer-4 search cost", OPTIMAL_COST, costs[3])

    norm2 = Fraction(int(num_rows[1] @ num_rows[1]), DENOM**2)
    check("layer-2 post-SNR before", GAMMA_BEFORE, 1 / norm2)
    check("layer-2 post-SNR after", GAMMA_AFTER, 1 / costs[1])

    # detection of the two non-degenerate layers with the reference rows
    r2 = sum((Fraction(int(k == 1)) + Q_ROW_2[k]) * zf_est[k] for k in range(4))
    r4 = sum((Fraction(int(k == 3)) + Q_ROW_4[k]) * zf_est[k] for k in range(4))
    check("layer-2 combined value", R_2, r2)
    check("layer-4 combined value", R_4, r4)

    z2 = _fold_exact(r2, sum(Q_ROW_2) // 2, parity)
    check("layer-2 fold value", Z_2, z2)
    z4 = _fold_exact(r4, sum(Q_ROW_4) // 2, parity)
    check(
        "layer-4 fold value",
        Z_4_PRINTED if parity == "paper-literal" else Z_4_EVEN_BRANCH,
        z4,
    )

    final = (
        _quantize_pm1(zf_est[0]),
        _quantize_pm1(z2),
        _quantize_pm1(zf_est[2]),
        _quantize_pm1(z4),
    )
    check("modulus-detector symbols", FINAL_SYMBOLS[parity], final)

    # cross-check the float pipeline against the rational one; the symbol
    # comparison runs under the derived parity rule, where equal-cost
    # mirrored perturbations provably give the same decisions
    h = np.array(CHANNEL, dtype=float)
    y = np.array(OBSERVATION, dtype=float)
    det = MZFDetector(modulation=4, solver="sd", parity="derived").fit(h)
    plan_costs_ok = all(
        abs(det.cost_[0, k] - float(costs[k])) < 1e-12 for k in range(4)
    )
    check("float plan costs match exact costs", True, plan_costs_ok)
    check(
        "float degeneracy flags", tuple(degenerate), tuple(det.degenerate_[0].tolist())
    )
    check(
        "float detector symbols (derived parity)",
        FINAL_SYMBOLS["derived"],
        tuple(int(s) for s in det.detect(y).symbols),
    )
    zf_float = ZFDetector(modulation=4).fit(h)
    check(
        "float zero-forcing symbols",
        ZF_SYMBOLS,
        tuple(int(s) for s in zf_float.detect(y).symbols),
    )

    return ExampleReport(parity=parity, checks=tuple(checks), notes=DISCREPANCY_NOTES)
