"""MIMO detector suite with a fit/predict estimator API.

fit() performs the per-coherence-interval preprocessing (equalizer
matrices, lattice reduction, per-layer even-integer searches) and predict()
detects channel observations, one vector or an n_obs x N block at a time,
so one fitted detector serves every observation drawn while the channel
stays constant.  Constructor arguments are stored verbatim and checked by
_validate_params, the first step of fit; fitted state carries a trailing
underscore.  Every detector detects through one method, _block, which
takes an n_obs x N block and returns the symbols or the bits, whichever
it decides in; detect() is a block of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alphabet import (
    bits_to_symbol,
    check_count,
    make_alphabet,
    quantize_pam,
    quantize_int,
    symbol_to_bits,
)
from .channel import (
    NoiseSpec,
    _pseudo_inverse,
    _real_channel,
    lmmse_inverse,
    mmse_error_matrix,
)
from .intsearch import (
    _brute_rows,
    _lll_rows,
    _qr_positive,
    _reduce,
    _solve_sd_rows,
    _triangle,
    check_lll_delta,
    lll_reduce,
)
from .modarith import ParityContext, branch_parity, mod_recover
from .rowwise import apply, dots, times

MZF_VARIANTS = ("plain", "scaled-alpha", "bitwise", "feedback")
SOLVERS = ("sd", "lll", "brute")
EQUALIZERS = ("zf", "lmmse")
PARITY_MODES = ("derived", "paper-literal")
NOISE_WEIGHTINGS = ("printed", "physical")
LAR_MODES = ("shifted", "literal")


@dataclass(frozen=True)
class PerturbationPlan:
    """One (stage, layer) entry of a fitted MZFDetector's arrays.

    q is the even perturbation (all zero when the layer is degenerate) and
    combining_row is (tau * delta_k + alpha * q) @ Hplus precomputed, the
    plain equalizer row tau * delta_k @ Hplus on a degenerate layer.
    """

    layer: int
    bit_layer: int  # 1-based bit layer; 0 for symbol-wise plans
    q: np.ndarray
    tau: float
    alpha: float
    combining_row: np.ndarray
    degenerate: bool
    parity: ParityContext
    cost: float
    exact: bool
    nodes: int = 0  # search nodes the solver visited (0 for solver="lll")


@dataclass(frozen=True)
class DetectionResult:
    """Hard decisions for one observation.

    symbols hold alphabet points, bits the +-1 matrix (column 0 is the
    weight-1 layer), layer_z the pre-quantization diagnostics: a vector for
    symbol-wise detectors, one column per bit stage otherwise.
    """

    symbols: np.ndarray
    bits: np.ndarray
    layer_z: np.ndarray


def optimize_alpha(q, k: int, tau: float, hplus) -> tuple[float, np.ndarray]:
    """Best modulus scale >= 1 for a fixed perturbation.

    Minimizes ||(tau * delta_k + alpha * q) Hplus||^2 over |alpha| >= 1 in
    closed form.  A negative unconstrained optimum is absorbed by flipping
    the sign of q (still even), so the returned pair always has alpha >= 1.
    """
    q = np.asarray(q, dtype=np.int64)
    if not q.any():
        raise ValueError("alpha optimization needs a nonzero perturbation")
    hplus = np.asarray(hplus, dtype=float)
    d = tau * hplus[k]
    u = q @ hplus
    a0 = -float(d @ u) / float(u @ u)
    if a0 < 0:
        q = -q
        a0 = -a0
    return max(a0, 1.0), q


def _check_choice(name: str, value, allowed: tuple) -> None:
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


class MimoDetector:
    """Base class wiring the estimator conventions; subclasses implement
    _fit(h, noise), which gets the checked real channel and NoiseSpec, and
    _block(y), and may override __init__ and _validate_params()."""

    def __init__(self, modulation: int = 4):
        self.modulation = modulation

    def fit(self, channel, n0: float = 0.0):
        alphabet = make_alphabet(self.modulation)  # refuses a bad order first
        self._validate_params()
        h = _real_channel(channel)
        noise = NoiseSpec(n0)  # the one check of n0
        self._bind(h, noise, alphabet)
        self._fit(h, noise)
        return self

    def _bind(self, h, noise: NoiseSpec, alphabet) -> None:
        """Keep the checked channel, its dimension, n0 and the alphabet as
        the fitted state every detector has."""
        self.h_ = h
        self.k_ = h.shape[1]
        self.n0_ = noise.n0
        self.alphabet_ = alphabet

    def _validate_params(self) -> None:
        """Raise ValueError on a constructor argument fit cannot use."""

    def _fit(self, h: np.ndarray, noise: NoiseSpec) -> None:
        raise NotImplementedError

    def _block(self, y: np.ndarray) -> tuple:
        """Symbols, +-1 bits and layer_z of every row of a checked
        n_obs x N block; one of symbols and bits is None, the form the
        detector does not decide in."""
        raise NotImplementedError

    def _forms(self, y, symbols: bool, bits: bool) -> tuple:
        """_block(y) with the symbols and/or the bits it left None mapped
        from the other form, only where asked for."""
        s, b, layer_z = self._block(y)
        if symbols and s is None:
            s = bits_to_symbol(b).astype(float)
        if bits and b is None:
            b = symbol_to_bits(s, self.alphabet_.nbits)
        return s, b, layer_z

    def _checked(self, y) -> np.ndarray:
        """y as a float observation vector or n_obs x N block; raises before
        fit, on a wrong length or on a non-finite entry."""
        if not hasattr(self, "h_"):
            raise RuntimeError(f"{type(self).__name__} must be fitted before detecting")
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2):
            raise ValueError(
                f"observations must be a vector or an n_obs x N block, got shape {y.shape}"
            )
        if y.shape[-1] != self.h_.shape[0]:
            raise ValueError(f"observation length {y.shape[-1]} != {self.h_.shape[0]}")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite")
        return y

    def detect(self, y) -> DetectionResult:
        """Full detection record for a single observation vector."""
        y = self._checked(np.asarray(y).reshape(-1))
        symbols, bits, layer_z = self._forms(y[None], True, True)
        return DetectionResult(symbols=symbols[0], bits=bits[0], layer_z=layer_z[0])

    def predict(self, y) -> np.ndarray:
        """Detected symbols of one observation (K) or of each row of an
        n_obs x N block (n_obs x K)."""
        return self._predicted(y, 0)

    def predict_bits(self, y) -> np.ndarray:
        """Detected +-1 bits, shaped like predict() with a trailing nbits axis."""
        return self._predicted(y, 1)

    def _predicted(self, y, part: int) -> np.ndarray:
        y = self._checked(y)
        out = self._forms(np.atleast_2d(y), part == 0, part == 1)[part]
        return out if y.ndim == 2 else out[0]


class ZFDetector(MimoDetector):
    """Linear detection through the pseudo-inverse, quantized per layer.

    hplus_ is read-only: detectors fitted to one channel share it.
    """

    def _fit(self, h, noise):
        self.hplus_ = _pseudo_inverse(h)

    def _block(self, y):
        est = apply(self.hplus_, y)
        return quantize_pam(est, self.alphabet_), None, est


class LMMSEDetector(ZFDetector):
    """Linear detection through the regularized inverse; needs n0 at fit."""

    def _fit(self, h, noise):
        self.hplus_ = lmmse_inverse(h, noise)


class MLDetector(MimoDetector):
    """Exact minimum-distance detection by a box-constrained sphere search.

    With x = 2u - (sqrt(M) - 1), ||y - Hx|| = ||y + shift - 2Hu|| for the
    shift (sqrt(M) - 1) H 1, so fit keeps the positive-diagonal QR of 2H and
    the shift, and the decision minimizes over u in {0..sqrt(M)-1}^K: a
    block of at least ML_BLOCK_ROWS observations in one breadth-first search
    (_box_search), a smaller one row by row depth first (_box_dfs).  Both
    give the same bytes.  Exactly tied distances resolve to the
    lexicographically smallest symbol vector.  layer_z is the noiseless
    image H x of the decision.
    """

    def _fit(self, h, noise):
        _pseudo_inverse(h)  # the rank rule, refusing dependent columns
        self.qr_ = _qr_positive(2.0 * h)
        self.shift_ = h @ np.full(h.shape[1], self.alphabet_.sqrt_m - 1.0)

    def _block(self, y):
        q, r = self.qr_
        sqrt_m = self.alphabet_.sqrt_m
        v = apply(q.T, y + self.shift_)
        if len(v) < ML_BLOCK_ROWS:
            cols, diag = _triangle(r)
            u = np.array([_box_dfs(row, cols, diag, sqrt_m - 1) for row in v], dtype=np.int64)
            u = u.reshape(v.shape)
        else:
            u = _box_search(v, r, sqrt_m)
        symbols = (2 * u - (sqrt_m - 1)).astype(float)
        return symbols, None, apply(self.h_, symbols)


# blocks of fewer observations are searched row by row depth first: the
# block search pays a fixed numpy cost per level whatever the block's size,
# and breaks even with the rows' depth-first searches at 11-12 rows for
# kc = 2 with M = 4, the latest of kc 2-4 and M 4/16/64
# (scripts/ml_search_table.py)
ML_BLOCK_ROWS = 12

# children one expansion of _box_search scores at most (sqrt(M) where that
# is more).  A node holds its observation index and symbols, its partial
# targets and its distance, (2K + 2) * 8 bytes, and the search keeps at most
# one block of nodes per level, so besides arrays of one row per observation
# it holds at most K * ML_BLOCK_NODES nodes: 2.75 MB at K = 6, 10.2 MB at
# K = 12.
ML_BLOCK_NODES = 4096


def _box_search(v, r, sqrt_m):
    """argmin over u in {0..sqrt_m-1}^K of ||v_i - R u||^2 for every row v_i
    of v, on the upper triangle r with positive diagonal; of exactly tied
    distances the lexicographically smallest u.  Returns n x K int64.

    The search trees of all rows are walked together, level K - 1 first:
    every node's sqrt_m children are scored in numpy and kept where their
    partial distance is <= the radius of their row.  The radius starts at
    the distance of the clipped successive-interference-cancellation point,
    the first leaf a depth-first Schnorr-Euchner search reaches (Agrell,
    Eriksson, Vardy and Zeger, IEEE T-IT 2002), and shrinks to the best leaf
    found.  Each node performs that search's own operations in its order,
    p[k] - R[k, k] * m, then dist + d * d, then p - m * R[:k, k], so every
    leaf has the distance the depth-first search computes for it, and the
    decision is the same, ties included.  Frontiers are expanded depth first
    in blocks of at most ML_BLOCK_NODES children.
    """
    n, K = v.shape
    values = np.arange(sqrt_m, dtype=float)
    diag = np.diag(r)
    dm = diag[:, None] * values     # dm[k, m] = R[k, k] * m
    mr = values[:, None, None] * r  # mr[m, :k, k] = m * R[:k, k]

    # the radius, on the transposed targets so that each level reads a row
    p = v.T.copy()
    radius = np.zeros(n)
    m = np.empty(n)
    for k in range(K - 1, -1, -1):
        np.divide(p[k], diag[k], out=m)
        np.rint(m, out=m)
        np.minimum(np.maximum(m, 0.0, out=m), sqrt_m - 1.0, out=m)
        d = p[k] - diag[k] * m
        radius += d * d
        p[:k] -= r[:k, k, None] * m

    # a node's tag is its row, then its symbols; a block is (level, tags,
    # partial targets, distances), and the stack's levels rise from its top
    tag = np.zeros((n, K + 1), dtype=np.int64)
    tag[:, 0] = np.arange(n)
    best, best_tag = np.full(n, np.inf), tag.copy()
    found = False
    per_block = max(ML_BLOCK_NODES // sqrt_m, 1)
    stack = [(K - 1, tag, v, np.zeros(n))]
    while stack:
        k, tag, p, dist = stack.pop()
        if len(tag) > per_block:
            stack.append((k, tag[per_block:], p[per_block:], dist[per_block:]))
            tag, p, dist = tag[:per_block], p[:per_block], dist[:per_block]
        nd = p[:, k, None] - dm[k]
        nd *= nd
        nd += dist[:, None]
        keep = nd <= radius.take(tag[:, 0])[:, None]
        parent, child = keep.nonzero()
        tag, nd = tag.take(parent, axis=0), nd[keep]
        tag[:, k + 1] = child
        if k:
            p = p[:, :k].take(parent, axis=0) - mr[:, :k, k].take(child, axis=0)
            stack.append((k - 1, tag, p, nd))
            continue
        tag, nd = _least(tag, nd)
        rows = tag[:, 0]
        if found:
            # against the best leaves of the earlier blocks, each row's old
            # leaf beside its new one so the rows stay sorted; a row without
            # one holds (inf, zeros), which only ties where every leaf costs
            # inf, and then the zeros leaf wins anyway.  Merging the first
            # block with those placeholders too would give the same leaves,
            # but costs ~13% of a 17-row kc=3 16-QAM search.
            tag = np.stack([best_tag[rows], tag], axis=1).reshape(-1, K + 1)
            tag, nd = _least(tag, np.stack([best[rows], nd], axis=1).ravel())
        best[rows] = radius[rows] = nd
        best_tag[rows] = tag
        found = True
    return best_tag[:, 1:]


def _box_dfs(v, cols, diag, hi):
    """argmin over u in {0..hi}^K of ||v - R u||^2 for one observation v, on
    the triangle R given as its columns above the diagonal and its diagonal
    (intsearch._triangle); of exactly tied distances the lexicographically
    smallest u.  Returns u as a list.

    The Schnorr-Euchner enumeration of intsearch._se_enumerate, boxed: each
    level starts at its clipped rounding and skips the values past either
    end of its zig-zag, and subtrees that tie the best distance are searched
    too.
    """
    K = len(v)
    best_cost = math.inf
    best_u = [0] * K
    m = [0] * K
    step = [0] * K
    dist = [0.0] * (K + 1)
    partial = [None] * K
    k = K - 1
    partial[k] = v.tolist()
    center = partial[k][k] / diag[k]
    m[k] = min(max(round(center), 0), hi)
    step[k] = 1 if center >= m[k] else -1
    while True:
        d = partial[k][k] - diag[k] * m[k]
        nd = dist[k + 1] + d * d
        if nd <= best_cost:
            if k:
                dist[k] = nd
                m_k = float(m[k])  # exact, and float * float is the fast path
                partial[k - 1] = [p - m_k * r for p, r in zip(partial[k], cols[k])]
                k -= 1
                center = partial[k][k] / diag[k]
                m[k] = min(max(round(center), 0), hi)
                step[k] = 1 if center >= m[k] else -1
                continue
            if nd < best_cost or m < best_u:
                best_cost = nd
                best_u = m.copy()
        elif k == K - 1:
            break
        else:
            k += 1
        # the next sibling on level k in zig-zag order; a level whose next
        # two values both lie outside the box is spent, so climb
        while True:
            m[k] += step[k]
            step[k] = -step[k] - (1 if step[k] > 0 else -1)
            if 0 <= m[k] <= hi:
                break
            if not 0 <= m[k] + step[k] <= hi:
                k += 1
                if k == K:
                    break
        if k == K:
            break
    return best_u


def _least(tag, dist):
    """(tags, distances) of the least distance, then the least symbols, of
    every row among the leaves tag, which come sorted by row; sorted by row."""
    rows = tag[:, 0]
    first = np.ones(len(tag), dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    if first.all():  # already one leaf per row
        return tag, dist
    low = np.minimum.reduceat(dist, first.nonzero()[0])
    least = dist == low.take(first.cumsum() - 1)
    tag = tag[least]
    if len(tag) > len(low):  # tied distances: the least symbols
        tag = tag.take(np.lexsort((*tag[:, :0:-1].T, tag[:, 0])), axis=0)
        tag = tag[np.r_[True, tag[1:, 0] != tag[:-1, 0]]]
    return tag, low


class LARDetector(MimoDetector):
    """Reduction-aided linear detection: equalize in the reduced basis,
    round to integers, map back through the unimodular transform.

    The default shifted mode first maps the odd symbol grid onto the integers
    through y' = (y + H 1) / 2 so the rounding lattice matches the symbol
    lattice; literal mode rounds the unshifted equalized vector and is kept
    for comparison.
    """

    def __init__(self, modulation: int = 4, delta: float = 0.75, mode: str = "shifted"):
        self.modulation = modulation
        self.delta = delta
        self.mode = mode

    def _validate_params(self):
        _check_choice("mode", self.mode, LAR_MODES)
        check_lll_delta(self.delta, "delta")

    def _fit(self, h, noise):
        _pseudo_inverse(h)  # the rank rule, before the reduction's own test
        # not through the last-reduction memo: H is never a modulus
        # detector's basis, so it would only evict theirs
        self.reduction_ = lll_reduce(h, self.delta)
        self.hbar_inv_ = self.reduction_.bbar_pinv
        self.shift_ = h @ np.ones(h.shape[1])

    def _block(self, y):
        t = self.reduction_.t
        if self.mode == "shifted":
            z = quantize_int(apply(self.hbar_inv_, (y + self.shift_) / 2.0))
            raw = (2 * apply(t, z) - 1).astype(float)
        else:
            z = quantize_int(apply(self.hbar_inv_, y))
            raw = apply(t, z).astype(float)
        return quantize_pam(raw, self.alphabet_), None, raw


class MZFDetector(MimoDetector):
    """Modulus detection: allow even-integer interference per layer, strip it
    with a mod-4*alpha fold, then quantize.

    variant selects the algorithm family:
      "plain"        per-layer even perturbations at the alphabet scale tau;
      "scaled-alpha" plain plus a closed-form modulus rescale per layer;
      "bitwise"      one perturbation search per bit layer at tau(n) = 2**(1-n),
                     each bit read off by a sign;
      "feedback"     bitwise decisions fed back layer by layer, reusing one
                     tau = 1 search for all stages.

    equalizer="lmmse" replaces the pseudo-inverse by the regularized inverse
    and optimizes the perturbations against the residual interference plus
    noise matrix instead of the inverse alone.  parity="paper-literal"
    reproduces the unconditional fold branch of the published pseudo-code
    instead of the derived parity rule.  noise_weighting picks the noise
    block weight of the residual matrix: "printed" uses n0, "physical"
    the amplitude-correct sqrt(n0 / 2).

    fit searches every (stage, layer) in one row search, a stage being one
    bit layer n at the scale tau(n) = 2**(1 - n): every one for bitwise,
    the first (tau = 1) for feedback and the last (the alphabet's tau)
    otherwise.  It keeps its result as arrays only: the stage scales tau_
    (stages), the even perturbations q_ (stages x K x K), the combining rows
    comb_ (stages x K x N), and over (stage, layer) the fold scales alpha_,
    the degenerate_ mask, parity_ (True where half the sum of q is odd), the
    search costs cost_, exact_ and the search nodes_.  With the zf
    equalizer, hplus_ is the read-only pseudo-inverse every detector fitted
    to the channel shares.  A fit is a family of one (_fit_family).
    """

    def __init__(
        self,
        modulation: int = 4,
        variant: str = "plain",
        solver: str = "sd",
        equalizer: str = "zf",
        parity: str = "derived",
        sd_budget: int = 10**6,
        brute_bound: int = 8,
        lll_delta: float = 0.75,
        noise_weighting: str = "printed",
    ):
        self.modulation = modulation
        self.variant = variant
        self.solver = solver
        self.equalizer = equalizer
        self.parity = parity
        self.sd_budget = sd_budget
        self.brute_bound = brute_bound
        self.lll_delta = lll_delta
        self.noise_weighting = noise_weighting

    def _validate_params(self):
        _check_choice("variant", self.variant, MZF_VARIANTS)
        _check_choice("solver", self.solver, SOLVERS)
        _check_choice("equalizer", self.equalizer, EQUALIZERS)
        _check_choice("parity", self.parity, PARITY_MODES)
        _check_choice("noise_weighting", self.noise_weighting, NOISE_WEIGHTINGS)
        check_count(self.sd_budget, "sd_budget", 1)
        check_count(self.brute_bound, "brute_bound", 0)
        check_lll_delta(self.lll_delta, "lll_delta")

    def _stages(self, nbits: int) -> range:
        """The bit layers n - 1 whose scales tau(n) this variant searches."""
        if self.variant == "bitwise":
            return range(nbits)
        if self.variant == "feedback":
            return range(1)
        return range(nbits - 1, nbits)

    def _fit(self, h, noise):
        _fit_family([self], h, noise)

    def _scale_alpha(self, targets, effective):
        """The scaled-alpha step on the stages it took: a closed-form fold
        scale per non-degenerate layer, and its own q_, alpha_, comb_,
        cost_ and parity_ to match."""
        self.q_ = q = self.q_.copy()
        self.alpha_ = alpha = np.ones(self.degenerate_.shape)
        for s, layer in zip(*np.nonzero(~self.degenerate_)):
            alpha[s, layer], q[s, layer] = optimize_alpha(
                q[s, layer], layer, self.tau_[s], self.hplus_
            )
        self.comb_, self.cost_, self.parity_ = _combined(
            self.tau_, q, alpha, self.degenerate_, targets, self.hplus_, effective
        )

    @property
    def plans_(self) -> list[list[PerturbationPlan]]:
        """The fitted arrays as per-layer lists of PerturbationPlan, one per
        stage, built anew on every read; q and combining_row are views into
        q_ and comb_."""
        bitwise = self.variant == "bitwise"
        nlayers = self.alphabet_.nbits if bitwise else 1
        fields = (
            self.alpha_, self.degenerate_, self.q_.sum(axis=-1) // 2,
            self.cost_, self.exact_, self.nodes_,
        )
        rows = zip(*(f.ravel().tolist() for f in fields))
        plans = [[] for _ in range(self.k_)]
        for (s, layer), (alpha, degen, half, cost, exact, nodes) in zip(
            np.ndindex(self.degenerate_.shape), rows
        ):
            bit_layer = s + 1 if bitwise else 0
            plans[layer].append(PerturbationPlan(
                layer, bit_layer, self.q_[s, layer], float(self.tau_[s]), alpha,
                self.comb_[s, layer], degen, ParityContext(half, bit_layer, nlayers),
                cost, exact, nodes,
            ))
        return plans

    def _block(self, y):
        """Detect every row of an n_obs x N block at once.

        Layers are never looped over; only the feedback variant steps
        through its bit stages in sequence.  Every value is rounded as in
        row-at-a-time detection (see rowwise), so a block and its rows one
        by one give identical bytes.
        """
        alphabet = self.alphabet_
        nbits = alphabet.nbits
        if self.variant in ("plain", "scaled-alpha"):
            z = self._stage(y, 0, 0, self.degenerate_[0])
            tau = alphabet.tau
            return np.rint(quantize_pam(z, alphabet, scale=tau) / tau), None, z
        literal = self.parity == "paper-literal"
        z = np.empty((y.shape[0], self.k_, nbits))
        for j in range(nbits):
            n = j + 1
            if self.variant == "bitwise":
                # one plan stage per bit layer; only a degenerate top stage
                # skips the fold
                z[:, :, j] = self._stage(y, j, n, self.degenerate_[j] & (n == nbits))
            else:
                # feedback: one tau = 1 stage serves every bit layer; stripped
                # of its own perturbation a degenerate layer still has
                # undetected higher bits to fold away, except at the top or
                # under the paper-literal branch rule
                bypass = self.degenerate_[0] & (literal or n == nbits)
                z[:, :, j] = self._stage(y, 0, n, bypass)
                # subtract the decided bits
                b = np.where(z[:, :, j] >= 0, 1.0, -1.0)
                y = (y - apply(self.h_, b)) / 2.0
        return None, np.where(z >= 0, 1, -1), z

    def _stage(self, y, s, n, bypass):
        """layer_z of one stage: combine y with the rows of plan stage s and
        fold every layer not bypassed, on the branch of bit layer n (0 for
        symbol-wise detection)."""
        r = dots(y[:, None], self.comb_[s])
        if self.parity == "paper-literal":
            odd = True
        else:
            flip = branch_parity(ParityContext(0, n, self.alphabet_.nbits))
            odd = self.parity_[s] ^ flip
        return np.where(bypass, r, mod_recover(r, self.alpha_[s], odd))


def _fit_family(members, h, noise) -> None:
    """Fit the MZFDetectors members, bound to the checked real channel h
    and alike in every option but variant, as one family: one equalizer,
    one reduction and one row search over the union of the members'
    stages, assembled once with alpha = 1 on the stages a member without
    an alpha step reads.  Each member takes views of its stages, which are
    contiguous in the union (bitwise takes them all, the others one), and a
    scaled-alpha member runs its alpha step instead.  Where members share
    the arrays they are read-only; a lone fit's are its own.  A row's search
    does not depend on the other rows searched with it, so every member's
    arrays are the bytes its own fit computes."""
    lead = members[0]
    k = h.shape[1]
    if lead.equalizer == "zf":
        hplus = effective = _pseudo_inverse(h)
    else:
        hplus = lmmse_inverse(h, noise)
        if lead.noise_weighting == "printed":
            effective = mmse_error_matrix(hplus, h, noise)
        else:
            left = hplus @ h - np.eye(k)
            effective = np.hstack([left, math.sqrt(noise.n0 / 2.0) * hplus])
    basis = -effective
    # the box search of solver="brute" reads no reduction
    solver = lead.solver
    reduction = None if solver == "brute" else _reduce(basis.T, lead.lll_delta)

    nbits = lead.alphabet_.nbits
    stages = sorted({n for det in members for n in det._stages(nbits)})
    tau = 0.5 ** np.array(stages)
    # one search row per (stage, layer), stage-major
    targets = (tau[:, None, None] * effective).reshape(-1, effective.shape[1])
    if solver == "sd":
        q, _, exact, nodes = _solve_sd_rows(targets, basis, lead.sd_budget, reduction)
    elif solver == "lll":
        q, _, exact, nodes = _lll_rows(targets, basis, reduction)
    else:
        q, _, exact, nodes = _brute_rows(targets, basis, lead.brute_bound)
    shape = (len(stages), k)
    q = q.reshape(*shape, k)
    # a perturbation touching no other layer never beats q = 0 when
    # tau <= 1; such a layer keeps the plain equalizer row, so it
    # matches ZF bit for bit
    off_diagonal = q.astype(bool) & ~np.eye(k, dtype=bool)
    degenerate = ~off_diagonal.any(axis=-1)
    q[degenerate] = 0
    alpha = np.ones(shape)
    targets = targets.reshape(*shape, -1)
    fitted = {
        "tau_": tau, "q_": q, "exact_": exact.reshape(shape), "nodes_": nodes.reshape(shape),
        "degenerate_": degenerate, "alpha_": alpha,
    }
    # the alpha = 1 assembly covers the stages a member without an alpha
    # step reads; scaled-alpha reads the last stage alone, so they are a
    # prefix of the union
    read = {n for det in members if det.variant != "scaled-alpha" for n in det._stages(nbits)}
    if read:
        prefix = slice(len(read))
        assembled = _combined(
            *(a[prefix] for a in (tau, q, alpha, degenerate, targets)), hplus, effective
        )
    for det in members:
        det.hplus_, det.reduction_ = hplus, reduction
        own = det._stages(nbits)
        first = stages.index(own[0])
        at = slice(first, first + len(own))
        for name, a in fitted.items():
            setattr(det, name, a[at])
        if det.variant == "scaled-alpha":
            det._scale_alpha(targets[at], effective)
        else:
            det.comb_, det.cost_, det.parity_ = (a[at] for a in assembled)
    if len(members) > 1:
        for det in members:
            for name in ("hplus_", *fitted, "comb_", "cost_", "parity_"):
                getattr(det, name).flags.writeable = False


def _combined(tau, q, alpha, degenerate, targets, hplus, effective) -> tuple:
    """(comb_, cost_, parity_) of stages at scales tau with perturbations q,
    fold scales alpha and the degenerate mask; targets are the stages'
    search rows tau * effective."""
    plain = tau[:, None, None] * hplus
    qf, scale = q.astype(float), alpha[..., None]
    comb = np.where(degenerate[..., None], plain, plain + scale * times(qf, hplus))
    resid = targets + scale * times(qf, effective)
    cost = np.where(degenerate, dots(targets, targets), dots(resid, resid))
    return comb, cost, (q.sum(axis=-1) // 2) % 2 == 1
