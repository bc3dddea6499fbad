"""Solvers for the even-integer closest-vector problem min_q ||b - q B||^2.

q ranges over even-integer row vectors, so with q = 2m the problem is a
closest-vector search on the lattice generated by the rows of 2B.  Three
routes are provided: exact depth-first sphere enumeration with radius
shrinking, an LLL-reduction-based approximation, and an exhaustive box
search used as the test oracle.

The two loops a fit spends its time in, the enumeration in _se_enumerate
and the swap loop of lll_reduce, run on Python lists of floats and ints:
each m[k] or mu[k, j] read of a numpy array pays numpy's per-scalar
overhead, several times the arithmetic it feeds.  Each step is the
elementwise IEEE operation the equivalent array expression performs, in the
same order, and round() rounds half to even like np.round, so the outputs
are the bytes of the array formulation (tests/test_intsearch.py pins them).
The first Gram-Schmidt pass of lll_reduce takes each orthogonal column's
squared norm once rather than once per coefficient, by the same dot
product, so it too keeps its bytes.  The enumeration shares its descents'
products across the rows of a block and scores the leaf level inline, by
the same IEEE operations (see _se_enumerate).  It serves the even-integer
searches only: exact ML detection searches its bounded symbol box in
detect (_box_search, _box_dfs).

A fit searches K targets (one per layer and stage) on one basis, so the row
search _solve_sd_rows takes a block of targets: the warm starts and every
candidate cost are computed for all rows at once, each row by the BLAS call
one target alone makes (see rowwise), and only the enumeration runs row by
row.  Each solver answers a block of rows (_solve_sd_rows, _lll_rows, and
_brute_rows, which builds its box once for all rows); solve_sd, solve_lll
and solve_brute are their one-row calls.

Fits of one channel at several QAM orders and variants reduce the same
basis, so _reduce keeps the last reduction, keyed by a copy of its input's
bytes, and returns what a fresh reduction gives byte for byte.  Everything
a ReducedBasis holds is read-only, since fitted detectors share it.  The
row a fit searches does not depend on the other rows of its block, so the
modulus detectors of one channel that share rows search them once, in one
family fit (detect._fit_family).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import sub

import numpy as np

from .alphabet import check_count, quantize_even_int, quantize_int
from .rowwise import apply, dots, times

BRUTE_MAX_POINTS = 10**8


@dataclass(frozen=True)
class IlsProblem:
    """One even-integer least-squares instance."""

    b: np.ndarray  # target row vector, length ncols
    B: np.ndarray  # generator, K x ncols, rows span the search space

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).reshape(-1)
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[1] != b.size:
            raise ValueError(f"b (len {b.size}) and B {B.shape} are not conformal")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(B))):
            raise ValueError("problem data must be finite")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "B", B)


@dataclass(frozen=True)
class ReducedBasis:
    """LLL output: Bbar = original @ T with T unimodular.

    The factorizations every layer's search reads are computed on first use
    and kept, so one reduction pays for each of them once.  Its arrays are
    read-only.
    """

    bbar: np.ndarray    # reduced basis, vectors in columns
    t: np.ndarray       # integer transform, |det| = 1
    delta: float
    source: np.ndarray  # copy of the unreduced input

    @cached_property
    def doubled_qr(self):
        """Positive-diagonal QR of the doubled reduced basis 2 Bbar."""
        return tuple(map(_read_only, _qr_positive(2.0 * self.bbar)))

    @cached_property
    def bbar_pinv(self) -> np.ndarray:
        return _read_only(np.linalg.pinv(self.bbar))

    @cached_property
    def source_pinv(self) -> np.ndarray:
        return _read_only(np.linalg.pinv(self.source))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class IlsSolution:
    q: np.ndarray       # even-integer row vector
    cost: float
    exact: bool         # True only when enumeration provably finished
    nodes_visited: int


def _gram_schmidt(basis: np.ndarray):
    """Orthogonalization of the columns; returns (squared norms, mu).

    mu carries an implicit unit diagonal so that size-reduction updates can
    subtract whole rows.  Each orthogonal column's squared norm is taken
    once, as the dot product of its column view with itself, and serves
    every coefficient against that column.  The coefficients of column i
    come from one stacked matmul whose items are the strided DOT calls a
    per-pair recompute makes, and the column is one subtract.reduce over
    [b_i; c_j o_j], which subtracts in the order of a per-pair loop: the
    same bytes.
    """
    n = basis.shape[1]
    ortho = np.zeros_like(basis)
    o = ortho.T  # o[j] views column j, as ortho[:, j] does
    mu = np.eye(n)
    sq = np.empty(n)  # sq[j] = o[j] @ o[j], once column j is final
    terms = np.empty((n, basis.shape[0]))  # b_i, then c[j] * o[j] for j < i
    for i, b_i in enumerate(basis.T):
        c = np.matmul(o[:i, None, :], b_i[:, None]).reshape(i)
        c /= sq[:i]
        mu[i, :i] = c
        terms[0] = b_i
        np.multiply(c[:, None], o[:i], out=terms[1 : i + 1])
        np.subtract.reduce(terms[: i + 1], out=o[i])
        sq[i] = o[i] @ o[i]
    return np.sum(ortho**2, axis=0), mu


def check_lll_delta(delta, name: str = "delta") -> None:
    """Raise ValueError unless delta lies in (0.25, 1], the Lovasz range."""
    if not 0.25 < delta <= 1.0:
        raise ValueError(f"{name} must lie in (0.25, 1], got {delta}")


def lll_reduce(m, delta: float = 0.75) -> ReducedBasis:
    """Lovasz-reduce the columns of m, tracking the unimodular transform.

    Raises on a non-finite entry, on Gram-Schmidt data that is not finite
    (squares of the entries overflow or underflow) and on linearly
    dependent columns.
    Standard swap-based formulation; the Gram-Schmidt data is computed once
    and then updated in O(n) per swap (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.3).  The loop runs on lists (see the
    module docstring).
    """
    check_lll_delta(delta)
    basis = np.array(m, dtype=float)
    source = basis.copy()
    if basis.ndim != 2 or basis.shape[0] < basis.shape[1]:
        raise ValueError(f"basis must be tall or square, got shape {basis.shape}")
    if not np.isfinite(basis).all():
        raise ValueError("basis must be finite")
    n = basis.shape[1]
    t = np.eye(n, dtype=np.int64)
    with np.errstate(all="ignore"):
        norms, mu = _gram_schmidt(basis)
    if not (np.isfinite(norms).all() and np.isfinite(mu).all()):
        raise ValueError(
            "Gram-Schmidt norms or coefficients of the basis are not finite:"
            " its entries are too large or too small to square in floating point"
        )
    if np.min(norms) <= 1e-24 * np.max(norms):
        raise ValueError("basis columns are linearly dependent")
    norms, mu = norms.tolist(), mu.tolist()
    cols, t_cols = basis.T.tolist(), t.T.tolist()
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 100_000 * n * n:
            raise RuntimeError("reduction failed to terminate")
        mu_k = mu[k]
        for j in range(k - 1, -1, -1):
            c = round(mu_k[j])
            if c != 0:
                t_cols[k] = [x - c * y for x, y in zip(t_cols[k], t_cols[j])]
                c = float(c)
                cols[k] = [x - c * y for x, y in zip(cols[k], cols[j])]
                mu_k[: j + 1] = [x - c * y for x, y in zip(mu_k, mu[j][: j + 1])]
        m_k = mu_k[k - 1]
        if norms[k] >= (delta - m_k**2) * norms[k - 1]:
            k += 1
            continue
        cols[k - 1], cols[k] = cols[k], cols[k - 1]
        t_cols[k - 1], t_cols[k] = t_cols[k], t_cols[k - 1]
        norm = norms[k] + m_k * m_k * norms[k - 1]  # of the new column k - 1
        mu_new = m_k * norms[k - 1] / norm
        norms[k] = norms[k - 1] * norms[k] / norm
        norms[k - 1] = norm
        # rows k - 1 and k trade their first k - 1 entries; the unit
        # diagonal stays where it is
        mu[k - 1][: k - 1], mu_k[: k - 1] = mu_k[: k - 1], mu[k - 1][: k - 1]
        mu_k[k - 1] = mu_new
        for row in mu[k + 1 :]:
            below = row[k]
            row[k] = row[k - 1] - m_k * below
            row[k - 1] = below + mu_new * row[k]
        k = max(k - 1, 1)
    basis[...] = np.array(cols).T  # in place, so bbar keeps the input's layout
    t[...] = np.array(t_cols).T
    return ReducedBasis(
        bbar=_read_only(basis), t=_read_only(t), delta=delta, source=_read_only(source)
    )


# ((shape, strides, bytes, delta), ReducedBasis) of the last _reduce call
_last_reduction = None


def _reduce(m, delta: float) -> ReducedBasis:
    """lll_reduce(m, delta), the last result again when m has its shape,
    layout and bytes and delta is its delta.  The key holds a copy of the
    bytes, so a caller that later writes into m cannot alter the entry."""
    global _last_reduction
    basis = np.array(m, dtype=float)  # the array lll_reduce reduces
    key = (basis.shape, basis.strides, basis.tobytes(), delta)
    if _last_reduction is None or _last_reduction[0] != key:
        _last_reduction = (key, lll_reduce(basis, delta))
    return _last_reduction[1]


def _qr_positive(mat):
    q, r = np.linalg.qr(mat)
    sgn = np.sign(np.diag(r))
    sgn[sgn == 0] = 1.0
    return q * sgn, (r.T * sgn).T


def solve_sd(
    problem: IlsProblem,
    budget: int = 10**6,
    cache: ReducedBasis | None = None,
) -> IlsSolution:
    """Exact sphere search with Schnorr-Euchner ordering and radius shrinking.

    Substitutes q = 2m and enumerates m depth first on the QR factorization
    of the (optionally LLL-reduced) doubled generator, starting from the
    rounding estimate and visiting siblings in zig-zag order.  The zero
    vector is always a candidate, so cost <= ||b||^2.  If the node budget
    runs out the best point seen so far is returned with exact=False.

    cache, when given, must be the reduction of B transposed (ValueError
    otherwise); it tightens the enumeration dramatically and is shared,
    factorizations included, across all layers of one coherence interval.
    """
    check_count(budget, "budget", 1)
    if cache is not None:
        _check_cache(problem.B, cache)
    return _first(_solve_sd_rows(problem.b[None], problem.B, budget, cache))


def _solve_sd_rows(targets, B, budget, cache):
    """solve_sd on every row of the R x ncols block targets against one B
    (see the module docstring); returns (q, cost, exact, nodes) arrays.

    cache, when given, is the reduction of B transposed: the public calls
    check that, and the fit has just made it from B.  budget is an integer
    >= 1: solve_sd and the fit's _validate_params check it."""
    targets = np.asarray(targets, dtype=float)
    rows, K = len(targets), B.shape[0]
    if cache is None:
        q_mat, r_mat = _qr_positive(2.0 * B.T)
        t = np.eye(K, dtype=np.int64)
    else:
        q_mat, r_mat = cache.doubled_qr
        t = cache.t
    v = apply(q_mat.T, targets)
    bb = dots(targets, targets)
    c0 = np.maximum(bb - dots(v, v), 0.0)  # out-of-span residual

    # every candidate's cost is evaluated once, in the order zero, the
    # rounding warm start in reduced coordinates and the enumeration's point,
    # which starts at the warm start and is optimal when exact, so no snapped
    # estimate of _lll_rows is scored; where the enumeration finds nothing its
    # point stays zero, which ties the first candidate and never wins
    q = np.zeros((rows, 3, K), dtype=np.int64)
    cost = np.empty((rows, 3))
    cost[:, 0] = bb
    w0 = np.round(np.linalg.solve(r_mat, v[..., None])[..., 0]).astype(np.int64)
    q[:, 1] = 2 * apply(t, w0)
    cost[:, 1] = _cost(targets, B, q[:, 1])

    cols, diag = _triangle(r_mat)
    products = [{} for _ in cols]  # shared by the rows, see _se_enumerate
    best = cost[:, :2].min(axis=1).tolist()
    found = [
        _se_enumerate(v_i, cols, diag, best_i, c0_i, budget, products)
        for v_i, best_i, c0_i in zip(v, best, c0.tolist())
    ]
    w, nodes, exact = zip(*found)
    w = np.array(w, dtype=np.int64)
    nodes = np.array(nodes, dtype=np.int64)
    exact = np.array(exact, dtype=bool)
    q[:, 2] = 2 * apply(t, w)
    cost[:, 2] = _cost(targets, B, q[:, 2])
    return _least(q, cost) + (exact, nodes)


def _cost(targets, B, q):
    """||b - q B||^2 for every row pair of targets and q."""
    r = targets - times(q.astype(float), B)
    return dots(r, r)


def _least(q, cost):
    """(q, cost) of the first least-cost candidate of every row of the
    rows x candidates x K block q."""
    pick = np.argmin(cost, axis=1)
    rows = np.arange(len(pick))
    return q[rows, pick], cost[rows, pick]


def _first(rows) -> IlsSolution:
    """The first row of (q, cost, exact, nodes) arrays as an IlsSolution."""
    q, cost, exact, nodes = (a[0] for a in rows)
    return IlsSolution(q, float(cost), bool(exact), int(nodes))


def _triangle(r):
    """The triangle r as the lists _se_enumerate reads, its columns above
    the diagonal and its diagonal; built once per block of searches, since
    a view of a read-only r costs more to make."""
    return [r[:k, k].tolist() for k in range(r.shape[1])], np.diag(r).tolist()


def _se_enumerate(v, cols, diag, best_cost, c0, budget, products):
    """Depth-first enumeration core on the triangle R given as its columns
    above the diagonal and its diagonal; returns (best coeffs, nodes,
    exact), the coeffs all zero when no point beats best_cost.

    partial[i] is v minus the contributions of levels > i; only its first
    i + 1 entries are ever read, so a descent to level k - 1 builds just k,
    subtracting products[k][m[k]], the row m[k] * cols[k] that the rows of
    a block share and build on first use.  Level 0 is scored inline: its
    siblings in zig-zag order until the first that fails, each one node.
    The products and differences are a per-descent rebuild's, so the
    coeffs, nodes and exact flag are too.
    """
    K = v.size
    best_w = [0] * K
    m = [0] * K
    step = [0] * K
    dist = [0.0] * (K + 1)
    partial = [None] * K
    nodes = 0
    k = K - 1
    partial[k] = v.tolist()
    center = partial[k][k] / diag[k]
    m[k] = round(center)
    step[k] = 1 if center >= m[k] else -1
    exact = True
    while True:
        nodes += 1
        if nodes > budget:
            exact = False
            break
        d = partial[k][k] - diag[k] * m[k]
        nd = dist[k + 1] + d * d
        if nd + c0 < best_cost:
            if k > 1:
                dist[k] = nd
                row = products[k].get(m[k])
                if row is None:  # float(m[k]) is exact, float * float fast
                    row = products[k][m[k]] = [float(m[k]) * r for r in cols[k]]
                partial[k - 1] = list(map(sub, partial[k], row))
                k -= 1
                center = partial[k][k] / diag[k]
                m[k] = round(center)
                step[k] = 1 if center >= m[k] else -1
                continue
            if k:  # the leaf level, inline
                p = partial[1][0] - float(m[1]) * cols[1][0]
                center = p / diag[0]
                m0 = round(center)
                s = 1 if center >= m0 else -1
                while (nodes := nodes + 1) <= budget:
                    d = p - diag[0] * m0
                    leaf = nd + d * d + c0
                    if not leaf < best_cost:
                        break
                    best_cost = leaf
                    m[0] = m0
                    best_w = m.copy()
                    m0 += s
                    s = -s - (1 if s > 0 else -1)
                else:  # the budget ran out on a leaf: end the search
                    exact = False
                    break
            else:  # K = 1: the top level is the leaf
                best_cost = nd + c0
                best_w = m.copy()
        elif k == K - 1:
            break
        else:
            k += 1
        # the next sibling on level k in zig-zag order
        m[k] += step[k]
        step[k] = -step[k] - (1 if step[k] > 0 else -1)
    return best_w, nodes, exact


def solve_brute(problem: IlsProblem, bound: int = 8) -> IlsSolution:
    """Exhaustive oracle over even q with |q_i| <= bound.

    Refuses with a size estimate when the box holds more than
    BRUTE_MAX_POINTS points.  Exact within the box by construction; of
    equal-cost points the first in box order wins.
    """
    return _first(_brute_rows(problem.b[None], problem.B, bound))


def _brute_rows(targets, B, bound):
    """solve_brute on every row of targets against one B; returns (q, cost,
    exact, nodes) arrays as _solve_sd_rows does.  The box and the image
    qs @ B of each of its q[0] blocks are built once for all rows."""
    rows, K = len(targets), B.shape[0]
    top = bound - (bound % 2)
    values = np.arange(-top, top + 1, 2, dtype=np.int64)
    n_points = len(values) ** K
    if n_points > BRUTE_MAX_POINTS:
        raise ValueError(
            f"box search would visit {n_points:.3e} points"
            f" (limit {BRUTE_MAX_POINTS:.0e}); shrink bound or K"
        )
    # coordinates 1.. of a q[0] block, in box order (first coordinate slowest)
    tail = len(values) ** (K - 1)
    tail_pts = values[np.indices((len(values),) * (K - 1)).reshape(K - 1, tail).T]
    best_cost = np.full(rows, np.inf)
    best_q = np.zeros((rows, K), dtype=np.int64)
    for v0 in values:
        qs = np.empty((tail, K), dtype=np.int64)
        qs[:, 0] = v0
        qs[:, 1:] = tail_pts
        image = qs @ B
        for r, b in enumerate(targets):
            resid = b[None, :] - image
            costs = np.einsum("ij,ij->i", resid, resid)
            i = int(np.argmin(costs))
            if costs[i] < best_cost[r]:
                best_cost[r] = costs[i]
                best_q[r] = qs[i]
    exact = np.ones(rows, dtype=bool)
    return best_q, best_cost, exact, np.full(rows, n_points, dtype=np.int64)


def _check_cache(B, cache: ReducedBasis) -> None:
    # a reduction of another matrix searches the wrong lattice
    if not np.array_equal(cache.source, B.T):
        raise ValueError("cache is not the reduction of this problem's B transposed")


def solve_lll(problem: IlsProblem, cache: ReducedBasis) -> IlsSolution:
    """Reduction-based approximation without any enumeration: round in
    reduced unit-lattice coordinates, map back through T, snap to even
    integers.

    The returned point is the best of that two-step estimate, the same
    estimate without reduction, and zero, so the cost never exceeds the
    trivial baseline.  Snapping to the even integers only after the
    unit-lattice rounding costs real accuracy (on square problems the
    unit-lattice optimum is -tau * delta_k, which snaps to zero), which is
    precisely the gap the exact sphere search closes.

    cache must be the reduction of B transposed (ValueError otherwise).
    """
    _check_cache(problem.B, cache)
    return _first(_lll_rows(problem.b[None], problem.B, cache))


def _lll_rows(targets, B, cache: ReducedBasis):
    """solve_lll on every row of targets, on the reduction cache of B
    transposed; returns (q, cost, exact, nodes) arrays as _solve_sd_rows does."""
    rows, K = len(targets), B.shape[0]
    # candidates: the two snapped estimates, then zero
    q = np.zeros((rows, 3, K), dtype=np.int64)
    q[:, :2] = _snaps(targets, cache)
    cost = np.stack([_cost(targets, B, q[:, j]) for j in range(3)], axis=1)
    zeros = np.zeros(rows, dtype=np.int64)
    return _least(q, cost) + (zeros.astype(bool), zeros)


def _snaps(targets, cache: ReducedBasis):
    """rows x 2 x K: the reduction-based estimate of every row (round in
    reduced unit-lattice coordinates, map back through T, snap to even
    integers), then the same estimate without reduction."""
    z = quantize_int(apply(cache.bbar_pinv, targets))
    reduced = quantize_even_int(apply(cache.t, z).astype(float))
    z = quantize_int(apply(cache.source_pinv, targets))
    return np.stack([reduced, quantize_even_int(z.astype(float))], axis=1)
