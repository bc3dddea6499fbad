"""Solvers for the even-integer closest-vector problem min_q ||b - q B||^2.

q ranges over even-integer row vectors, so with q = 2m the problem is a
closest-vector search on the lattice generated by the rows of 2B.  Three
routes are provided: exact depth-first sphere enumeration with radius
shrinking, an LLL-reduction-based approximation, and an exhaustive box
search used as the test oracle.

The two loops a fit spends its time in stay off numpy scalars, whose
per-read overhead is several times the arithmetic it feeds.  The swap loop
of lll_reduce runs on Python lists of floats and ints.  The enumeration
runs in a kernel generated once per dimension K (_se_source): one while
loop per level, nested, over local variables, in groups of at most
_GROUP_LEVELS loops per function.  Each step is the elementwise IEEE
operation the equivalent array expression performs, in the same order, and
round() rounds half to even like np.round, so the outputs are the bytes of
the array formulation (tests/test_intsearch.py pins them).  The first
Gram-Schmidt pass of lll_reduce takes each orthogonal column's squared norm
once rather than once per coefficient, by the same dot product, so it too
keeps its bytes.  The enumeration shares its descents' products across the
rows of a block and scores the leaf level inline, by the same IEEE
operations.  It serves the even-integer searches only: exact ML detection
searches its bounded symbol box in detect (_box_search, _box_dfs).

A fit searches K targets (one per layer and stage) on one basis, so the row
search _solve_sd_rows takes a block of targets: the warm starts and every
candidate cost are computed for all rows at once, each row by the BLAS call
one target alone makes (see rowwise), and only the enumeration runs row by
row, through one binding of the kernel to the block's triangle.  Each
solver answers a block of rows (_solve_sd_rows, _lll_rows, and _brute_rows,
which builds its box once for all rows); solve_sd, solve_lll and
solve_brute are their one-row calls.

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
from functools import cached_property, lru_cache

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
    # one binding, whose product tables the rows share (see _se_source)
    search = _se_kernel(K)(cols, diag, [{} for _ in cols])
    best = cost[:, :2].min(axis=1).tolist()
    found = [
        search(v_i, best_i, c0_i, budget) for v_i, best_i, c0_i in zip(v, best, c0.tolist())
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
    """The triangle r as the lists the enumeration kernel binds, its columns
    above the diagonal and its diagonal; built once per block of searches,
    since a view of a read-only r costs more to make."""
    return [r[:k, k].tolist() for k in range(r.shape[1])], np.diag(r).tolist()


def _se_enumerate(v, cols, diag, best_cost, c0, budget, products):
    """Depth-first enumeration on the triangle R given as its columns above
    the diagonal and its diagonal; returns (best coeffs, nodes, exact), the
    coeffs all zero when no point beats best_cost.  The one-row call of the
    kernel _se_kernel(v.size) binds (see _se_source): products is the list
    of per-level tables it shares with the other rows of its block."""
    return _se_kernel(v.size)(cols, diag, products)(v, best_cost, c0, budget)


# CPython refuses a function with more than 20 statically nested blocks
# (CO_MAXBLOCKS), so a generated function nests at most this many loops
_GROUP_LEVELS = 16


@lru_cache
def _se_kernel(k: int):
    """bind(cols, diag, products) of dimension k, compiled from
    _se_source(k) on first use and kept for the last 128 dimensions; bind
    returns search(v, best_cost, c0, budget), the enumeration of one row."""
    namespace = {}
    exec(compile(_se_source(k), f"<se_kernel {k}>", "exec"), namespace)
    return namespace["bind"]


def _se_source(k: int) -> str:
    """The source of the Schnorr-Euchner enumeration for dimension k.

    Level j keeps its state in locals: m<j>, its zig-zag step s<j>, its
    distance n<j> and its partial sums p<j>_0 .. p<j>_<j>, v minus the
    contributions of the levels above j.  Each level is one while loop
    nested in the loop of the level above, so a failure breaks back to the
    parent's next sibling.  A descent from level j subtracts the row
    T<j>[m<j>], float(m<j>) * C<j> built on first use in a table that the
    rows of a block share, from p<j>_0 .. p<j>_<j-1>, entry by entry.  Level
    0 is scored in the loop nested in level 1, its siblings in zig-zag
    order until the first that fails, each one node.

    Levels go in groups of at most _GROUP_LEVELS loops from level 0 up, one
    function each, the top group being search itself.  A descent out of a
    group's lowest level calls the group below with the new partial sums,
    the distance, the best cost and point, the node count and the m values
    above it, and takes back the updated values and whether the search is
    still exact.  The multiplies, subtractions and comparisons are a
    per-descent rebuild's, in its order, so every point, node count and
    exact flag is too (the rebuild is tests/util_exact.se_enumerate_reference).
    Only level indices and fixed names go into the text.
    """
    out = ["def bind(cols, diag, products):", f"    {_targets('g', range(k))} = diag"]
    if k > 1:
        out.append(f"    {_targets('C', range(1, k))} = cols[1:]")
        out.append(f"    {_targets('T', range(1, k))} = products[1:]")
    for lo in range(0, k, _GROUP_LEVELS):
        out += _se_group(lo, min(lo + _GROUP_LEVELS, k) - 1, k)
    out.append("    return search")
    return "\n".join(out) + "\n"


def _targets(prefix: str, indices) -> str:
    """prefix<i> for every index i, as the targets of an unpacking."""
    names = [f"{prefix}{i}" for i in indices]
    return ", ".join(names) + ("," if len(names) == 1 else "")


def _se_group(lo: int, hi: int, k: int) -> list[str]:
    """The lines, indented into bind, of the function that enumerates
    levels hi down to lo of a dimension-k search."""
    if hi == k - 1:
        out = [
            "    def search(v, best_cost, c0, budget):",
            f"        {_targets(f'p{hi}_', range(hi + 1))} = v.tolist()",
            f"        best_w = [0] * {k}",
            "        nodes = 0",
        ]
        done, high, n_top = "return best_w, nodes, {}", "", "0.0"
    else:
        out = [
            f"    def group{lo}(p, n{hi + 1}, best_cost, best_w, nodes, c0, budget, high):",
            f"        {_targets(f'p{hi}_', range(hi + 1))} = p",
        ]
        done, high, n_top = "return best_cost, best_w, nodes, {}", ", *high", f"n{hi + 1}"

    def level(j, pad):
        n_above = n_top if j == hi else f"n{j + 1}"
        lines = [
            f"x = p{j}_{j} / g{j}",
            f"m{j} = round(x)",
            f"s{j} = 1 if x >= m{j} else -1",
        ]
        if j == 0:
            ms = ", ".join(f"m{i}" for i in range(hi + 1))
            out.extend(pad + line for line in lines + [
                "while (nodes := nodes + 1) <= budget:",
                "    d = p0_0 - g0 * m0",
                f"    leaf = {n_above} + d * d + c0",
                "    if not leaf < best_cost:",
                "        break",
                "    best_cost = leaf",
                f"    best_w = [{ms}{high}]",
                "    m0 += s0",
                "    s0 = -s0 - 1 if s0 > 0 else 1 - s0",
                "else:",
                "    " + done.format(False),
            ])
            return
        lines += [
            "while True:",
            "    nodes += 1",
            "    if nodes > budget:",
            "        " + done.format(False),
            f"    d = p{j}_{j} - g{j} * m{j}",
            f"    n{j} = {n_above} + d * d",
            f"    if not n{j} + c0 < best_cost:",
            "        break",
            f"    row = T{j}.get(m{j})",
            "    if row is None:",
            f"        row = T{j}[m{j}] = [float(m{j}) * r for r in C{j}]",
            f"    {_targets('r', range(j))} = row",
        ]
        out.extend(pad + line for line in lines)
        inner = pad + "    "
        if j > lo:
            out.extend(f"{inner}p{j - 1}_{i} = p{j}_{i} - r{i}" for i in range(j))
            level(j - 1, inner)
        else:  # the group below takes level j - 1
            sums = ", ".join(f"p{j}_{i} - r{i}" for i in range(j))
            ms = ", ".join(f"m{i}" for i in range(lo, hi + 1))
            out.extend(inner + line for line in (
                f"best_cost, best_w, nodes, exact = group{lo - _GROUP_LEVELS}(",
                f"    [{sums}],",
                f"    n{j}, best_cost, best_w, nodes, c0, budget, ({ms}{high},),",
                ")",
                "if not exact:",
                "    " + done.format(False),
            ))
        out.extend(inner + line for line in (
            f"m{j} += s{j}",
            f"s{j} = -s{j} - 1 if s{j} > 0 else 1 - s{j}",
        ))

    level(hi, "        ")
    out.append("        " + done.format(True))
    return out


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
