"""Even-integer closest-vector solver tests against the box oracle."""

import hashlib
import warnings

import numpy as np
import pytest
from util_exact import gram_schmidt_pairwise, int_det, se_enumerate_reference

from mzf import intsearch
from mzf.alphabet import make_alphabet
from mzf.channel import (
    NoiseSpec,
    embed_complex,
    generate_channel,
    generate_real_channel,
    lmmse_inverse,
    mmse_error_matrix,
    pseudo_inverse,
)
from mzf.intsearch import (
    IlsProblem,
    _brute_rows,
    _gram_schmidt,
    _lll_rows,
    _reduce,
    _solve_sd_rows,
    lll_reduce,
    solve_brute,
    solve_lll,
    solve_sd,
)

H_REF = np.array(
    [[-6, 0, -1, 5], [-3, -2, -1, 1], [1, -5, -6, 0], [1, -1, -3, -2]], dtype=float
)


def reference_problem(layer, tau=1.0):
    hplus = pseudo_inverse(H_REF)
    return IlsProblem(tau * hplus[layer], -hplus)


def random_problem(rng, k=4, tau=1.0):
    h = rng.standard_normal((k, k))
    hplus = pseudo_inverse(h)
    basis = -hplus
    return IlsProblem(tau * hplus[int(rng.integers(0, k))], basis)


class TestSolveSd:
    def test_zero_is_optimal_on_negated_identity(self):
        for tau in (1.0, 0.5):
            p = IlsProblem(tau * np.eye(3)[0], -np.eye(3))
            sol = solve_sd(p)
            assert sol.q.tolist() == [0, 0, 0]
            assert sol.cost == pytest.approx(tau**2)
            assert sol.exact

    def test_reference_layer_costs(self):
        # layers 2 and 4 improve to 27/185; layers 1 and 3 stay at 30/185
        for layer, want in ((0, 30), (1, 27), (2, 30), (3, 27)):
            sol = solve_sd(reference_problem(layer))
            assert sol.cost * 185 == pytest.approx(want, abs=1e-9)
            assert sol.exact

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(0)
        for i in range(50):
            p = random_problem(rng, tau=1.0 if i % 2 else 0.5)
            cache = lll_reduce(p.B.T)
            sd = solve_sd(p, cache=cache)
            brute = solve_brute(p, bound=8)
            assert sd.cost == pytest.approx(brute.cost, rel=1e-9, abs=1e-12)
            assert sd.exact

    def test_budget_exhaustion_degrades_gracefully(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng)
        full = solve_sd(p)
        starved = solve_sd(p, budget=2)
        assert not starved.exact
        assert starved.cost >= full.cost - 1e-12
        assert starved.cost <= float(p.b @ p.b) + 1e-12

    def test_even_entries_always(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sol = solve_sd(random_problem(rng))
            assert np.all(sol.q % 2 == 0)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            solve_sd(reference_problem(0), budget=0)

    @pytest.mark.parametrize("budget", [2.5, 1e6, True])
    def test_rejects_non_integer_budget(self, budget):
        # the public call checks it; the fit's row search relies on
        # MZFDetector._validate_params
        p = reference_problem(0)
        with pytest.raises(ValueError, match=f"budget must be an integer, got {budget!r}"):
            solve_sd(p, budget=budget)
        with pytest.raises(ValueError, match=f"budget must be an integer, got {budget!r}"):
            solve_sd(p, budget=budget, cache=lll_reduce(p.B.T))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_cache_agrees_with_plain_search_at_k12(self, order):
        # past the box oracle's reach: the reduced and unreduced enumerations
        # both claim exactness, so their optima must coincide; the channels
        # are the first ones of the stream acceptance criterion 8 draws
        tau = make_alphabet(order).tau
        rng = np.random.default_rng(8)
        for _ in range(10):
            hplus = pseudo_inverse(generate_real_channel(rng, 12))
            cache = lll_reduce(-hplus.T)
            for layer in range(12):
                p = IlsProblem(tau * hplus[layer], -hplus)
                cached = solve_sd(p, cache=cache)
                plain = solve_sd(p, cache=None)
                assert cached.exact and plain.exact
                assert cached.cost == pytest.approx(plain.cost, rel=1e-9)

    def test_rejects_cache_of_another_problem(self):
        rng = np.random.default_rng(12)
        p, other = random_problem(rng), random_problem(rng)
        with pytest.raises(ValueError, match="cache"):
            solve_sd(p, cache=lll_reduce(other.B.T))  # same shape, other lattice
        with pytest.raises(ValueError, match="cache"):
            solve_sd(p, cache=lll_reduce(random_problem(rng, k=5).B.T))

    def test_cache_keeps_its_own_copy_of_the_input(self):
        rng = np.random.default_rng(13)
        p = random_problem(rng)
        m = p.B.T.copy()
        cache = lll_reduce(m)
        m[0, 0] += 1.0  # the caller's array, not the cache's
        assert solve_sd(p, cache=cache).cost == pytest.approx(solve_sd(p).cost, rel=1e-9)


def search_digest(k, tau, count, budget=10**6):
    """sha256 over (q, cost, nodes_visited, exact) of solve_sd on every layer
    of count real K x K ZF problems drawn from rng([17, K]), each channel
    searched through its shared reduction as MZFDetector.fit does."""
    rng = np.random.default_rng([17, k])
    digest = hashlib.sha256()
    for _ in range(count):
        hplus = pseudo_inverse(generate_real_channel(rng, k))
        cache = lll_reduce(-hplus.T)
        for layer in range(k):
            sol = solve_sd(IlsProblem(tau * hplus[layer], -hplus), budget, cache)
            digest.update(sol.q.tobytes())
            digest.update(np.float64(sol.cost).tobytes())
            digest.update(np.int64(sol.nodes_visited).tobytes())
            digest.update(np.bool_(sol.exact).tobytes())
    return digest.hexdigest()


# search_digest values made with the numpy-scalar enumeration loop; node
# counts are pinned with the optima, so a reordered sibling visit shows too
SEARCH_DIGESTS = {
    (8, 1.0): (10, "bcc75c6b3a610bd8ce990a21f71d9533a2068249881e7c0a4ffafd9acaabe9f7"),
    (8, 0.25): (10, "7b24c64a33a42c4612518fe9f1dede482a417513bca0075189e1b52a98c6d6f9"),
    (12, 1.0): (6, "3fa740337511a2f79b174eec590a87e64b4706a3daec652ccd150955a2d5d004"),
    (12, 0.25): (6, "484b1b4157b3a6d0563afa28832c845787f80732f05e13dd417cd4567bead247"),
    (16, 1.0): (4, "908a1cfadf2ddf30974ba2b106621a2e6baa63fe976e3bd6bf9d75ab2700e231"),
    (16, 0.25): (4, "5c8cc0139206eb9b92c02f49411e36da0fe79b2510db511a59601e75323abe9a"),
    (24, 1.0): (2, "cc0df803fe490109dff7aa0344ec14d6ac0ff2dee6574e1ac53386a7b6d7bc3a"),
    (24, 0.25): (2, "da4bf2261007ff33eac74c98e0a1004bb45e10eed73199dcb653312b088a4234"),
}


class TestSearchPinned:
    @pytest.mark.parametrize("k, tau", sorted(SEARCH_DIGESTS))
    def test_search_outputs_pinned(self, k, tau):
        count, want = SEARCH_DIGESTS[(k, tau)]
        assert search_digest(k, tau, count) == want

    def test_starved_search_pinned(self):
        # budget 50 runs out on 31 of the 32 layers, so exact=False and the
        # best point at the cut are pinned as well
        want = "1102e139aa1ec29d6a7de0262bae8b6f0ea52833e7d35036e6f32cc6ce6c8bba"
        assert search_digest(16, 1.0, 2, budget=50) == want


def random_triangle(rng, k):
    """The columns above the diagonal and the diagonal of a random k x k
    upper triangle with diagonal in [1, 3] and entries above it in
    [-1.5, 1.5], as intsearch._triangle gives them."""
    r = np.triu(rng.uniform(-1.5, 1.5, (k, k)), 1) + np.diag(rng.uniform(1.0, 3.0, k))
    return intsearch._triangle(r)


class TestEnumerationKernel:
    @pytest.mark.parametrize("k", range(1, 21))
    def test_matches_the_reference(self, k):
        # several targets and budgets on one triangle share one table set,
        # visited in shuffled order; budgets 1-7 run out inside the leaf
        # loop for small k, and the start radii range from none to tight
        rng = np.random.default_rng([41, k])
        cols, diag = random_triangle(rng, k)
        products = [{} for _ in cols]
        cases = []
        for _ in range(4):
            v = rng.normal(0.0, rng.choice([0.5, 2.0, 8.0]), k)
            c0 = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            for start in (np.inf, float(v @ v) + c0, 0.3 * float(v @ v) + c0):
                cases += [(v, start, c0, budget) for budget in (1, 2, 3, 7, 10**6)]
        for i in rng.permutation(len(cases)):
            v, start, c0, budget = cases[i]
            got = intsearch._se_enumerate(v, cols, diag, start, c0, budget, products)
            assert got == se_enumerate_reference(v, cols, diag, start, c0, budget)

    def test_near_tied_leaves(self):
        # level-0 centres a rounding error from a half integer: in some the
        # second sibling in zig-zag order is strictly closer than the first
        rng = np.random.default_rng(43)
        for _ in range(300):
            cols, diag = random_triangle(rng, 3)
            cols[1][0] = 0.0  # so partial[0][0] = v[0]
            p = (rng.integers(-5, 6) + 0.5) * diag[0]
            v = np.array([p + rng.choice([-1, 0, 1]) * abs(p) * 2.0**-52, 0.0, 0.0])
            want = se_enumerate_reference(v, cols, diag, np.inf, 0.0, 10**6)
            got = intsearch._se_enumerate(v, cols, diag, np.inf, 0.0, 10**6, [{} for _ in cols])
            assert got == want


def stacked_layers(k):
    """(targets, basis, cache): the K layer targets of a real K x K ZF
    problem at tau = 0.5, stacked, with the basis and its reduction."""
    hplus = pseudo_inverse(generate_real_channel(np.random.default_rng([23, k]), k))
    return 0.5 * hplus, -hplus, lll_reduce(-hplus.T)


def assert_rows_match(rows, solutions):
    q, cost, exact, nodes = rows
    assert len(q) == len(solutions)
    for i, sol in enumerate(solutions):
        assert q[i].tobytes() == sol.q.tobytes()
        assert repr(float(cost[i])) == repr(sol.cost)
        assert (bool(exact[i]), int(nodes[i])) == (sol.exact, sol.nodes_visited)


class TestRowSearch:
    # the row search computes everything but the enumeration for all rows at
    # once; each row must still give the bytes of its own one-row search,
    # also where budget 50 cuts the enumeration short

    @pytest.mark.parametrize("k", [6, 12, 24])
    @pytest.mark.parametrize("budget", [50, 10**6])
    @pytest.mark.parametrize("cached", [True, False])
    def test_sd_rows_equal_one_row_searches(self, k, budget, cached):
        targets, basis, cache = stacked_layers(k)
        cache = cache if cached else None
        rows = _solve_sd_rows(targets, basis, budget, cache)
        solutions = [solve_sd(IlsProblem(b, basis), budget, cache) for b in targets]
        assert_rows_match(rows, solutions)

    @pytest.mark.parametrize("k", [6, 12, 24])
    def test_lll_rows_equal_one_row_estimates(self, k):
        targets, basis, cache = stacked_layers(k)
        rows = _lll_rows(targets, basis, cache)
        assert_rows_match(rows, [solve_lll(IlsProblem(b, basis), cache) for b in targets])

    @pytest.mark.parametrize("k", [1, 4, 6])
    @pytest.mark.parametrize("bound", [2, 8])
    def test_brute_rows_equal_one_row_searches(self, k, bound):
        targets, basis, _ = stacked_layers(k)
        rows = _brute_rows(targets, basis, bound)
        assert_rows_match(rows, [solve_brute(IlsProblem(b, basis), bound) for b in targets])


class TestDroppedCandidates:
    def test_exact_search_never_loses_to_the_snapped_estimates(self):
        # the sphere search scores zero, its rounding warm start and its
        # enumeration's point only; _lll_rows scores zero and both snapped
        # estimates, so an exact row at or below its cost shows that neither
        # snap could have won.  Real K x K ZF problems at tau = 1, 0.5 and
        # 0.25 (4-, 16- and 64-QAM), K = 6..12, 10 channels each
        rng = np.random.default_rng(31)
        exact_rows = 0
        for k in range(6, 13):
            for _ in range(10):
                hplus = pseudo_inverse(generate_real_channel(rng, k))
                cache = lll_reduce(-hplus.T)
                targets = np.concatenate([tau * hplus for tau in (1.0, 0.5, 0.25)])
                _, cost, exact, _ = _solve_sd_rows(targets, -hplus, 10**6, cache)
                _, snap_cost, _, _ = _lll_rows(targets, -hplus, cache)
                assert np.all(cost[exact] <= snap_cost[exact])
                exact_rows += int(exact.sum())
        assert exact_rows == 3 * 10 * sum(range(6, 13))


class TestSolveBrute:
    def test_zero_target(self):
        p = IlsProblem(np.zeros(3), np.eye(3))
        sol = solve_brute(p, bound=4)
        assert sol.cost == 0.0
        assert sol.q.tolist() == [0, 0, 0]

    def test_reference_layer_four_cost_matches_reference_row(self):
        # the reference perturbation (2, 0, 0, -2) attains the box optimum
        hplus = pseudo_inverse(H_REF)
        p = reference_problem(3)
        sol = solve_brute(p, bound=8)
        row = hplus[3] + np.array([2, 0, 0, -2]) @ hplus
        assert sol.cost == pytest.approx(float(row @ row), abs=1e-12)

    def test_box_guard(self):
        p = IlsProblem(np.zeros(12), np.eye(12))
        message = r"box search would visit 2\.256e\+19 points \(limit 1e\+08\); shrink bound or K"
        with pytest.raises(ValueError, match=message):
            solve_brute(p, bound=40)
        with pytest.raises(ValueError, match=message):
            _brute_rows(np.zeros((3, 12)), p.B, 40)

    def test_single_dimension(self):
        p = IlsProblem(np.array([3.1]), np.array([[1.0]]))
        sol = solve_brute(p, bound=8)
        assert sol.q.tolist() == [4]


class TestLllReduce:
    def test_identity_passthrough(self):
        red = lll_reduce(np.eye(4))
        assert np.array_equal(red.t, np.eye(4, dtype=np.int64))

    def test_skewed_basis_satisfies_lovasz(self):
        m = np.array([[1.0, 1.0], [0.0, 1e-3]])
        red = lll_reduce(m, delta=0.75)
        b = red.bbar
        n0, n1 = b[:, 0] @ b[:, 0], b[:, 1] @ b[:, 1]
        mu = (b[:, 1] @ b[:, 0]) / n0
        assert n1 + mu**2 * n0 >= (0.75 - mu**2) * n0 - 1e-15  # projected form

    def test_random_bases_reconstruct(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal((8, 8))
            red = lll_reduce(m)
            assert np.allclose(red.bbar, m @ red.t, atol=1e-9)
            assert abs(int_det(red.t)) == 1

    def test_tall_basis(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 4))
        red = lll_reduce(m)
        assert np.allclose(red.bbar, m @ red.t, atol=1e-9)

    def test_rejects_dependent_columns(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ValueError):
            lll_reduce(m)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=0.2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_basis(self, bad):
        with pytest.raises(ValueError, match="basis must be finite"):
            lll_reduce(np.array([[1.0, bad], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rejects_non_finite_gram_schmidt(self, scale):
        # finite entries whose squares overflow or underflow; the refusal
        # comes before any numpy warning
        m = scale * np.random.default_rng(1).standard_normal((6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram-Schmidt norms or coefficients"):
                lll_reduce(m)


# bases per size, 2,000 in all: ZF bases of real K x K channels (by K) and
# of complex kc x kc channels in their real embedding (by kc)
GRAM_SCHMIDT_REAL = {2: 200, 3: 200, 4: 200, 6: 200, 8: 150, 12: 100, 16: 60, 24: 30, 32: 20}
GRAM_SCHMIDT_COMPLEX = {kc: 120 for kc in range(2, 9)}


class TestGramSchmidt:
    """_gram_schmidt takes each squared norm once; its bytes must be those
    of the per-pair oracle, on the bases in the layout lll_reduce passes."""

    @staticmethod
    def assert_same_bytes(m):
        basis = np.array(m, dtype=float)  # as lll_reduce copies its input
        norms, mu = _gram_schmidt(basis)
        want_norms, want_mu = gram_schmidt_pairwise(basis)
        assert norms.tobytes() == want_norms.tobytes()
        assert mu.tobytes() == want_mu.tobytes()

    @pytest.mark.parametrize("k", sorted(GRAM_SCHMIDT_REAL))
    def test_real_zf_bases(self, k):
        rng = np.random.default_rng([21, k])
        for i in range(GRAM_SCHMIDT_REAL[k]):
            m = zf_basis(generate_real_channel(rng, k))
            # both layouts: the fit's (columns contiguous) and row-major
            self.assert_same_bytes(m if i % 2 else np.ascontiguousarray(m))

    @pytest.mark.parametrize("kc", sorted(GRAM_SCHMIDT_COMPLEX))
    def test_complex_embedded_bases(self, kc):
        rng = np.random.default_rng([22, kc])
        for _ in range(GRAM_SCHMIDT_COMPLEX[kc]):
            self.assert_same_bytes(zf_basis(embed_complex(generate_channel(rng, kc))))


@pytest.mark.usefixtures("fresh_reduction_memo")
class TestReductionMemo:
    def test_same_input_reduced_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(intsearch, "lll_reduce", lambda *a: calls.append(a) or lll_reduce(*a))
        m = np.ascontiguousarray(zf_basis(generate_real_channel(np.random.default_rng(19), 6)))
        first = _reduce(m, 0.75)
        assert _reduce(m.copy(), 0.75) is first
        second = _reduce(m, 0.99)  # delta is part of the key
        assert second is not first
        assert _reduce(m, 0.99) is second
        assert _reduce(np.asfortranarray(m), 0.99) is not second  # so is the layout
        assert len(calls) == 3

    def test_writing_into_the_input_cannot_poison_the_memo(self):
        m = zf_basis(generate_real_channel(np.random.default_rng(20), 6))
        first = _reduce(m, 0.75)
        m[0, 0] += 1.0
        second = _reduce(m, 0.75)
        assert second is not first
        fresh = lll_reduce(m)
        assert second.bbar.tobytes() == fresh.bbar.tobytes()
        assert second.t.tobytes() == fresh.t.tobytes()


def zf_basis(h):
    """The basis MZFDetector reduces for the zero-forcing equalizer."""
    return -pseudo_inverse(h).T


def lmmse_basis(h, n0):
    """The tall (N+K) x K residual basis of the regularized equalizer."""
    noise = NoiseSpec(n0)
    return -mmse_error_matrix(lmmse_inverse(h, noise), h, noise).T


def assert_lll_reduced(m, red, delta=0.75, eps=1e-9):
    # Gram-Schmidt of the output recomputed from scratch through QR
    r = np.linalg.qr(red.bbar, mode="r")
    norms = np.diag(r) ** 2
    mu = (r / np.diag(r)[:, None]).T  # mu[i, j] = <b_i, b*_j> / |b*_j|^2
    assert np.all(np.abs(np.tril(mu, -1)) <= 0.5 + eps)
    lovasz = norms[1:] - (delta - np.diag(mu, -1) ** 2) * norms[:-1]
    assert np.all(lovasz >= -eps * norms[:-1])
    assert np.allclose(red.bbar, m @ red.t, rtol=0, atol=1e-9 * np.abs(m).max())
    assert abs(int_det(red.t)) == 1


# sha256 over (bbar, t) of ZF bases of real channels drawn from rng([11, K]),
# made with the reduction that recomputed Gram-Schmidt after every swap
REDUCTION_DIGESTS = {
    8: (20, "0d049dc57dbdd13c7e8f8e76c6b0827453ad6ffdd8838b3029934bc737095de3"),
    12: (10, "21f66b00fd83364cc0aae4f0a05072e1062c5539019abdac09c0942cdb301b97"),
    16: (10, "33198d8d37309faed725313c4df8f5d10f72844f86cc13c1d2b4fa6ca45f6007"),
    24: (4, "22f4ccb55ce1e3b52ba2177788303bba40892e6cc134cdf75f6aff05b5298d38"),
    32: (3, "df9d39b1a36b76bc3ab7bcefdc758328a4879ea828cfd0f385dc88aa630fa975"),
}

# sha256 over (bbar, t) of the tie-prone bases below: ZF bases of complex
# channels in their real embedding (by kc) and tall LMMSE residual bases (by
# K), made with the numpy-array reduction loop
COMPLEX_DIGESTS = {
    3: "49b5b0a913df9ad9ddce1127d300dd882a7de96e67b019fe20c6649341ba1278",
    4: "596bcf8625dbbe36c7d2e2ef98e82212cd555d39cd5396c29a8461b103cc82fc",
}
TALL_DIGESTS = {
    6: "96a7277942ff5bd3a301c73ead394ac8563cd1548bc7feb2c75b74da8e3f6c89",
    8: "a315ea79bce2a8954c803f118a66a56bf626e6ce65043ffcafcbeb376611e173",
}


class TestLllOnChannelBases:
    @pytest.mark.parametrize("k", sorted(REDUCTION_DIGESTS))
    def test_reduced_bases_pinned(self, k):
        count, want = REDUCTION_DIGESTS[k]
        rng = np.random.default_rng([11, k])
        digest = hashlib.sha256()
        for _ in range(count):
            red = lll_reduce(zf_basis(generate_real_channel(rng, k)))
            digest.update(red.bbar.tobytes())
            digest.update(red.t.tobytes())
        assert digest.hexdigest() == want

    @pytest.mark.parametrize("kc", sorted(COMPLEX_DIGESTS))
    def test_complex_embedded_bases(self, kc):
        # the real embedding puts exact +-k.5 Gram-Schmidt ties in play, so
        # any reordered operation in the reduction shows in the digest
        rng = np.random.default_rng([14, kc])
        digest = hashlib.sha256()
        for _ in range(200):
            m = zf_basis(embed_complex(generate_channel(rng, kc).entries))
            red = lll_reduce(m)
            assert_lll_reduced(m, red)
            digest.update(red.bbar.tobytes())
            digest.update(red.t.tobytes())
        assert digest.hexdigest() == COMPLEX_DIGESTS[kc]

    @pytest.mark.parametrize("k", sorted(TALL_DIGESTS))
    def test_tall_lmmse_residual_bases(self, k):
        rng = np.random.default_rng([15, k])
        digest = hashlib.sha256()
        for _ in range(30):
            h = generate_real_channel(rng, k)
            for n0 in (0.01, 0.1, 1.0):
                m = lmmse_basis(h, n0)
                assert m.shape == (2 * k, k)
                red = lll_reduce(m)
                assert_lll_reduced(m, red)
                digest.update(red.bbar.tobytes())
                digest.update(red.t.tobytes())
        assert digest.hexdigest() == TALL_DIGESTS[k]

    @pytest.mark.parametrize("k, count", [(24, 6), (32, 3)])
    def test_large_real_bases(self, k, count):
        rng = np.random.default_rng([16, k])
        for _ in range(count):
            m = zf_basis(generate_real_channel(rng, k))
            assert_lll_reduced(m, lll_reduce(m))


class TestSolveLll:
    def test_exact_on_orthogonal_basis(self):
        rng = np.random.default_rng(5)
        q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        basis = q_mat * np.array([1.0, 2.0, 0.5, 1.5])[:, None]
        b = np.array([2, -4, 0, 6], dtype=float) @ basis + 0.01 * q_mat[0]
        p = IlsProblem(b, basis)
        cache = lll_reduce(basis.T)
        assert solve_lll(p, cache).cost == pytest.approx(solve_sd(p, cache=cache).cost)

    def test_never_better_than_exact_search(self):
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(100):
            p = random_problem(rng, k=8)
            cache = lll_reduce(p.B.T)
            approx = solve_lll(p, cache)
            exact = solve_sd(p, cache=cache)
            assert not approx.exact
            assert approx.cost >= exact.cost - 1e-12
            ratios.append(approx.cost / exact.cost)
        assert np.mean(ratios) >= 1.0

    def test_reference_problem(self):
        p = reference_problem(1)
        cache = lll_reduce(p.B.T)
        assert solve_lll(p, cache).cost >= solve_sd(p, cache=cache).cost - 1e-12

    def test_rejects_cache_of_another_problem(self):
        rng = np.random.default_rng(17)
        p, other = random_problem(rng), random_problem(rng)
        with pytest.raises(ValueError, match="cache"):
            solve_lll(p, lll_reduce(other.B.T))
        with pytest.raises(ValueError, match="cache"):
            solve_lll(p, lll_reduce(random_problem(rng, k=5).B.T))


class TestCostOrdering:
    def test_chain_over_random_instances(self):
        # exact search <= reduction estimate <= zero
        rng = np.random.default_rng(9)
        for i in range(100):
            p = random_problem(rng, k=6, tau=1.0 if i % 2 else 0.5)
            cache = lll_reduce(p.B.T)
            zero_cost = float(p.b @ p.b)
            c_sd = solve_sd(p, cache=cache).cost
            c_lll = solve_lll(p, cache).cost
            assert c_sd <= c_lll + 1e-12
            assert c_lll <= zero_cost + 1e-12

    def test_feasibility_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            p = random_problem(rng)
            cache = lll_reduce(p.B.T)
            for sol in (
                solve_sd(p, cache=cache),
                solve_lll(p, cache),
                solve_brute(p, bound=6),
            ):
                assert np.all(sol.q % 2 == 0)
                assert sol.cost <= float(p.b @ p.b) + 1e-12
                assert sol.cost >= 0.0


class TestIlsProblem:
    def test_rejects_nonconformal(self):
        with pytest.raises(ValueError):
            IlsProblem(np.zeros(3), np.eye(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            IlsProblem(np.array([np.nan, 0.0]), np.eye(2))
