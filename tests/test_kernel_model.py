import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from blockdpp import kernel_model as km
from blockdpp import matrix_core as mc


def block_diag_kernel():
    """7x7 strictly block-diagonal kernel with blocks of size 3 and 4."""
    rng = np.random.default_rng(0)
    L = np.zeros((7, 7))
    for a, b in ((0, 3), (3, 7)):
        B = rng.standard_normal((6, b - a))
        L[a:b, a:b] = B.T @ B
    return L


# Entries for the reach scan's edges: in (0, eps_zero] or -0.0 (never a
# nonzero), NaN (held, but |NaN| > eps_zero fails), and negative beyond
# eps_zero (a nonzero)
FAR_VALUES = (km.DEFAULT_EPS_ZERO, km.DEFAULT_EPS_ZERO / 2, -0.0, np.nan,
              -2 * km.DEFAULT_EPS_ZERO, -0.5)


def dense_reach(L, eps_zero=km.DEFAULT_EPS_ZERO):
    """reach[r]: the last column c >= r with |L_rc| > eps_zero, or r, from
    the whole upper triangle at once."""
    nz = np.triu(np.abs(L) > eps_zero)
    n = L.shape[0]
    last = n - 1 - np.argmax(nz[:, ::-1], axis=1)
    return np.where(nz.any(axis=1), last, np.arange(n))


class TestBlockPartition:
    def test_basic_properties(self):
        p = km.BlockPartition((3, 4), gamma=2)
        assert p.n == 7 and p.m == 2
        assert np.array_equal(p.cuts(), [3])
        assert p.ranges() == [(0, 3), (3, 7)]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            km.BlockPartition(())
        with pytest.raises(ValueError):
            km.BlockPartition((3, 0))
        with pytest.raises(ValueError):
            km.BlockPartition((3,), gamma=-1)

    @pytest.mark.parametrize("gamma", [2.0, 1.5, float("nan"), "2"])
    def test_rejects_non_integer_gamma(self, gamma):
        # NaN passed the old gamma < 0 test
        with pytest.raises(ValueError, match="gamma"):
            km.BlockPartition((2,), gamma)

    def test_numpy_integer_gamma_is_valid(self):
        assert km.BlockPartition((2,), np.int64(3)).gamma == 3

    def test_json_roundtrip(self):
        p = km.BlockPartition((5, 2, 9), gamma=4)
        assert km.BlockPartition.from_json_dict(p.to_json_dict()) == p

    @pytest.mark.parametrize("size", [3.7, 3.0, float("nan"), "3"])
    def test_rejects_non_integer_block_size(self, size):
        with pytest.raises(ValueError, match="block sizes"):
            km.BlockPartition((2, size))

    @pytest.mark.parametrize("d,field", [
        ({"block_sizes": [2, 3.7], "gamma": 1}, "block sizes"),
        ({"block_sizes": [2, 3], "gamma": 1.5}, "gamma"),
    ])
    def test_json_values_are_not_cast(self, d, field):
        # int() once loaded {"block_sizes": [2, 3.7], "gamma": 1.5} as ((2, 3), 1)
        with pytest.raises(ValueError, match=field):
            km.BlockPartition.from_json_dict(d)


class TestDppKernel:
    def test_array_protocol_shares_or_copies_L(self):
        kern = km.DppKernel(L=block_diag_kernel())
        assert np.shares_memory(np.asarray(kern), kern.L)
        B = np.array(kern, copy=True)
        assert np.array_equal(B, kern.L) and not np.shares_memory(B, kern.L)
        assert np.asarray(kern, dtype=np.float32).dtype == np.float32

    def test_array_protocol_takes_both_numpy_call_forms(self):
        # numpy 1.x calls __array__() or __array__(dtype), with no copy
        # keyword; numpy 2 passes copy as well
        kern = km.DppKernel(L=block_diag_kernel())
        assert kern.__array__() is kern.L
        assert kern.__array__(np.float64) is kern.L
        assert kern.__array__(np.float32).dtype == np.float32
        assert kern.__array__(None, False) is kern.L
        B = kern.__array__(None, True)
        assert np.array_equal(B, kern.L) and not np.shares_memory(B, kern.L)

    def test_L_is_a_read_only_view(self):
        A = block_diag_kernel()
        kern = km.DppKernel(L=A)
        assert np.shares_memory(kern.L, A) and A.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kern.L[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(kern)[0, 0] = 1.0

    def test_non_symmetric_L_raises_at_construction(self):
        A = block_diag_kernel()
        A[0, 1] += 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            km.DppKernel(L=A)
        with pytest.raises(ValueError, match="non-finite"):
            km.DppKernel(L=[[1.0, np.nan], [np.nan, 1.0]])

    def test_block_is_not_scanned_again(self, monkeypatch):
        kern = km.DppKernel(L=block_diag_kernel())
        monkeypatch.setattr(mc, "_asymmetry", None)   # any scan would fail
        B = kern.block(3, 7)
        assert km.as_kernel(B) is B and km.as_kernel(kern) is kern
        assert np.shares_memory(B.L, kern.L) and not B.L.flags.writeable
        assert np.array_equal(B.L, kern.L[3:, 3:])

    def test_copy_of_a_block_is_scanned(self):
        # a sub-solver that copies its block gets a raw array, which the
        # next public call checks
        S = np.array(km.DppKernel(L=block_diag_kernel()).block(0, 5))
        assert S.flags.writeable
        S[0, 1] += 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            km.as_kernel(S)

    def test_entries_read_like_the_matrix(self):
        A = block_diag_kernel()
        kern = km.DppKernel(L=A)
        rows, cols = np.array([1, 4]), np.array([0, 2, 6])
        assert kern.shape == A.shape
        assert np.array_equal(kern.diagonal(), np.diagonal(A))
        assert np.array_equal(kern[4], A[4])
        assert np.array_equal(kern.cross(rows, cols), A[np.ix_(rows, cols)])
        assert np.array_equal(kern.cross(rows, slice(2, 6)), A[rows, 2:6])
        assert np.array_equal(kern.prefix_reach(km.DEFAULT_EPS_ZERO),
                              np.maximum.accumulate(km._reach(A, km.DEFAULT_EPS_ZERO)))


class TestGaussianSimilarity:
    def test_values_and_truncation(self):
        t = np.array([0.0, 1.0, 100.0])
        S = km.gaussian_position_similarity(t, sigma=1.0)
        assert S[0, 1] == pytest.approx(np.exp(-1.0))
        assert S[0, 2] == 0.0  # exp(-10000) truncated to an exact zero
        assert np.all(np.diagonal(S) == 1.0)
        assert np.array_equal(S, S.T)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            km.gaussian_position_similarity([1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            km.gaussian_position_similarity([1.0, 2.0], 0.0)

    @pytest.mark.parametrize("times", [[1.0, np.nan, 3.0], [1.0, 2.0, np.inf]])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(ValueError, match="non-finite"):
            km.gaussian_position_similarity(times, 1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            km.gaussian_position_similarity([1.0, 2.0], sigma)

    @pytest.mark.parametrize("eps_zero", [np.nan, -1e-12])
    def test_rejects_nan_or_negative_eps_zero(self, eps_zero):
        # with eps_zero NaN, S < eps_zero is false everywhere and nothing
        # would be truncated
        with pytest.raises(ValueError, match="eps_zero"):
            km.gaussian_position_similarity([1.0, 2.0], 1.0, eps_zero)

    @pytest.mark.parametrize("sigma", [5.0, 50.0, 200.0])
    @pytest.mark.parametrize("eps_zero", [0.0, km.DEFAULT_EPS_ZERO])
    def test_similarity_is_psd(self, sigma, eps_zero):
        # a Gaussian kernel on distinct points, truncated below eps_zero;
        # candidate spacings of 2 make it numerically rank deficient
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.integers(2, 12, size=300)).astype(np.float64)
        S = km.gaussian_position_similarity(t, sigma, eps_zero)
        assert np.linalg.eigvalsh(S)[0] >= -1e-10
        assert mc.as_psd(S) is S

    @pytest.mark.parametrize("spacing", ["1", "2", "random"])
    @pytest.mark.parametrize("sigma", [5.0, 50.0, 200.0, 2000.0])
    @pytest.mark.parametrize("eps_zero", [0.0, 1e-12, 1e-8, 1e-6, 1e-2])
    def test_truncation_bound(self, spacing, sigma, eps_zero):
        # the bound build_cpd_kernel relies on in place of a factorisation:
        # the zeroed entries of a row sum to at most delta, so by Weyl
        # lambda_min(S) >= -delta and lambda_min(diag(q) S diag(q)) >=
        # -delta * max q^2.  Spacings 1 and 2 pack the most zeroed entries
        # into a row; large sigma makes S numerically rank deficient.
        rng = np.random.default_rng(11)
        n = 200
        t = {"1": np.arange(n, dtype=np.float64),
             "2": np.arange(0.0, 2.0 * n, 2.0),
             "random": np.cumsum(rng.integers(2, 40, n)).astype(np.float64)}[spacing]
        q = rng.uniform(0.2, 3.0, n)
        h = np.diff(t).min()
        delta = 0.0
        if eps_zero > 0:
            r = sigma * np.sqrt(np.log(1.0 / eps_zero))
            delta = 2.0 * eps_zero / (1.0 - np.exp(-2.0 * r * h / sigma**2))
        S = km.gaussian_position_similarity(t, sigma, eps_zero)
        L = np.asarray(km.CandidateKernel(t, q, sigma, eps_zero))
        assert np.linalg.eigvalsh(S)[0] >= -delta - 1e-12
        assert np.linalg.eigvalsh(L)[0] >= -delta * q.max() ** 2 - 1e-12


def dense_candidate_kernel(t, q, sigma, eps_zero):
    """L = diag(q) S diag(q) built as gaussian_position_similarity and
    build_cpd_kernel built it before the kernel went matrix-free."""
    S = t[:, None] - t[None, :]
    S *= S
    S /= -(sigma * sigma)
    np.exp(S, out=S)
    S[S < eps_zero] = 0.0
    np.fill_diagonal(S, 1.0)
    S *= q[:, None]
    S *= q
    return S


def candidates(n, seed, tiny=False):
    """Strictly increasing times at spacings of 1 to 19, qualities U(0.2, 3)
    or, with tiny, log-uniform over 1e-9 to 10."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(1, 20, n)).astype(np.float64) - 500.0
    q = 10 ** rng.uniform(-9, 1, n) if tiny else rng.uniform(0.2, 3.0, n)
    return t, q


class TestCandidateKernel:
    @pytest.mark.parametrize("sigma", [0.5, 5.0, 50.0, 500.0])
    @pytest.mark.parametrize("eps_zero", [0.0, 1e-12, 1e-6, 1e-2, 1.0, 2.0])
    @pytest.mark.parametrize("tiny", [False, True])
    def test_rows_blocks_and_array_equal_the_dense_build(self, sigma, eps_zero, tiny):
        t, q = candidates(150, 3, tiny)
        L = dense_candidate_kernel(t, q, sigma, eps_zero)
        k = km.CandidateKernel(t, q, sigma, eps_zero)
        assert k.shape == L.shape
        assert np.array_equal(np.asarray(k), L)
        assert np.array_equal(k.diagonal(), np.diagonal(L))
        assert all(np.array_equal(k[j], L[j]) for j in range(t.size))
        for a, b in ((0, 150), (0, 1), (37, 120), (149, 150)):
            B = k.block(a, b)
            assert np.array_equal(np.asarray(B), L[a:b, a:b])
            assert all(np.array_equal(B[j], L[a + j, a:b]) for j in range(b - a))
        rows = np.array([3, 40, 41, 130])
        assert np.array_equal(k.cross(rows, slice(30, 90)), L[rows, 30:90])
        assert np.array_equal(k.cross(rows, rows), L[np.ix_(rows, rows)])

    @pytest.mark.parametrize("eps_zero", [0.0, 1e-12, 1e-4])
    def test_similarity_is_the_unit_quality_kernel(self, eps_zero):
        t, _ = candidates(80, 4)
        S = km.gaussian_position_similarity(t, 20.0, eps_zero)
        assert np.array_equal(S, dense_candidate_kernel(t, np.ones(80), 20.0, eps_zero))

    @pytest.mark.parametrize("sigma", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("eps_zero", [0.0, 1e-12, 1e-4])
    @pytest.mark.parametrize("tiny", [False, True])
    @pytest.mark.parametrize("threshold", ["own", 0.0, 1e-6])
    def test_prefix_reach_equals_the_dense_scan(self, sigma, eps_zero, tiny, threshold):
        # tiny qualities leave rows with nothing above the threshold at the
        # end of their window, which sends them past the edge columns
        t, q = candidates(3 * km.REACH_TILE, 5, tiny)
        L = dense_candidate_kernel(t, q, sigma, eps_zero)
        e = eps_zero if threshold == "own" else threshold
        k = km.CandidateKernel(t, q, sigma, eps_zero)
        assert np.array_equal(k.prefix_reach(e), np.maximum.accumulate(km._reach(L, e)))
        B = k.block(20, 150)
        assert np.array_equal(B.prefix_reach(e),
                              np.maximum.accumulate(km._reach(L[20:150, 20:150], e)))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tiny", [False, True])
    def test_gamma_partition_equals_the_dense_one(self, seed, tiny):
        t, q = candidates(120, seed, tiny)
        for sigma, eps_zero in ((2.0, 1e-12), (8.0, 1e-4), (30.0, 1e-2)):
            k = km.CandidateKernel(t, q, sigma, eps_zero)
            L = dense_candidate_kernel(t, q, sigma, eps_zero)
            for gamma in range(7):
                P = km.gamma_partition(k, gamma, eps_zero)
                assert P == km.gamma_partition(L, gamma, eps_zero)
                assert km.validate_partition(k, P, eps_zero)

    def test_small_quality_cuts_where_the_similarity_does_not(self):
        # S_01 = exp(-1) is far above eps_zero, but q_0 pushes L_01 under
        # it, so the partition of L cuts where S alone would not
        t, q = np.array([0.0, 10.0, 13.0]), np.array([1e-3, 1.0, 1.5])
        k = km.CandidateKernel(t, q, 10.0, 1e-3)
        L = np.asarray(k)
        assert L[0, 1] <= 1e-3 < km.gaussian_position_similarity(t, 10.0, 1e-3)[0, 1]
        for gamma in range(7):
            assert km.gamma_partition(k, gamma, 1e-3) == km.gamma_partition(L, gamma, 1e-3)
        assert km.gamma_partition(k, 0, 1e-3).block_sizes == (1, 2)

    def test_zero_eps_zero_leaves_the_window_unbounded(self):
        # exp(-(1000/50)^2) = exp(-400) is tiny but nonzero
        k = km.CandidateKernel([0.0, 1000.0], [1.0, 1.0], 50.0, 0.0)
        assert 0.0 < k[0][1] < 1e-170
        assert km.gamma_partition(k, 0, 0.0).block_sizes == (2,)

    def test_is_immutable_and_keeps_its_own_copy(self):
        t, q = candidates(10, 0)
        k = km.CandidateKernel(t, q, 5.0)
        t[0] = -1e9
        assert k.times[0] != -1e9
        with pytest.raises(AttributeError):
            k.sigma = 1.0
        with pytest.raises(ValueError):
            k.quality[0] = 2.0

    @pytest.mark.parametrize("times, quality, sigma, eps_zero, match", [
        ([0.0, np.nan], [1.0, 1.0], 1.0, 0.0, "non-finite"),
        ([1.0, 1.0], [1.0, 1.0], 1.0, 0.0, "strictly increasing"),
        ([0.0, 1.0], [1.0, 1.0], np.inf, 0.0, "sigma"),
        ([0.0, 1.0], [1.0, 1.0], 1.0, np.nan, "eps_zero"),
        ([0.0, 1.0], [1.0], 1.0, 0.0, "sizes differ"),
        ([0.0, 1.0], [1.0, 0.0], 1.0, 0.0, "positive and finite"),
        ([0.0, 1.0], [1.0, np.nan], 1.0, 0.0, "positive and finite"),
        # diagonal [inf, 4, 9], on which greedy_map would pick every item
        ([0.0, 1.0, 50.0], [1e200, 2.0, 3.0], 1.0, 0.0, "finite squares"),
    ])
    def test_rejects_bad_input(self, times, quality, sigma, eps_zero, match):
        with pytest.raises(ValueError, match=match):
            km.CandidateKernel(times, quality, sigma, eps_zero)


class TestQualityDiversityKernel:
    def test_construction(self):
        q = np.array([2.0, 3.0])
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        kern = km.build_quality_diversity_kernel(q, S)
        assert np.allclose(kern.L, [[4.0, 3.0], [3.0, 9.0]])

    def test_leaves_the_similarity_untouched(self):
        # L is scaled into a copy of S; the caller's S stays as it was
        S = km.gaussian_position_similarity([0.0, 1.0, 3.0], 2.0)
        before = S.copy()
        kern = km.build_quality_diversity_kernel([2.0, 3.0, 0.5], S)
        assert np.array_equal(S, before) and not np.shares_memory(kern.L, S)

    def test_rejects_nonpositive_quality(self):
        S = np.eye(2)
        with pytest.raises(ValueError):
            km.build_quality_diversity_kernel([1.0, 0.0], S)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            km.build_quality_diversity_kernel([1.0], np.eye(2))

    def test_rejects_overflowing_quality(self):
        # L is held without a second scan, so inf must not get into it
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            km.build_quality_diversity_kernel([1e200, 1.0], np.eye(2))

    def test_rejects_indefinite_similarity(self):
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            km.build_quality_diversity_kernel([1.0, 1.0], S)

    @pytest.mark.parametrize("lam_min, ok", [(-0.5e-8, True), (-2e-8, False)])
    def test_psd_tolerance_of_a_unit_diagonal_similarity(self, lam_min, ok):
        off = 1.0 - lam_min    # eigenvalues 2 - lam_min and lam_min
        S = np.array([[1.0, off], [off, 1.0]])
        if ok:
            assert km.build_quality_diversity_kernel([1.0, 2.0], S).shape == (2, 2)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                km.build_quality_diversity_kernel([1.0, 2.0], S)

    def test_one_scan_and_no_eigendecomposition(self, monkeypatch):
        calls = []
        scan = mc.as_matrix

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(mc, "as_matrix", lambda M: calls.append(1) or scan(M))
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        S = km.gaussian_position_similarity(np.arange(0.0, 40.0, 2.0), 10.0)
        km.build_quality_diversity_kernel(np.linspace(0.5, 2.0, 20), S)
        assert calls == [1]


class TestGammaPartition:
    def test_strict_block_diagonal_gamma0(self):
        L = block_diag_kernel()
        assert km.gamma_partition(L, 0).block_sizes == (3, 4)

    def test_corner_forbids_cut_at_gamma0(self):
        L = block_diag_kernel()
        L[1:3, 3:5] = 0.3
        L[3:5, 1:3] = 0.3
        assert km.gamma_partition(L, 0).block_sizes == (7,)

    def test_corner_allowed_at_gamma2(self):
        L = block_diag_kernel()
        L[1:3, 3:5] = 0.3
        L[3:5, 1:3] = 0.3
        # (3, 4) is valid at gamma=2 ...
        assert km.validate_partition(L, km.BlockPartition((3, 4), 2))
        # ... but not maximal: cuts at 1, 3 and 5 are each valid too, and
        # (1, 2, 2, 2) still has all nonzeros inside 2x2 corners.
        p = km.gamma_partition(L, 2)
        assert p.block_sizes == (1, 2, 2, 2)

    @pytest.mark.parametrize("L", [np.ones((3, 5)), np.ones(3)])
    def test_rejects_non_square(self, L):
        with pytest.raises(ValueError, match="expected a square matrix"):
            km.gamma_partition(L, 0)

    @pytest.mark.parametrize("eps_zero", [np.nan, -1.0])
    def test_rejects_nan_or_negative_eps_zero(self, eps_zero):
        # with eps_zero NaN, |L| > eps_zero is false everywhere, and a dense
        # kernel would split into singletons
        with pytest.raises(ValueError, match="eps_zero"):
            km.gamma_partition(np.ones((5, 5)), 0, eps_zero)

    @pytest.mark.parametrize("gamma", [2.0, 1.5, float("nan")])
    def test_rejects_non_integer_gamma(self, gamma):
        # a float gamma used to fail with a TypeError from slicing
        with pytest.raises(ValueError, match="gamma"):
            km.gamma_partition(np.eye(5), gamma)

    def test_kernel_and_its_matrix_partition_alike(self):
        kern, _ = km.generate_synthetic_kernel(km.SyntheticKernelSpec(N=60, seed=3))
        for gamma in (0, 2, 6):
            assert km.gamma_partition(kern, gamma) == km.gamma_partition(kern.L, gamma)

    def test_dense_kernel_trivial_partition(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((8, 5))
        L = B.T @ B
        assert km.gamma_partition(L, 0).m == 1

    def test_monotone_in_gamma(self):
        kern, _ = km.generate_synthetic_kernel(
            km.SyntheticKernelSpec(N=80, seed=5))
        ms = [km.gamma_partition(kern.L, g).m for g in (0, 2, 4, 6)]
        assert ms == sorted(ms)

    def test_maximality_by_brute_force(self):
        # No partition with more blocks passes validate_partition, checked
        # over every cut subset on small kernels.
        for seed in range(8):
            kern, _ = km.generate_synthetic_kernel(
                km.SyntheticKernelSpec(N=10, block_size_range=(3, 5),
                                       overlap_choices=(0, 2), feature_dim=12,
                                       seed=seed))
            L = kern.L
            for gamma in (0, 2):
                best = km.gamma_partition(L, gamma)
                assert km.validate_partition(L, best)
                n = L.shape[0]
                best_m = max(
                    len(cuts) + 1
                    for r in range(n)
                    for cuts in itertools.combinations(range(1, n), r)
                    if km.validate_partition(
                        L, km.BlockPartition(
                            tuple(np.diff([0, *cuts, n]).tolist()), gamma))
                )
                assert best.m == best_m


    def test_zero_rows_reach_only_themselves(self):
        L = np.diag([0.0, 1.0, 0.0, 1.0])
        L[1, 3] = L[3, 1] = 0.5
        for gamma in (0, 1):
            assert km.gamma_partition(L, gamma).block_sizes == (1, 3)

    @pytest.mark.parametrize("r, c", [
        (0, km.REACH_TILE),                     # first column of panel 2
        (1, km.REACH_TILE - 1),                 # last column of panel 1
        (km.REACH_TILE - 1, 2 * km.REACH_TILE - 1),
        (km.REACH_TILE, 2 * km.REACH_TILE),     # first row of panel 2
        (2 * km.REACH_TILE - 1, 2 * km.REACH_TILE + 9),   # to the last column
    ])
    def test_reach_at_panel_edges(self, r, c):
        n = 2 * km.REACH_TILE + 10
        L = np.eye(n)
        L[r, c] = L[c, r] = 0.5
        z = km.REACH_TILE + 5                   # an all-zero row in panel 2
        L[z] = L[:, z] = 0.0
        reach = np.arange(n)
        reach[r] = c
        assert np.array_equal(km._reach(L, km.DEFAULT_EPS_ZERO), reach)
        for gamma in (0, 3):
            assert np.array_equal(
                km._invalid_cuts(km.DppKernel(L=L), gamma, km.DEFAULT_EPS_ZERO),
                oracle.invalid_cuts(L, gamma))

    @pytest.mark.parametrize("n", [2 * km.REACH_TILE + 10, 3 * km.REACH_TILE])
    @pytest.mark.parametrize("far", FAR_VALUES)
    def test_reach_past_each_panels_last_nonzero(self, n, far):
        # panel 1's last column != 0 holds only far (but for -0.0, which is
        # not held), panel 2 is all zero, and panel 3 ends in far too
        T = km.REACH_TILE
        L = np.eye(n)
        L[5, 40] = L[40, 5] = 0.5
        L[10, n - 1] = L[n - 1, 10] = far
        L[2 * T + 1, n - 2] = L[n - 2, 2 * T + 1] = far
        L[T:2 * T] = L[:, T:2 * T] = 0.0
        # read as gamma_partition reads a raw array, unscanned: NaN passes
        assert np.array_equal(km._reach(L, km.DEFAULT_EPS_ZERO), dense_reach(L))
        for gamma in (0, 3):
            assert np.array_equal(
                km._invalid_cuts(km.DppKernel._wrap(L), gamma, km.DEFAULT_EPS_ZERO),
                oracle.invalid_cuts(L, gamma))

    # N up to past two reach panels, so that panel edges are drawn too
    @settings(deadline=None, max_examples=200)
    @given(N=st.integers(1, 2 * km.REACH_TILE + 40), low=st.integers(1, 6),
           extra=st.integers(0, 6),
           overlaps=st.sets(st.integers(0, 5), min_size=1),
           seed=st.integers(0, 2**31 - 1),
           far=st.lists(st.tuples(st.integers(0, 2 * km.REACH_TILE + 39),
                                  st.integers(0, 2 * km.REACH_TILE + 39),
                                  st.sampled_from((1.0,) + FAR_VALUES)),
                        max_size=4),
           zero_rows=st.lists(st.integers(0, 2 * km.REACH_TILE + 39),
                              max_size=4),
           gamma=st.integers(0, 7))
    def test_cut_rule_matches_pair_sweep(self, N, low, extra, overlaps, seed,
                                         far, zero_rows, gamma):
        kern, _ = km.generate_synthetic_kernel(km.SyntheticKernelSpec(
            N=max(N, low), block_size_range=(low, low + extra),
            overlap_choices=tuple(sorted(overlaps)), feature_dim=8, seed=seed))
        L = np.array(kern.L)   # the kernel's L is read-only
        n = L.shape[0]
        for i, j, v in far:
            L[i % n, j % n] = L[j % n, i % n] = v
        for i in zero_rows:
            L[i % n] = L[:, i % n] = 0.0
        # read as gamma_partition reads a raw array, unscanned: NaN passes
        assert np.array_equal(km._invalid_cuts(km.DppKernel._wrap(L), gamma,
                                               km.DEFAULT_EPS_ZERO),
                              oracle.invalid_cuts(L, gamma))


class TestValidatePartition:
    def test_trivial_partition_always_valid(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((8, 5))
        L = B.T @ B
        assert km.validate_partition(L, km.BlockPartition((5,), 0))

    def test_dense_kernel_split_invalid(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((8, 5))
        L = B.T @ B
        assert not km.validate_partition(L, km.BlockPartition((2, 3), 0))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            km.validate_partition(np.eye(4), km.BlockPartition((2, 3), 0))

    @pytest.mark.parametrize("L", [np.ones((3, 5)), np.ones(3)])
    def test_rejects_non_square(self, L):
        with pytest.raises(ValueError, match="expected a square matrix"):
            km.validate_partition(L, km.BlockPartition((1, 2), 0))

    @pytest.mark.parametrize("eps_zero", [np.nan, -1.0])
    def test_rejects_nan_or_negative_eps_zero(self, eps_zero):
        with pytest.raises(ValueError, match="eps_zero"):
            km.validate_partition(np.ones((5, 5)), km.BlockPartition((2, 3), 0),
                                  eps_zero)

    def test_kernel_and_its_matrix_validate_alike(self):
        kern, part = km.generate_synthetic_kernel(km.SyntheticKernelSpec(N=60, seed=3))
        for P in (part, km.BlockPartition((30, 30), 0)):
            assert km.validate_partition(kern, P) == km.validate_partition(kern.L, P)


class TestSyntheticKernel:
    def test_deterministic(self):
        spec = km.SyntheticKernelSpec(N=60, seed=42)
        k1, p1 = km.generate_synthetic_kernel(spec)
        k2, p2 = km.generate_synthetic_kernel(spec)
        assert np.array_equal(k1.L, k2.L)
        assert p1 == p2

    def test_psd_after_repair(self):
        for seed in range(5):
            kern, _ = km.generate_synthetic_kernel(
                km.SyntheticKernelSpec(N=80, seed=seed))
            assert np.linalg.eigvalsh(kern.L)[0] >= -1e-10

    def test_ground_truth_partition_validates(self):
        for seed in range(10):
            kern, part = km.generate_synthetic_kernel(
                km.SyntheticKernelSpec(N=100, seed=seed))
            assert km.validate_partition(kern.L, part)

    def test_default_recipe_block_count(self):
        kern, part = km.generate_synthetic_kernel(
            km.SyntheticKernelSpec(N=500, seed=7))
        assert kern.L.shape == (500, 500)
        # blocks drawn uniformly from [10, 30] -> about 25 of them
        assert 15 <= part.m <= 45

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            km.SyntheticKernelSpec(N=5, block_size_range=(10, 30))
        with pytest.raises(ValueError):
            km.SyntheticKernelSpec(block_size_range=(8, 4))
        with pytest.raises(ValueError):
            km.SyntheticKernelSpec(overlap_choices=(-2,))
        with pytest.raises(ValueError):
            km.SyntheticKernelSpec(feature_dim=0)
