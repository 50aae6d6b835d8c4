import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from blockdpp import cpd_pipeline as cp
from blockdpp import kernel_model as km
from blockdpp import map_inference as mi
from blockdpp import matrix_core as mc
from blockdpp.errors import NonFinite, SingularToTolerance


def random_spd(n, seed, scale=2.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n + 5, n))
    return scale * (B.T @ B) / (n + 5)


def synthetic(N=60, seed=0, overlaps=(0, 2, 4), blocks=(10, 20), d=80):
    kern, part = km.generate_synthetic_kernel(km.SyntheticKernelSpec(
        N=N, block_size_range=blocks, overlap_choices=overlaps,
        feature_dim=d, seed=seed))
    return kern.L, part


def greedy_reference(L, require_initial_gain=False):
    """Greedy MAP from the defining formula of the conditional kernel.

    After each pick, K* = ([(K + I_rest)^-1]_rest)^-1 - I.  An oracle for
    greedy_map's incremental Cholesky factor, independent of both it and
    greedy_downdate.
    """
    A = np.asarray(L, dtype=np.float64)
    remaining = list(range(A.shape[0]))
    K = A.copy()
    selected = []
    first = True
    while True:
        diag = np.diagonal(K).copy()
        ok = diag > mi.UNSELECTABLE_DIAG
        if require_initial_gain or not first:
            ok &= diag > 1.0
        if not np.any(ok):
            break
        local = int(np.argmax(np.where(ok, diag, -np.inf)))
        selected.append(remaining[local])
        rest = [j for j in range(len(remaining)) if j != local]
        shift = np.eye(len(remaining))
        shift[local, local] = 0.0
        inner = np.linalg.inv(K + shift)
        K = np.linalg.inv(inner[np.ix_(rest, rest)]) - np.eye(len(rest))
        K = 0.5 * (K + K.T)
        remaining = [remaining[j] for j in rest]
        first = False
    return np.sort(np.asarray(selected, dtype=np.int64))


def greedy_downdate(L, require_initial_gain=False):
    """Greedy MAP by a rank-one Schur downdate of a full N x N copy per pick.

    O(N^2 k); greedy_map's implementation before the incremental Cholesky
    factor, kept as the oracle that greedy_map must match pick for pick.
    """
    K = np.array(L, dtype=np.float64)
    alive = np.ones(K.shape[0], dtype=bool)
    picks = []
    first = True
    while alive.any():
        diag = np.where(alive, np.diagonal(K), -np.inf)
        diag = np.where(diag > mi.UNSELECTABLE_DIAG, diag, -np.inf)
        if require_initial_gain or not first:
            diag = np.where(diag > 1.0, diag, -np.inf)
        best = int(np.argmax(diag))
        if not np.isfinite(diag[best]):
            break
        piv = K[best, best]
        alive[best] = False
        picks.append(best)
        col = np.where(alive, K[:, best], 0.0)
        K -= np.outer(col, col) / piv
        first = False
    return np.sort(np.asarray(picks, dtype=np.int64))


# Isolated items whose diagonal sits just below, at and just above the two
# selection thresholds: UNSELECTABLE_DIAG for a first pick, 1 after it.
THRESHOLD_DIAGONALS = (1e-12 * (1 - 1e-9), 1e-12, 1e-12 * (1 + 1e-9),
                       1 - 1e-12, 1.0, 1 + 1e-12)


# Where greedy_case's shift puts lambda_min: 1 + s * PSD_TOL * max(1, max L_ii),
# below, at and above the margin of greedy_map's certificate
CERTIFICATE_SHIFTS = (-10.0, -1.0, 0.5, 1.0, 2.0, 10.0, 1e4)


def shift_lambda_min(K, s):
    """K + c I with lambda_min = 1 + s * PSD_TOL * max(1, max diagonal)."""
    lam, top, a = np.linalg.eigvalsh(K)[0], K.diagonal().max(), s * mc.PSD_TOL
    c = (1.0 + a * top - lam) / (1.0 - a)
    if top + c < 1.0:
        c = 1.0 + a - lam
    return K + c * np.eye(K.shape[0])


def spy_cholesky(monkeypatch):
    """Patch np.linalg.cholesky to record, per call, the matrix's size and
    whether it factored."""
    rows = []
    cholesky = np.linalg.cholesky

    def spy(M):
        try:
            F = cholesky(M)
        except np.linalg.LinAlgError:
            rows.append((M.shape[0], False))
            raise
        rows.append((M.shape[0], True))
        return F

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return rows


def greedy_case(N, seed, sparse, ties, tiny, isolated, perm_seed, shift=None):
    """A synthetic kernel, optionally scaled like map_sparse (divided by the
    90th-percentile diagonal) or to a diagonal around UNSELECTABLE_DIAG,
    with its diagonal optionally rounded up to a coarse grid (many exact
    ties), extended by isolated items and symmetrically permuted; a shift
    then optionally moves its diagonal (shift_lambda_min)."""
    L, _ = synthetic(N=N, seed=seed, overlaps=(0, 2, 4), blocks=(5, 15),
                     d=N + 10)
    L = np.array(L)   # the kernel's L is read-only
    if sparse:
        L = L / np.quantile(np.diagonal(L), 0.9)
    if tiny:
        L = L * (mi.UNSELECTABLE_DIAG / np.median(np.diagonal(L)))
    if ties:
        step = np.median(np.diagonal(L)) / 4
        np.fill_diagonal(L, np.ceil(np.diagonal(L) / step) * step)
    n = N + len(isolated)
    K = np.zeros((n, n))
    K[:N, :N] = L
    K[np.arange(N, n), np.arange(N, n)] = isolated
    p = np.random.default_rng(perm_seed).permutation(n)
    K = K[np.ix_(p, p)]
    return K if shift is None else shift_lambda_min(K, shift)


class TestGreedyMap:
    def test_diagonal_kernel(self):
        assert np.array_equal(mi.greedy_map(np.diag([2.0, 3.0])), [0, 1])

    def test_first_pick_is_unconditional(self):
        # diagonal below 1 still admits a first pick by default
        assert np.array_equal(mi.greedy_map(np.diag([0.5])), [0])

    def test_require_initial_gain_filters_first_pick(self):
        assert mi.greedy_map(np.diag([0.5]), require_initial_gain=True).size == 0

    def test_ties_break_to_lowest_index(self):
        sel = mi.greedy_map(np.diag([3.0, 3.0, 3.0]))
        # all picked, but the reference path must start at index 0
        ref = greedy_reference(np.diag([3.0, 3.0, 3.0]))
        assert np.array_equal(sel, ref)

    def test_fast_matches_reference(self):
        for seed in range(30):
            L = random_spd(int(np.random.default_rng(seed).integers(2, 12)), seed)
            fast = mi.greedy_map(L)
            ref = greedy_reference(L)
            assert np.array_equal(fast, ref), f"seed {seed}"

    def test_fast_matches_reference_with_gain_filter(self):
        for seed in range(10):
            L = random_spd(8, seed, scale=1.5)
            assert np.array_equal(
                mi.greedy_map(L, require_initial_gain=True),
                greedy_reference(L, require_initial_gain=True))

    def test_empty_kernel(self):
        assert mi.greedy_map(np.zeros((0, 0))).size == 0

    @settings(deadline=None, max_examples=60)
    @given(N=st.integers(10, mi.CERTIFY_MAX_DIM + 20),
           seed=st.integers(0, 2**31 - 1),
           sparse=st.booleans(), ties=st.booleans(), tiny=st.booleans(),
           isolated=st.lists(st.sampled_from(THRESHOLD_DIAGONALS), max_size=6),
           perm_seed=st.integers(0, 2**31 - 1), gain=st.booleans(),
           shift=st.none() | st.sampled_from(CERTIFICATE_SHIFTS))
    def test_same_picks_as_downdate(self, N, seed, sparse, ties, tiny,
                                    isolated, perm_seed, gain, shift):
        L = greedy_case(N, seed, sparse, ties, tiny, isolated, perm_seed, shift)
        assert np.array_equal(mi.greedy_map(L, require_initial_gain=gain),
                              greedy_downdate(L, require_initial_gain=gain))

    @pytest.mark.parametrize("n, s, factors", [
        (40, 0.5, [(40, False)] * 2),        # below the margin: tried, fails
        (40, 2.0, [(40, True)] * 2),         # above it: certified
        (mi.CERTIFY_MAX_DIM + 1, 1e4, []),   # above the cap: never tried
    ])
    def test_certificate_margin_and_cap(self, monkeypatch, n, s, factors):
        # lambda_min(L) > 1 in every case, so greedy takes every item
        L = shift_lambda_min(random_spd(n, 7), s)
        rows = spy_cholesky(monkeypatch)
        for gain in (False, True):
            assert np.array_equal(mi.greedy_map(L, require_initial_gain=gain),
                                  np.arange(n))
        assert rows == factors

    def test_no_factor_with_a_diagonal_entry_at_most_one(self, monkeypatch):
        # map_sparse-style scaling: one diagonal entry in ten exceeds 1
        L = greedy_case(100, 3, True, False, False, [], 0)
        assert L.shape[0] <= mi.CERTIFY_MAX_DIM
        rows = spy_cholesky(monkeypatch)
        assert np.array_equal(mi.greedy_map(L), greedy_downdate(L))
        assert rows == []

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, mi.CERTIFY_MAX_DIM + 40),
           seed=st.integers(0, 2**31 - 1),
           q_range=st.sampled_from([(0.3, 0.99), (0.5, 1.6), (1.01, 2.0)]),
           sigma=st.sampled_from([0.5, 2.0, 8.0]), gain=st.booleans())
    def test_candidate_kernel_same_picks_as_downdate(self, n, seed, q_range,
                                                     sigma, gain):
        # qualities all at most 1 (no item can follow the first pick), mixed
        # (greedy spans the items with L_ii > 1) and all above 1 (all items)
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.2, 3.0, n))
        kern = km.CandidateKernel(t, rng.uniform(*q_range, n), sigma)
        assert np.array_equal(mi.greedy_map(kern, require_initial_gain=gain),
                              greedy_downdate(np.asarray(kern),
                                              require_initial_gain=gain))

    @pytest.mark.parametrize("sparse", [True, False])
    def test_factor_spans_the_items_with_diagonal_above_one(self, monkeypatch,
                                                            sparse):
        # map_sparse scaling keeps about one item in ten with L_ii > 1; a
        # kernel whose every item qualifies spans all of them
        n = 3 * mi.CERTIFY_MAX_DIM   # above the cap: no certificate
        L = greedy_case(n, 4, sparse, False, False, [], 0)
        G = np.count_nonzero(np.diagonal(L) > 1.0)
        assert (G < n / 5) if sparse else (G == n)
        widths = []
        dot = np.dot

        def spy(a, b):
            widths.append(np.shape(b)[-1])
            return dot(a, b)
        monkeypatch.setattr(np, "dot", spy)
        sel = mi.greedy_map(L)
        monkeypatch.undo()
        assert set(widths) == {G} and len(widths) == sel.size
        assert np.array_equal(sel, greedy_downdate(L))

    def test_never_picks_zero_diagonal(self):
        L = np.diag([2.0, 0.0, 3.0])
        assert np.array_equal(mi.greedy_map(L), [0, 2])

    def test_factor_grows_with_picks(self, monkeypatch):
        # rank 40, n=1500: 1493 diagonal entries exceed 1, but greedy stops
        # after 34 picks, so a factor sized by the diagonal would be ~44x
        # larger than the rows it uses
        B = np.random.default_rng(0).standard_normal((40, 1500))
        L = B.T @ B / 20
        assert np.count_nonzero(np.diagonal(L) > 1) == 1493
        rows = spy_cholesky(monkeypatch)   # above the cap: no certificate
        tracemalloc.start()
        try:
            sel = mi.greedy_map(L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sel.size == 34 and rows == []
        used = sel.size * L.shape[0] * 8
        assert peak < 4 * used, (peak, used)


class TestConditionalKernel:
    def test_inclusion_equals_schur_complement(self):
        A = np.array([[2.0, 0.9], [0.9, 2.0]])
        K = oracle.conditional_kernel(A, a_in=[0], a_out=[])
        assert K[0, 0] == pytest.approx(2.0 - 0.81 / 2.0, abs=1e-10)

    def test_inclusion_matches_schur_on_random(self):
        for seed in range(10):
            A = random_spd(7, seed)
            K = oracle.conditional_kernel(A, a_in=[0, 3], a_out=[])
            S = oracle.schur_complement(A, [0, 3], [1, 2, 4, 5, 6])
            assert np.allclose(K, S, atol=1e-8)

    def test_exclusion_is_submatrix(self):
        A = random_spd(6, 1)
        K = oracle.conditional_kernel(A, a_in=[], a_out=[1, 4])
        keep = [0, 2, 3, 5]
        assert np.allclose(K, A[np.ix_(keep, keep)], atol=1e-8)

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            oracle.conditional_kernel(np.eye(3), [0], [0])


class TestBlockwiseMap:
    def test_two_singleton_blocks(self):
        L = np.diag([2.0, 3.0])
        sel, _ = mi.blockwise_map(L, km.BlockPartition((1, 1), 0))
        assert np.array_equal(np.sort(sel), [0, 1])

    def test_tiny_first_pick_conditions_next_block(self):
        # greedy may pick a lone item just above UNSELECTABLE_DIAG; the next
        # block's Schur step must still accept it as a conditioning set
        L = np.diag([5e-11, 2.0])
        part = km.BlockPartition((1, 1), 0)
        ref = oracle.blockwise_map_conditional_form(L, part)
        assert np.array_equal(ref, [0, 1])
        for collect_trace in (True, False):
            sel, _ = mi.blockwise_map(L, part, collect_trace=collect_trace)
            assert np.array_equal(sel, ref), collect_trace

    def test_subsolver_gets_block_unrepaired(self):
        # lambda_min ~ -1e-9: float noise of the size criterion 02 allows;
        # the block reaches the sub-solver exactly as given
        L = np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])
        seen = []
        sel, _ = mi.blockwise_map(L, km.BlockPartition((2,), 0),
                                  oracle.recording(seen))
        assert len(seen) == 1 and np.array_equal(seen[0][0], L)
        assert np.array_equal(sel, [0])

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_schur_step_skipped_without_cross_entries_from_picks(
            self, collect_trace):
        # item 1 couples the blocks but is not picked (0.6 - 0.5**2 / 3 < 1)
        L = np.array([[3.0, 0.5, 0.0, 0.0],
                      [0.5, 0.6, 0.4, 0.0],
                      [0.0, 0.4, 2.0, 0.3],
                      [0.0, 0.0, 0.3, 1.5]])
        part = km.BlockPartition((2, 2), 1)
        seen = []
        sel, _ = mi.blockwise_map(L, part, oracle.recording(seen),
                                  collect_trace)
        assert sel.tolist() == [0, 2, 3]
        assert np.array_equal(sel, oracle.blockwise_map_conditional_form(L, part))
        assert np.array_equal(seen[1][0], L[2:, 2:])

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_schur_step_restricted_to_leading_columns(self, collect_trace):
        # gamma = 3, but the cross entries of block 0 reach only column 4
        B = np.random.default_rng(0).standard_normal((12, 8))
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4, :4] = mask[4:, 4:] = True
        mask[2:4, 4] = mask[4, 2:4] = True
        L = mc.psd_repair(np.where(mask, B.T @ B, 0.0))
        part = km.BlockPartition((4, 4), 3)
        seen = []
        sel, _ = mi.blockwise_map(L, part, oracle.recording(seen),
                                  collect_trace)
        assert sel.tolist() == list(range(8))
        assert np.array_equal(sel, oracle.blockwise_map_conditional_form(L, part))
        K = seen[1][0]
        assert np.array_equal(K[1:], L[5:, 4:])
        assert np.array_equal(K[:, 1:], L[4:, 5:])
        S = oracle.schur_complement(L, [0, 1, 2, 3], [4, 5, 6, 7])
        assert K[0, 0] == pytest.approx(S[0, 0], rel=1e-12)
        assert K[0, 0] < L[4, 4]

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_singular_selection_from_subsolver_raises(self, collect_trace):
        v = np.array([1.0, 1.0, 0.5])
        L = np.outer(v, v) + np.diag([0.0, 0.0, 0.75])
        take_all = lambda K: np.arange(K.shape[0])
        with pytest.raises(SingularToTolerance):
            mi.blockwise_map(L, km.BlockPartition((2, 1), 1), take_all,
                             collect_trace)

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_kernel_scanned_once_and_blocks_read_only(self, collect_trace,
                                                     monkeypatch):
        L, part = synthetic(seed=4)
        ref, _ = mi.blockwise_map(L, part, collect_trace=not collect_trace)
        scanned, writeable = [], []
        scan = mc._asymmetry
        monkeypatch.setattr(mc, "_asymmetry",
                            lambda A: scanned.append(A.shape) or scan(A))

        def solve(K):
            writeable.append(np.asarray(K).flags.writeable)
            return mi.greedy_map(K)

        sel, _ = mi.blockwise_map(L, part, solve, collect_trace)
        assert np.array_equal(sel, ref)
        assert scanned == [L.shape]
        assert len(writeable) == part.m and not any(writeable)

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_subsolver_cannot_write_to_its_block(self, collect_trace):
        L, part = synthetic(seed=5)
        before = L.copy()

        def overwrite(K):
            np.asarray(K)[0, 0] = 0.0
            return mi.greedy_map(K)

        with pytest.raises(ValueError, match="read-only"):
            mi.blockwise_map(L, part, overwrite, collect_trace)
        assert np.array_equal(L, before)

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_writeable_copy_of_a_block_is_scanned(self, collect_trace):
        L, part = synthetic(seed=6)

        def skew(K):
            B = np.array(K)
            B[0, 1] += 1.0
            return mi.greedy_map(B)

        with pytest.raises(ValueError, match="not symmetric"):
            mi.blockwise_map(L, part, skew, collect_trace)

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_block_without_schur_step_is_not_copied(self, collect_trace):
        L, _ = synthetic(seed=8)
        seen = []
        mi.blockwise_map(L, km.BlockPartition((L.shape[0],), 0),
                         lambda K: seen.append(K) or mi.greedy_map(K),
                         collect_trace)
        assert np.shares_memory(seen[0], L)

    def test_traced_run_peaks_like_untraced_run(self):
        # one 1500-item block with no Schur step: a trace that kept a copy
        # of the block (18 MB) would peak about 7x above the untraced run
        t = np.cumsum(np.random.default_rng(0).uniform(20.0, 36.0, 1500))
        q = np.random.default_rng(1).uniform(0.5, 3.0, t.size)
        kern, part = cp.build_cpd_kernel(t, q, sigma=200.0)
        L = np.asarray(kern)
        assert part.m == 1
        peaks = {}
        for collect_trace in (False, True):
            tracemalloc.start()
            try:
                sel, _ = mi.blockwise_map(L, part,
                                          collect_trace=collect_trace)
                peaks[collect_trace] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sel.size > 100
        assert peaks[True] < 1.2 * peaks[False], peaks

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_blocks_share_the_symmetry_scale_of_L(self, collect_trace):
        # L is checked once, so a small block's asymmetry is held to
        # SYMMETRY_TOL * max(1, max |L|), not to its own entries' scale
        small = random_spd(3, 0)
        small[0, 1] += 1e-4
        L = np.zeros((5, 5))
        L[:2, :2] = np.diag([1e6, 2e6])
        L[2:, 2:] = small
        with pytest.raises(ValueError, match="not symmetric"):
            mi.greedy_map(small)
        sel, _ = mi.blockwise_map(L, km.BlockPartition((2, 3), 0),
                                  collect_trace=collect_trace)
        assert sel[:2].tolist() == [0, 1]
        with pytest.raises(ValueError, match="not symmetric"):
            mi.blockwise_map(L[2:, 2:], km.BlockPartition((3,), 0),
                             collect_trace=collect_trace)

    def test_trivial_partition_reduces_to_subsolver(self):
        for seed in range(5):
            L = random_spd(9, seed)
            sel, _ = mi.blockwise_map(L, km.BlockPartition((9,), 0))
            assert np.array_equal(np.sort(sel), mi.greedy_map(L))

    def test_partition_size_mismatch(self):
        with pytest.raises(ValueError):
            mi.blockwise_map(np.eye(4), km.BlockPartition((2, 3), 0))

    def test_out_of_range_subsolver(self):
        bad = lambda K: np.asarray([K.shape[0]])
        with pytest.raises(IndexError):
            mi.blockwise_map(np.eye(4), km.BlockPartition((2, 2), 0), bad)

    def test_repeated_subsolver_indices(self):
        bad = lambda K: np.array([1, 1])
        with pytest.raises(ValueError, match="strictly increasing"):
            mi.blockwise_map(2 * np.eye(4), km.BlockPartition((2, 2), 0), bad)

    def test_fractional_subsolver_indices(self):
        # a cast to int64 would report [0, 1]
        bad = lambda K: np.array([0.9, 1.2])
        with pytest.raises(ValueError, match="integer"):
            mi.blockwise_map(2 * np.eye(4), km.BlockPartition((4,), 0), bad)

    @pytest.mark.parametrize("picks, want", [([], []), ([1.0, 0.0], [0, 1, 2, 3])])
    def test_subsolver_output_taken_as_given(self, picks, want):
        sel, _ = mi.blockwise_map(2 * np.eye(4), km.BlockPartition((2, 2), 0),
                                  lambda K: picks)
        assert sel.dtype == np.int64 and sel.tolist() == want

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: gamma_partition "
                       "couples blocks that are not adjacent at gamma > 0")
    def test_pick_two_blocks_back_conditions_its_block(self):
        # L_13 crosses cuts 2 and 3, each valid on its own at gamma = 2, so
        # today's partition is all singletons (and validate_partition
        # accepts it); pick 1 then couples to block 3, two blocks on, but
        # the loop conditions block 3 on block 2's pick alone and returns
        # [0, 1, 2, 3, 4] at log-prob 1.138 against full greedy's 2.773
        L = 2.0 * np.eye(5)
        L[1, 3] = L[3, 1] = 1.9
        assert mi.greedy_map(L).tolist() == [0, 1, 2, 4]
        sel, _ = mi.blockwise_map(L, km.gamma_partition(L, 2))
        assert sel.tolist() == [0, 1, 2, 4]

    def test_trace_invariants(self):
        L, part = synthetic(seed=3)
        seen = []
        sel, trace = mi.blockwise_map(L, part, oracle.recording(seen))
        assert sel.dtype == np.int64 and np.all(np.diff(sel) > 0)
        assert len(trace.blocks) == len(seen) == part.m
        assert [b.span for b in trace.blocks] == list(part.ranges())
        for b, (K, local) in zip(trace.blocks, seen):
            start, stop = b.span
            assert K.shape == (stop - start, stop - start)
            assert np.all((b.selected >= start) & (b.selected < stop))
            assert np.array_equal(b.selected, local + start)
            assert b.ms >= 0.0

    def test_matches_conditional_form(self):
        # 30x30 kernels, blocks well above gamma
        for seed in range(10):
            L, part = synthetic(N=30, seed=seed, blocks=(8, 12), d=40)
            s1, _ = mi.blockwise_map(L, part)
            s2 = oracle.blockwise_map_conditional_form(L, part)
            assert np.array_equal(np.sort(s1), np.sort(s2)), f"seed {seed}"

    def test_trace_modes_select_the_same_items(self):
        for seed in range(10):
            L, _ = synthetic(N=100, seed=seed, overlaps=(0, 2, 4, 6),
                             blocks=(10, 20), d=120)
            for g in (0, 2, 4, 6):
                part = km.gamma_partition(L, g)
                s1, tr = mi.blockwise_map(L, part)
                s2, tr2 = mi.blockwise_map(L, part, collect_trace=False)
                assert np.array_equal(np.sort(s1), np.sort(s2)), (seed, g)
                assert tr.blocks and not tr2.blocks

    @settings(deadline=None)
    @given(N=st.integers(20, 80), low=st.integers(3, 10),
           extra=st.integers(0, 12),
           overlaps=st.sets(st.sampled_from((0, 1, 2, 3, 4)), min_size=1),
           seed=st.integers(0, 2**31 - 1), gamma=st.sampled_from((0, 2, 4)))
    def test_trace_modes_and_conditional_form_agree(self, N, low, extra,
                                                     overlaps, seed, gamma):
        L, _ = synthetic(N=N, seed=seed, overlaps=tuple(sorted(overlaps)),
                         blocks=(low, low + extra), d=N + 20)
        part = km.gamma_partition(L, gamma)
        traced, _ = mi.blockwise_map(L, part)
        untraced, _ = mi.blockwise_map(L, part, collect_trace=False)
        assert np.array_equal(traced, untraced)
        assert np.array_equal(traced, oracle.blockwise_map_conditional_form(L, part))

    def test_strictly_block_diagonal_equals_full_greedy(self):
        for seed in range(10):
            L, part = synthetic(N=60, seed=seed, overlaps=(0,))
            sel, _ = mi.blockwise_map(L, part)
            assert np.array_equal(np.sort(sel), mi.greedy_map(L))


class TestExhaustiveMap:
    def test_known_optimum(self):
        L = np.diag([2.0, 0.5, 3.0])
        assert np.array_equal(mi.exhaustive_map(L), [0, 2])

    def test_tie_breaks_to_smaller_cardinality(self):
        # {0} and {0, 1} tie when L[1,1] == 1 and items are independent
        L = np.diag([2.0, 1.0])
        assert np.array_equal(mi.exhaustive_map(L), [0])

    def test_tie_breaks_lexicographically(self):
        L = np.diag([2.0, 2.0])
        # {0} and {1} tie at det 2; {0,1} wins at 4
        assert np.array_equal(mi.exhaustive_map(np.diag([2.0, 2.0])), [0, 1])
        L = np.diag([2.0, 2.0, 0.5])
        assert np.array_equal(mi.exhaustive_map(L), [0, 1])

    def test_empty_set_when_all_small(self):
        assert mi.exhaustive_map(np.diag([0.5, 0.9])).size == 0

    def test_size_limit(self):
        with pytest.raises(ValueError):
            mi.exhaustive_map(np.eye(21))

    def test_size_checked_before_any_entry_is_read(self):
        # refusing a 3000-item CandidateKernel once built its 72 MB dense L
        t = np.arange(3000.0)
        kern = km.CandidateKernel(t, np.full(t.size, 2.0), 200.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exhaustive limit"):
                mi.exhaustive_map(kern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak

    def test_beats_or_ties_greedy(self):
        for seed in range(50):
            L = random_spd(8, seed)
            po = mi.log_prob_unnormalized(L, mi.exhaustive_map(L))
            pg = mi.log_prob_unnormalized(L, mi.greedy_map(L))
            assert pg <= po + 1e-9


def candidate_kernel_14():
    """A 14-item CandidateKernel in three blocks at gamma 0; at gamma 3 its
    partition has eight blocks and block-wise MAP takes Schur steps."""
    rng = np.random.default_rng(8)
    t = np.cumsum(rng.choice([1.0, 2.0, 3.0, 6.0], 14, p=[.3, .3, .25, .15]))
    return km.CandidateKernel(t, rng.uniform(1.0, 2.5, 14), 1.0)


def candidate_kernel_certified():
    """A 14-item CandidateKernel, q in [1.5, 2.5], whose items lie 1.2 sigma
    apart, so that lambda_min(L) > 1 and greedy_map certifies it whole."""
    rng = np.random.default_rng(9)
    t = np.cumsum(rng.uniform(1.2, 2.0, 14))
    return km.CandidateKernel(t, rng.uniform(1.5, 2.5, 14), 1.0)


# the public calls that read a kernel, each with what it returns as an array
KERNEL_CALLS = {
    "greedy": mi.greedy_map,
    "blockwise_g0": lambda L: mi.blockwise_map(L, km.gamma_partition(L, 0))[0],
    "blockwise_g3": lambda L: mi.blockwise_map(L, km.gamma_partition(L, 3))[0],
    "blockwise_untraced": lambda L: mi.blockwise_map(
        L, km.BlockPartition((7, 7), 0), collect_trace=False)[0],
    "exhaustive": mi.exhaustive_map,
    "log_prob": lambda L: mi.log_prob_unnormalized(L, [1, 4, 9, 10]),
    "gamma_partition": lambda L: km.gamma_partition(L, 3).block_sizes,
}


class TestDppKernelEntry:
    """Each entry point gives the same result for a kernel (DppKernel or
    CandidateKernel) and for its dense matrix as a raw array."""

    @pytest.mark.parametrize("run", KERNEL_CALLS.values(), ids=KERNEL_CALLS)
    @pytest.mark.parametrize("make", [
        lambda: km.DppKernel(L=random_spd(14, 3, scale=3.0)),
        candidate_kernel_14,
        candidate_kernel_certified,
    ], ids=["dense", "candidate", "candidate_certified"])
    def test_kernel_and_its_matrix_agree(self, run, make):
        kern = make()
        assert np.array_equal(run(kern), run(np.asarray(kern)))

    def test_certified_candidate_is_certified(self):
        kern = candidate_kernel_certified()
        L = np.asarray(kern)
        margin = 1.0 + mc.PSD_TOL * L.diagonal().max()
        assert kern.shape[0] <= mi.CERTIFY_MAX_DIM
        assert np.linalg.eigvalsh(L)[0] > margin
        assert np.array_equal(mi.greedy_map(kern), np.arange(14))

    def test_candidate_case_takes_schur_steps(self):
        kern = candidate_kernel_14()
        L = np.asarray(kern)
        assert km.gamma_partition(kern, 0).m == 3
        part = km.gamma_partition(kern, 3)
        seen = []
        mi.blockwise_map(kern, part, oracle.recording(seen))
        assert any(not np.array_equal(K, L[a:b, a:b])
                   for (K, _), (a, b) in zip(seen, part.ranges()))

    # scans of a raw array per call: greedy, block-wise and exhaustive check
    # the kernel once, log_prob only its selection, the partition none
    RAW_SCANS = {"greedy": 1, "blockwise_g0": 1, "blockwise_g3": 1,
                 "blockwise_untraced": 1, "exhaustive": 1, "log_prob": 1,
                 "gamma_partition": 0}

    @pytest.mark.parametrize("name", KERNEL_CALLS)
    def test_raw_array_scanned_once_a_kernel_never(self, name, monkeypatch):
        cand = candidate_kernel_14()
        L = np.asarray(cand)
        dense = km.DppKernel(L=L)
        scanned = []
        scan = mc._asymmetry
        monkeypatch.setattr(mc, "_asymmetry",
                            lambda A: scanned.append(A.shape) or scan(A))
        for kern in (cand, dense):
            KERNEL_CALLS[name](kern)
        assert scanned == []
        KERNEL_CALLS[name](L)
        assert len(scanned) == self.RAW_SCANS[name]
        if name == "log_prob":
            assert scanned == [(4, 4)]
        elif scanned:
            assert scanned == [L.shape]


class TestLogProb:
    def test_empty_selection(self):
        assert mi.log_prob_unnormalized(np.eye(3), []) == 0.0

    @pytest.mark.parametrize("L", [np.ones((3, 5)), np.ones(3)])
    def test_rejects_non_square(self, L):
        with pytest.raises(ValueError, match="expected a square matrix"):
            mi.log_prob_unnormalized(L, [0])

    def test_rejects_fractional_indices(self):
        # a cast to int64 would score items 0 and 1: log 6
        with pytest.raises(ValueError, match="integer"):
            mi.log_prob_unnormalized(np.diag([2.0, 3.0, 4.0]), [0.5, 1.7])

    def test_rejects_boolean_mask(self):
        # read as indices, the mask [False, True] scores items 0 and 1: log 6
        with pytest.raises(ValueError, match="mask"):
            mi.log_prob_unnormalized(np.diag([2.0, 3.0, 4.0]), [False, True])

    def test_matches_slogdet(self):
        L = random_spd(6, 0)
        idx = [1, 3, 4]
        _, ref = np.linalg.slogdet(L[np.ix_(idx, idx)])
        assert mi.log_prob_unnormalized(L, idx) == pytest.approx(ref, abs=1e-9)

    def test_tiny_greedy_pick_is_finite(self):
        L = np.diag([5e-11, 2.0])
        sel, _ = mi.blockwise_map(L, km.BlockPartition((1, 1), 0))
        assert sel.tolist() == [0, 1]
        assert mi.log_prob_unnormalized(L, sel) == pytest.approx(
            np.log(1e-10), rel=1e-12)

    def test_candidate_kernel_scored_without_its_dense_matrix(self):
        # n = 2000: the dense L is 32 MB, the selection about 0.8 MB
        t = np.cumsum(np.random.default_rng(0).uniform(20.0, 36.0, 2000))
        q = np.random.default_rng(1).uniform(0.5, 3.0, t.size)
        kern = km.CandidateKernel(t, q, 200.0)
        sel = mi.greedy_map(kern)
        tracemalloc.start()
        try:
            got = mi.log_prob_unnormalized(kern, sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sel.size > 100
        assert peak < t.size ** 2 * 8 / 4, peak
        assert got == mi.log_prob_unnormalized(np.asarray(kern), sel)

    def test_singular_selection(self):
        v = np.array([1.0, 2.0])
        L = np.outer(v, v)
        assert mi.log_prob_unnormalized(L, [0, 1]) == float("-inf")

    @settings(deadline=None, max_examples=60)
    @given(N=st.integers(20, 80), low=st.integers(3, 10),
           extra=st.integers(0, 12),
           overlaps=st.sets(st.integers(0, 6), min_size=1),
           seed=st.integers(0, 2**31 - 1), frac=st.floats(0.0, 1.0),
           pick_seed=st.integers(0, 2**31 - 1))
    def test_block_determinant_identity(self, N, low, extra, overlaps, seed,
                                        frac, pick_seed):
        # criterion 01: log det L_Y = sum over blocks of log det of the
        # reduced selected kernel, for any per-block subsets Y, on the
        # kernel's own partition (gamma = its largest overlap)
        L, part = synthetic(N=N, seed=seed, overlaps=tuple(sorted(overlaps)),
                            blocks=(low, low + extra), d=N + 20)
        rng = np.random.default_rng(pick_seed)
        pick = lambda K: np.flatnonzero(rng.random(K.shape[0]) < frac)
        seen = []
        sel, _ = mi.blockwise_map(L, part, oracle.recording(seen, pick))
        lhs = mi.log_prob_unnormalized(L, sel)
        rhs = sum(mc.log_det(K[np.ix_(local, local)])
                  for K, local in seen if local.size)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    @settings(deadline=None, max_examples=60)
    @given(N=st.integers(20, 200), low=st.integers(3, 20),
           extra=st.integers(0, 40),
           overlaps=st.sets(st.integers(0, 6), min_size=1),
           seed=st.integers(0, 2**31 - 1), frac=st.floats(0.0, 1.0),
           pick_seed=st.integers(0, 2**31 - 1),
           dead=st.sampled_from([None, "zero", "negative"]))
    def test_matches_one_cholesky_oracle(self, N, low, extra, overlaps, seed,
                                         frac, pick_seed, dead):
        L, _ = synthetic(N=N, seed=seed, overlaps=tuple(sorted(overlaps)),
                         blocks=(low, low + extra), d=N + 20)
        L = np.array(L)   # the kernel's L is read-only
        rng = np.random.default_rng(pick_seed)
        if dead is not None:
            # an item whose pivot is exactly 0 or negative: a selection
            # holding it is not positive definite on either side
            j = int(rng.integers(N))
            L[j, :] = L[:, j] = 0.0
            L[j, j] = 0.0 if dead == "zero" else -1.0
        sel = np.flatnonzero(rng.random(N) < frac)
        ref = oracle.log_prob_unnormalized(L, sel)
        got = mi.log_prob_unnormalized(L, sel)
        assert (got == float("-inf")) == (ref == float("-inf"))
        if ref != float("-inf"):
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    @staticmethod
    def ten_blocks(seed=0):
        """Block-diagonal 300 x 300 kernel of ten 30 x 30 SPD blocks."""
        L = np.zeros((300, 300))
        for b in range(10):
            L[30 * b:30 * b + 30, 30 * b:30 * b + 30] = random_spd(30, seed + b)
        return L

    def test_factors_chunks_not_the_whole_selection(self, monkeypatch):
        L = self.ten_blocks()
        ref = oracle.log_prob_unnormalized(L, np.arange(300))
        rows = []
        cholesky = np.linalg.cholesky

        def spy(M):
            rows.append(M.shape[0])
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        got = mi.log_prob_unnormalized(L, np.arange(300))
        assert sum(rows) == 300
        assert max(rows) <= mi.LOGPROB_CHUNK + 30
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_off_chunk_nan_pair_raises(self):
        L = self.ten_blocks()
        L[5, 200] = L[200, 5] = np.nan
        with pytest.raises(NonFinite):
            mi.log_prob_unnormalized(L, np.arange(300))

    def test_off_chunk_one_sided_entry_is_not_symmetric(self):
        L = self.ten_blocks()
        L[5, 200] = 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            mi.log_prob_unnormalized(L, np.arange(300))

    def test_one_singular_chunk_gives_minus_inf(self):
        L = self.ten_blocks()
        L[120:150, 120:150] = 1.0   # rank one: its second pivot is exactly 0
        assert mi.log_prob_unnormalized(L, np.arange(300)) == float("-inf")
        assert np.isfinite(mi.log_prob_unnormalized(L, np.arange(120)))
