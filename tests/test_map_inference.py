import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from blockdpp import kernel_model as km
from blockdpp import map_inference as mi
from blockdpp import matrix_core as mc
from blockdpp.errors import SingularToTolerance


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


def greedy_case(N, seed, sparse, ties, tiny, isolated, perm_seed):
    """A synthetic kernel, optionally scaled like map_sparse (divided by the
    90th-percentile diagonal) or to a diagonal around UNSELECTABLE_DIAG,
    with its diagonal optionally rounded up to a coarse grid (many exact
    ties), extended by isolated items and symmetrically permuted."""
    L, _ = synthetic(N=N, seed=seed, overlaps=(0, 2, 4), blocks=(5, 15),
                     d=N + 10)
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
    return K[np.ix_(p, p)]


def recording_greedy(seen):
    """greedy_map as a sub-solver that keeps a copy of every block it gets."""
    def solve(K):
        seen.append(K.copy())
        return mi.greedy_map(K)
    return solve


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
    @given(N=st.integers(10, 70), seed=st.integers(0, 2**31 - 1),
           sparse=st.booleans(), ties=st.booleans(), tiny=st.booleans(),
           isolated=st.lists(st.sampled_from(THRESHOLD_DIAGONALS), max_size=6),
           perm_seed=st.integers(0, 2**31 - 1), gain=st.booleans())
    def test_same_picks_as_downdate(self, N, seed, sparse, ties, tiny,
                                    isolated, perm_seed, gain):
        L = greedy_case(N, seed, sparse, ties, tiny, isolated, perm_seed)
        assert np.array_equal(mi.greedy_map(L, require_initial_gain=gain),
                              greedy_downdate(L, require_initial_gain=gain))

    def test_never_picks_zero_diagonal(self):
        L = np.diag([2.0, 0.0, 3.0])
        assert np.array_equal(mi.greedy_map(L), [0, 2])

    def test_factor_grows_with_picks(self):
        # rank 40, n=1500: 1493 diagonal entries exceed 1, but greedy stops
        # after 34 picks, so a factor sized by the diagonal would be ~44x
        # larger than the rows it uses
        B = np.random.default_rng(0).standard_normal((40, 1500))
        L = B.T @ B / 20
        assert np.count_nonzero(np.diagonal(L) > 1) == 1493
        tracemalloc.start()
        try:
            sel = mi.greedy_map(L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sel.size == 34
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
        # the block reaches the sub-solver and the trace exactly as given
        L = np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])
        seen = []

        def recording(K):
            seen.append(K.copy())
            return mi.greedy_map(K)

        sel, trace = mi.blockwise_map(L, km.BlockPartition((2,), 0), recording)
        assert len(seen) == 1 and np.array_equal(seen[0], L)
        assert np.array_equal(trace.blocks[0].reduced_kernel, L)
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
        sel, _ = mi.blockwise_map(L, part, recording_greedy(seen),
                                  collect_trace)
        assert sel.tolist() == [0, 2, 3]
        assert np.array_equal(sel, oracle.blockwise_map_conditional_form(L, part))
        assert np.array_equal(seen[1], L[2:, 2:])

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_schur_step_restricted_to_leading_columns(self, collect_trace):
        # gamma = 3, but the cross entries of block 0 reach only column 4
        B = np.random.default_rng(0).standard_normal((12, 8))
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4, :4] = mask[4:, 4:] = True
        mask[2:4, 4] = mask[4, 2:4] = True
        L = mc.psd_repair(np.where(mask, B.T @ B, 0.0), eps=1e-8)
        part = km.BlockPartition((4, 4), 3)
        seen = []
        sel, _ = mi.blockwise_map(L, part, recording_greedy(seen),
                                  collect_trace)
        assert sel.tolist() == list(range(8))
        assert np.array_equal(sel, oracle.blockwise_map_conditional_form(L, part))
        K = seen[1]
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
            writeable.append(K.flags.writeable)
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
            K[0, 0] = 0.0
            return mi.greedy_map(K)

        with pytest.raises(ValueError, match="read-only"):
            mi.blockwise_map(L, part, overwrite, collect_trace)
        assert np.array_equal(L, before)

    @pytest.mark.parametrize("collect_trace", [True, False])
    def test_writeable_copy_of_a_block_is_scanned(self, collect_trace):
        L, part = synthetic(seed=6)

        def skew(K):
            B = K.copy()
            B[0, 1] += 1.0
            return mi.greedy_map(B)

        with pytest.raises(ValueError, match="not symmetric"):
            mi.blockwise_map(L, part, skew, collect_trace)

    def test_trace_keeps_plain_writeable_copies(self):
        L, part = synthetic(seed=7)
        _, trace = mi.blockwise_map(L, part)
        for b in trace.blocks:
            K = b.reduced_kernel
            assert type(K) is np.ndarray and K.flags.writeable
            assert not np.shares_memory(K, L)

    def test_untraced_block_without_schur_step_is_not_copied(self):
        L, _ = synthetic(seed=8)
        seen = []
        mi.blockwise_map(L, km.BlockPartition((L.shape[0],), 0),
                         lambda K: seen.append(K) or mi.greedy_map(K),
                         collect_trace=False)
        assert np.shares_memory(seen[0], L)

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

    def test_trace_invariants(self):
        L, part = synthetic(seed=3)
        sel, trace = mi.blockwise_map(L, part)
        assert sel.dtype == np.int64 and np.all(np.diff(sel) > 0)
        assert len(trace.blocks) == part.m
        for b in trace.blocks:
            start, stop = b.span
            assert np.all((b.selected >= start) & (b.selected < stop))
            local = b.selected - start
            assert np.allclose(
                b.reduced_kernel[np.ix_(local, local)],
                b.reduced_selected_kernel, atol=1e-10)

    def test_matches_conditional_form(self):
        # 30x30 kernels, blocks well above gamma
        for seed in range(10):
            L, part = synthetic(N=30, seed=seed, blocks=(8, 12), d=40)
            s1, _ = mi.blockwise_map(L, part)
            s2 = oracle.blockwise_map_conditional_form(L, part)
            assert np.array_equal(np.sort(s1), np.sort(s2)), f"seed {seed}"

    def test_fused_path_matches_traced_path(self):
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

    def test_beats_or_ties_greedy(self):
        for seed in range(50):
            L = random_spd(8, seed)
            po = mi.log_prob_unnormalized(L, mi.exhaustive_map(L))
            pg = mi.log_prob_unnormalized(L, mi.greedy_map(L))
            assert pg <= po + 1e-9


class TestDppKernelEntry:
    """Each entry point gives the same result for a DppKernel and its L."""

    @pytest.mark.parametrize("run", [
        mi.greedy_map,
        lambda L: mi.blockwise_map(L, km.gamma_partition(L, 2))[0],
        lambda L: mi.blockwise_map(L, km.BlockPartition((7, 7), 0),
                                   collect_trace=False)[0],
        mi.exhaustive_map,
        lambda L: mi.log_prob_unnormalized(L, [1, 4, 9]),
    ], ids=["greedy", "blockwise", "blockwise_untraced", "exhaustive",
            "log_prob"])
    def test_kernel_and_its_matrix_agree(self, run):
        kern = km.DppKernel(L=random_spd(14, 3, scale=3.0))
        assert np.array_equal(run(kern), run(kern.L))


class TestLogProb:
    def test_empty_selection(self):
        assert mi.log_prob_unnormalized(np.eye(3), []) == 0.0

    @pytest.mark.parametrize("L", [np.ones((3, 5)), np.ones(3)])
    def test_rejects_non_square(self, L):
        with pytest.raises(ValueError, match="expected a square matrix"):
            mi.log_prob_unnormalized(L, [0])

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
        sel, trace = mi.blockwise_map(L, part, pick)
        lhs = mi.log_prob_unnormalized(L, sel)
        rhs = sum(mc.log_det(b.reduced_selected_kernel)
                  for b in trace.blocks if b.selected.size)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))
