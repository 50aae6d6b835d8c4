import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from blockdpp import matrix_core as mc
from blockdpp.errors import NonFinite, SingularToTolerance

T = mc.SYMMETRY_TILE


def random_spd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n + 3, n))
    return scale * (B.T @ B) / (n + 3)


def block_diagonal(n, seed):
    """random_spd zeroed outside diagonal blocks of 8 items, so that every
    tile edge (a multiple of 8) is a block edge and most tile pairs are
    all zeros on both sides."""
    b = np.arange(n) // 8
    return random_spd(n, seed) * (b[:, None] == b[None, :])


BASES = {"dense": random_spd, "block diagonal": block_diagonal}


def structured(n, kind, seed):
    """A symmetric n x n matrix: dense, banded, or block diagonal with
    blocks of 1 to 2T items."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A += A.T
    i = np.arange(n)
    if kind == "banded":
        A *= np.abs(i[:, None] - i[None, :]) <= rng.integers(0, T)
    elif kind == "block diagonal":
        b = np.searchsorted(np.cumsum(rng.integers(1, 2 * T, n + 1)), i, "right")
        A *= b[:, None] == b[None, :]
    return A


class TestAsMatrix:
    def test_accepts_symmetric(self):
        A = mc.as_matrix([[2.0, 1.0], [1.0, 3.0]])
        assert A.dtype == np.float64 and A.shape == (2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mc.as_matrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            mc.as_matrix([[1.0, np.nan], [np.nan, 1.0]])

    @pytest.mark.parametrize("base", list(BASES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "upper", "last tile", "tile edge"])
    def test_rejects_each_non_finite_value(self, base, bad, where):
        # on the block-diagonal base, "upper" and "tile edge" lie in a tile
        # pair that is otherwise all zeros
        n = 2 * T + 5
        A = BASES[base](n, 0)
        i, j = {"diagonal": (3, 3), "upper": (0, n - 1),
                "last tile": (n - 1, n - 2), "tile edge": (T, T - 1)}[where]
        A[i, j] = bad      # one entry only: also asymmetric, NonFinite wins
        with pytest.raises(NonFinite):
            mc.as_matrix(A)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            mc.as_matrix([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("i, j", [
        (-1, -3), (-3, -1),                   # inside the last row tile
        (0, -1), (-1, 0),                     # the corner tiles, both triangles
        (T // 2 - 1, T // 2), (T // 2 + 1, T // 2 - 2),   # first diagonal tile
        (T - 1, T), (T + 1, T - 2),           # pair straddles a tile, both ways
        # on a row-tile and a column-tile edge at once, both triangles
        (T - 1, 2 * T), (2 * T, T - 1), (T, 2 * T - 1), (2 * T - 1, T),
    ])
    @pytest.mark.parametrize("base", list(BASES))
    def test_symmetry_scan_covers_every_tile(self, base, i, j):
        # on the block-diagonal base, an entry off the diagonal tiles is the
        # only nonzero of its tile, and the mirror tile is all zeros
        n = 2 * T + 5
        A = 10.0 * BASES[base](n, 1)
        tol = mc.SYMMETRY_TOL * np.abs(A).max()
        B = A.copy()
        B[i, j] += 0.5 * tol
        assert mc.as_matrix(B) is B
        B[i, j] += 2.0 * tol
        with pytest.raises(ValueError, match="not symmetric"):
            mc.as_matrix(B)

    def test_accepts_empty(self):
        assert mc.as_matrix(np.zeros((0, 0))).shape == (0, 0)

    # N = 0, below one tile, on and past tile edges; positions drawn on tile
    # edges too; values that are non-finite, -0.0, tiny and large, planted on
    # one side or both
    @settings(deadline=None, max_examples=150)
    @given(n=st.sampled_from([0, 1, 7, T - 1, T, T + 1, 2 * T + 5, 3 * T]),
           kind=st.sampled_from(["dense", "banded", "block diagonal"]),
           seed=st.integers(0, 2**31 - 1),
           plants=st.lists(st.tuples(
               st.one_of(st.sampled_from([0, T - 1, T, 2 * T - 1, 2 * T]),
                         st.integers(0, 3 * T - 1)),
               st.one_of(st.sampled_from([0, T - 1, T, 2 * T - 1, 2 * T]),
                         st.integers(0, 3 * T - 1)),
               st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e-12, 1.0]),
               st.booleans()), max_size=3),
           order=st.sampled_from("CF"))
    def test_scan_matches_dense_oracle(self, n, kind, seed, plants, order):
        A = structured(n, kind, seed)
        for i, j, value, both in plants if n else ():
            A[i % n, j % n] = value
            if both:
                A[j % n, i % n] = value
        A = np.asarray(A, order=order)
        got, want = mc._asymmetry(A), oracle.asymmetry(A, T)
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.isfinite(got) == np.isfinite(A).all()
        if np.isnan(A).any() and not np.isinf(A).any():
            assert math.isnan(got)


class TestAsSquare:
    def test_coerces_without_reading_entries(self, monkeypatch):
        monkeypatch.setattr(mc, "_asymmetry", None)   # any scan would fail
        A = mc.as_square([[1, np.nan], [3, 4]])
        assert A.dtype == np.float64 and A.shape == (2, 2)
        B = np.eye(3)
        assert mc.as_square(B) is B

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            mc.as_square(np.ones(shape))


class TestIndexSets:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            mc.as_index_set([1, 1], 5)
        with pytest.raises(ValueError):
            mc.as_index_set([2, 1], 5)

    def test_bounds(self):
        with pytest.raises(IndexError):
            mc.as_index_set([0, 5], 5)
        with pytest.raises(IndexError):
            mc.as_index_set([-1], 5)

    @pytest.mark.parametrize("idx", [[0.5, 1.7], [0, 1.5], [np.nan], [1, np.inf]])
    def test_rejects_non_integers(self, idx):
        # a cast to int64 would truncate [0.5, 1.7] to [0, 1]
        with pytest.raises(ValueError, match="integer"):
            mc.as_index_set(idx, 5)

    @pytest.mark.parametrize("idx", [[False, True], np.array([True, False, True]),
                                     np.array([[True]]), np.zeros(0, dtype=bool)])
    def test_rejects_boolean_mask(self, idx):
        # a cast to int64 would read the mask's 0s and 1s as items
        with pytest.raises(ValueError, match="mask"):
            mc.as_index_set(idx, 5)

    def test_integer_values_pass_as_int64(self):
        for idx, want in (([0.0, 3.0], [0, 3]), ([], []), (np.array([1, 4]), [1, 4])):
            a = mc.as_index_set(idx, 5)
            assert a.dtype == np.int64 and a.tolist() == want


class TestLogDet:
    def test_matches_slogdet(self):
        for seed in range(10):
            A = random_spd(7, seed, scale=2.0)
            sign, ref = np.linalg.slogdet(A)
            assert sign > 0
            assert mc.log_det(A) == pytest.approx(ref, abs=1e-9)

    def test_empty_matrix_has_det_one(self):
        assert mc.log_det(np.zeros((0, 0))) == 0.0

    def test_singular_raises(self):
        v = np.array([1.0, 2.0])
        with pytest.raises(SingularToTolerance):
            mc.log_det(np.outer(v, v))

    def test_indefinite_raises_singular(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(SingularToTolerance):
            mc.log_det(A)

    @pytest.mark.parametrize("max_diag", [0.5, 4.0, 1e6])
    def test_pivot_tolerance_boundary(self, max_diag):
        # second squared pivot of [[a, b], [b, b^2/a + delta]] is delta;
        # the threshold is tol * max(1, largest diagonal entry)
        a = max_diag
        b = 0.5 * a
        thresh = mc.DEFAULT_PIVOT_TOL * max(1.0, a)
        for factor, ok in ((1.0 - 1e-3, False), (1.0 + 1e-3, True)):
            delta = factor * thresh
            A = np.array([[a, b], [b, b * b / a + delta]])
            if ok:
                assert mc.log_det(A) == pytest.approx(np.log(a * delta),
                                                      rel=1e-6)
            else:
                with pytest.raises(SingularToTolerance):
                    mc.log_det(A)


class TestInverse:
    def test_matches_numpy(self):
        for seed in range(10):
            A = random_spd(6, seed)
            inv = mc.inverse_spd(A)
            assert np.allclose(inv, np.linalg.inv(A), atol=1e-8)
            assert np.array_equal(inv, inv.T)

    def test_empty(self):
        assert mc.inverse_spd(np.zeros((0, 0))).shape == (0, 0)

    def test_singular_raises(self):
        v = np.array([1.0, 2.0])
        with pytest.raises(SingularToTolerance):
            mc.inverse_spd(np.outer(v, v))



def spd_stack(shape, D, seed):
    """Well-conditioned SPD matrices of shape shape + (D, D), each scaled by
    a power of ten between 1e-3 and 1e3."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal(shape + (D, 2 * D + 3))
    C = B @ np.swapaxes(B, -1, -2) / (2 * D + 3) + 0.5 * np.eye(D)
    return C * 10.0 ** rng.uniform(-3, 3, shape)[..., None, None]


def bad_stack(kind):
    """Seven good 2 x 2 matrices with bad ones at the given positions."""
    C = spd_stack((7,), 2, 0)
    a, delta = 4.0, mc.DEFAULT_PIVOT_TOL * 4.0
    bad = {
        "indefinite": [[1.0, 2.0], [2.0, 1.0]],
        "zero pivot": [[1.0, 2.0], [2.0, 4.0]],
        "below tolerance": [[a, 2.0], [2.0, 1.0 + 0.999 * delta]],
        "nan": [[np.nan, 0.0], [0.0, 1.0]],
        "nan off the diagonal": [[1.0, np.nan], [np.nan, 1.0]],
    }
    for i, k in kind:
        C[i] = bad[k]
    return C


class TestBatchedInverse:
    """inverse_logdet_spd against one LAPACK Cholesky and inverse per matrix."""

    @pytest.mark.parametrize("D", [1, 2, 3, 8])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3), (0,),
                                       (mc.CHOLESKY_CHUNK + 3,)])
    def test_matches_oracle(self, D, shape):
        C = spd_stack(shape, D, D)
        inv, logdet = mc.inverse_logdet_spd(C)
        ref_inv, ref_logdet = oracle.inverse_logdet_spd(C)
        assert inv.shape == C.shape and logdet.shape == shape
        scale = np.abs(ref_inv).max(axis=(-2, -1), initial=0.0)
        assert (np.abs(inv - ref_inv).max(axis=(-2, -1), initial=0.0)
                <= 1e-12 * scale).all()
        assert (np.abs(logdet - ref_logdet)
                <= 1e-12 * np.maximum(1.0, np.abs(ref_logdet))).all()
        assert np.array_equal(inv, np.swapaxes(inv, -1, -2))

    @pytest.mark.parametrize("kind", [
        [(3, "indefinite")], [(0, "zero pivot")], [(6, "below tolerance")],
        [(2, "nan")], [(4, "nan off the diagonal")],
        # a matrix that is not positive definite outranks a singular one,
        # in an earlier chunk too
        [(1, "below tolerance"), (5, "indefinite")],
    ])
    @pytest.mark.parametrize("chunk", [2, mc.CHOLESKY_CHUNK])
    def test_raises_as_oracle(self, kind, chunk, monkeypatch):
        C = bad_stack(kind)
        with pytest.raises(SingularToTolerance) as want:
            oracle.inverse_logdet_spd(C)
        monkeypatch.setattr(mc, "CHOLESKY_CHUNK", chunk)
        with pytest.raises(SingularToTolerance, match=str(want.value)):
            mc.inverse_logdet_spd(C)

    def test_tolerance_boundary_passes_just_above(self):
        a, b = 4.0, 2.0
        delta = 1.001 * mc.DEFAULT_PIVOT_TOL * a
        C = np.array([[a, b], [b, b * b / a + delta]])
        _, logdet = mc.inverse_logdet_spd(C)
        assert logdet == pytest.approx(np.log(a * delta), rel=1e-6)

    @pytest.mark.parametrize("D", [1, 8])
    @pytest.mark.parametrize("chunk", [3, mc.CHOLESKY_CHUNK])
    def test_matrix_gives_same_bits_alone(self, D, chunk, monkeypatch):
        monkeypatch.setattr(mc, "CHOLESKY_CHUNK", chunk)
        C = spd_stack((10,), D, 7)
        inv, logdet = mc.inverse_logdet_spd(C)
        rev_inv, rev_logdet = mc.inverse_logdet_spd(C[::-1])
        for i in range(10):
            one_inv, one_logdet = mc.inverse_logdet_spd(C[i])
            assert np.array_equal(one_inv, inv[i])
            assert np.array_equal(one_inv, rev_inv[9 - i])
            assert one_logdet == logdet[i] == rev_logdet[9 - i]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            mc.inverse_logdet_spd(np.ones((3, 2)))

class TestSchurComplement:
    def test_matches_direct_formula(self):
        A = random_spd(8, 3)
        a, b = [0, 2, 5], [1, 3, 4]
        S = oracle.schur_complement(A, a, b)
        Maa = A[np.ix_(a, a)]
        Mab = A[np.ix_(a, b)]
        ref = A[np.ix_(b, b)] - Mab.T @ np.linalg.inv(Maa) @ Mab
        assert np.allclose(S, ref, atol=1e-10)

    def test_hand_example(self):
        # conditioning [[2, .9], [.9, 2]] on the first index: 2 - 0.81/2
        A = np.array([[2.0, 0.9], [0.9, 2.0]])
        S = oracle.schur_complement(A, [0], [1])
        assert S[0, 0] == pytest.approx(2.0 - 0.81 / 2.0, abs=1e-12)

    def test_empty_a_returns_block(self):
        A = random_spd(4, 0)
        assert np.array_equal(oracle.schur_complement(A, [], [1, 2]),
                              A[np.ix_([1, 2], [1, 2])])

    def test_overlap_rejected(self):
        A = random_spd(4, 0)
        with pytest.raises(ValueError):
            oracle.schur_complement(A, [0, 1], [1, 2])

    def test_schur_of_psd_is_psd(self):
        for seed in range(10):
            A = random_spd(9, seed)
            S = oracle.schur_complement(A, [0, 1, 2], list(range(3, 9)))
            assert np.linalg.eigvalsh(S)[0] >= -1e-10


def near_singular(lam_min, scale=1.0):
    """scale * [[1, 1 - lam_min], [1 - lam_min, 1]]: unit diagonal times
    scale, eigenvalues scale * (2 - lam_min) and scale * lam_min."""
    off = 1.0 - lam_min
    return scale * np.array([[1.0, off], [off, 1.0]])


class TestAsPsd:
    @pytest.mark.parametrize("lam_min, ok", [(0.0, True), (-0.5e-8, True),
                                             (-2e-8, False), (-1.0, False)])
    def test_tolerance_on_a_unit_diagonal(self, lam_min, ok):
        A = near_singular(lam_min)
        if ok:
            assert mc.as_psd(A) is A
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                mc.as_psd(A)

    @pytest.mark.parametrize("lam_min, ok", [(-0.5e-8, True), (-2e-8, False)])
    def test_tolerance_scales_with_the_largest_diagonal(self, lam_min, ok):
        # a lambda_min of -0.5e-4 passes at diagonal 1e4, where an absolute
        # bound of 1e-8 would reject it
        A = near_singular(lam_min, scale=1e4)
        assert np.linalg.eigvalsh(A)[0] == pytest.approx(1e4 * lam_min, rel=1e-6)
        if ok:
            mc.as_psd(A)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                mc.as_psd(A)

    def test_accepts_empty(self):
        assert mc.as_psd(np.zeros((0, 0))).shape == (0, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            mc.as_psd([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            mc.as_psd([[1.0, 0.5], [0.0, 1.0]])

    def test_scans_once_and_leaves_the_input_alone(self, monkeypatch):
        calls = []
        scan = mc.as_matrix
        monkeypatch.setattr(mc, "as_matrix", lambda M: calls.append(1) or scan(M))
        A = random_spd(5, 3)
        before = A.copy()
        assert mc.as_psd(A) is A
        assert calls == [1] and np.array_equal(A, before)


class TestPsdRepair:
    def test_psd_untouched(self):
        A = random_spd(5, 2)
        assert np.array_equal(mc.psd_repair(A), A)

    def test_indefinite_shifted_to_psd(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        R = mc.psd_repair(A)
        assert np.linalg.eigvalsh(R)[0] >= -1e-12
        # off-diagonal pattern untouched
        assert np.array_equal(R - np.diag(np.diagonal(R)),
                              A - np.diag(np.diagonal(A)))

    def test_shift_leaves_the_margin(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        R = mc.psd_repair(A)
        assert np.linalg.eigvalsh(R)[0] == pytest.approx(mc.PSD_REPAIR_MARGIN,
                                                         abs=1e-12)
