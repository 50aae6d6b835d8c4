"""Dense symmetric-matrix primitives: Cholesky, log-determinant, inversion,
Schur complements, eigenvalue bounds.

All routines take and return plain float64 numpy arrays and are pure
functions of their inputs.  Index sets are strictly increasing arrays of
0-based integers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NonFinite, NotPositiveSemiDefinite, SingularToTolerance

DEFAULT_PIVOT_TOL = 1e-10
SYMMETRY_TOL = 1e-9
# rows per tile of as_matrix's symmetry scan; keeps its temporaries small
SYMMETRY_TILE = 64


def as_matrix(M) -> np.ndarray:
    """Coerce to a square float64 array, checking finiteness and symmetry.

    One scan over row tiles of the upper triangle, with no N x N
    temporary, finds max |A_ij - A_ji|, which is NaN or infinite when some
    entry is.  The tolerance scales with max(1, max |A_ij|), taken only
    when that asymmetry exceeds SYMMETRY_TOL.
    """
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    asym = 0.0
    with np.errstate(invalid="ignore"):     # inf - inf on the diagonal
        for i in range(0, n, SYMMETRY_TILE):
            j = min(i + SYMMETRY_TILE, n)
            m = float(abs(A[i:j, i:] - A[i:, i:j].T).max())
            if not m <= asym:          # larger, or NaN
                asym = m
                if not math.isfinite(m):
                    break
    if not math.isfinite(asym) and not np.isfinite(A).all():
        raise NonFinite("matrix contains non-finite entries")
    if asym > SYMMETRY_TOL:
        scale = max(1.0, float(A.max()), -float(A.min()))
        if asym > SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric to tolerance")
    return A


def as_index_set(idx, n: int) -> np.ndarray:
    """Validate a strictly increasing 0-based index set for an n x n matrix."""
    a = np.asarray(idx, dtype=np.int64).ravel()
    if a.size:
        if np.any(np.diff(a) <= 0):
            raise ValueError("index set must be strictly increasing")
        if a[0] < 0 or a[-1] >= n:
            raise IndexError(f"index out of range for dimension {n}")
    return a


def principal_submatrix(M, idx) -> np.ndarray:
    """Square submatrix of M on the given indices; empty idx gives 0x0."""
    A = np.asarray(M, dtype=np.float64)
    a = as_index_set(idx, A.shape[0])
    return A[np.ix_(a, a)].copy()


def _chol_pivots(A: np.ndarray, tol: float):
    """Outer-product Cholesky tolerating zero pivots.

    Returns the lower factor.  Pivots in (-thresh, thresh] are flushed to
    zero together with their column; pivots below -thresh raise.
    """
    n = A.shape[0]
    F = np.array(A, dtype=np.float64, copy=True)
    max_diag = float(np.max(np.diagonal(A))) if n else 0.0
    thresh = tol * max(max_diag, 1.0)
    for k in range(n):
        d = F[k, k] - np.dot(F[k, :k], F[k, :k])
        if d < -thresh:
            raise NotPositiveSemiDefinite(
                f"pivot {d:.3e} below -{thresh:.3e} at step {k}"
            )
        if d <= thresh:
            F[k:, k] = 0.0
            continue
        p = np.sqrt(d)
        F[k, k] = p
        if k + 1 < n:
            F[k + 1:, k] = (A[k + 1:, k] - F[k + 1:, :k] @ F[k, :k]) / p
    return np.tril(F)


def cholesky_psd(M, tol: float = DEFAULT_PIVOT_TOL) -> np.ndarray:
    """Lower-triangular F with F @ F.T == M for PSD M (to tolerance)."""
    return _chol_pivots(as_matrix(M), tol)


def log_det(M, tol: float = DEFAULT_PIVOT_TOL) -> float:
    """log det via Cholesky pivots; the 0x0 matrix has det 1."""
    F = _chol_pivots(as_matrix(M), tol)
    piv = np.diagonal(F)
    if np.any(piv == 0.0):
        raise SingularToTolerance("zero pivot: determinant is 0 to tolerance")
    return float(2.0 * np.sum(np.log(piv)))


def inverse_spd(M, tol: float = DEFAULT_PIVOT_TOL) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    A = as_matrix(M)
    if A.shape[0] == 0:
        return A.copy()
    inv, _ = inverse_logdet_spd(A, tol)
    return 0.5 * (inv + inv.T)


def inverse_logdet_spd(C, tol: float = DEFAULT_PIVOT_TOL):
    """Inverses and log-determinants of a stack (..., D, D) of SPD matrices.

    One LAPACK Cholesky per matrix.  Raises SingularToTolerance when any
    matrix is not positive definite or has a pivot at or below
    tol * max(1, its largest diagonal entry).
    """
    C = np.asarray(C, dtype=np.float64)
    try:
        F = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise SingularToTolerance("matrix is not positive definite") from None
    piv = np.diagonal(F, axis1=-2, axis2=-1)
    thresh = tol * np.maximum(np.diagonal(C, axis1=-2, axis2=-1).max(axis=-1), 1.0)
    if np.any(piv * piv <= thresh[..., None]):
        raise SingularToTolerance("matrix is singular to tolerance")
    return np.linalg.inv(C), 2.0 * np.sum(np.log(piv), axis=-1)


def schur_complement(M, a, b, tol: float = DEFAULT_PIVOT_TOL) -> np.ndarray:
    """M_b - M_ab.T @ inv(M_a) @ M_ab for disjoint index sets a, b."""
    A = as_matrix(M)
    ia = as_index_set(a, A.shape[0])
    ib = as_index_set(b, A.shape[0])
    if np.intersect1d(ia, ib).size:
        raise ValueError("index sets must be disjoint")
    Mb = A[np.ix_(ib, ib)].copy()
    if ia.size == 0:
        return Mb
    Maa = A[np.ix_(ia, ia)]
    Mab = A[np.ix_(ia, ib)]
    F = _chol_pivots(Maa, tol)
    if np.any(np.diagonal(F) == 0.0):
        raise SingularToTolerance("conditioning block is singular to tolerance")
    X = solve_triangular(F, Mab, lower=True)
    S = Mb - X.T @ X
    return 0.5 * (S + S.T)


def min_eigenvalue(M) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    A = as_matrix(M)
    if A.shape[0] == 0:
        raise ValueError("min_eigenvalue undefined for the 0x0 matrix")
    lam = float(np.linalg.eigvalsh(A)[0])
    if not np.isfinite(lam):
        raise NonFinite("eigenvalue computation produced a non-finite value")
    return lam


def psd_repair(M, eps: float = 0.0) -> np.ndarray:
    """Return M if PSD, else M shifted by (|lambda_min| + eps) on the diagonal.

    The off-diagonal sparsity pattern is never touched.
    """
    A = as_matrix(M)
    if A.shape[0] == 0:
        return A.copy()
    lam = min_eigenvalue(A)
    if lam >= 0.0:
        return A.copy()
    return A + (abs(lam) + eps) * np.eye(A.shape[0])
