"""Dense symmetric-matrix primitives, numpy only: the three doors for a kernel
(``as_square``, ``as_matrix``, ``as_psd``), log-determinant and inversion.

The one PSD rule, ``as_psd``'s: A + PSD_TOL * max(1, max_i A_ii) * I has a
Cholesky factor, so float noise around a zero eigenvalue passes.  One LAPACK
Cholesky (``_cholesky_pivots``) sits behind ``log_det``, ``inverse_spd`` and
the batched ``inverse_logdet_spd``: a matrix that is not positive definite,
or has a squared pivot at or below DEFAULT_PIVOT_TOL * max(1, its largest
diagonal entry), raises SingularToTolerance.

All routines take and return plain float64 numpy arrays and are pure
functions of their inputs.  Index sets are strictly increasing arrays of
0-based integers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, SingularToTolerance

DEFAULT_PIVOT_TOL = 1e-10
PSD_TOL = 1e-8
SYMMETRY_TOL = 1e-9
# side of the square tiles of as_matrix's symmetry scan; a tile and its
# transposed partner stay in cache, and the temporaries stay small
SYMMETRY_TILE = 128


def _asymmetry(A: np.ndarray) -> float:
    """max |A_ij - A_ji| over square tile pairs A[I, J], A[J, I].T, i <= j.

    Returns at the first tile pair whose difference is NaN or infinite,
    which it is whenever the pair holds a non-finite entry.
    """
    n, T = A.shape[0], SYMMETRY_TILE
    asym = 0.0
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
        for i in range(0, n, T):
            for j in range(i, n, T):
                m = float(abs(A[i:i + T, j:j + T] - A[j:j + T, i:i + T].T).max())
                if not math.isfinite(m):
                    return m
                asym = max(asym, m)
    return asym


def as_square(M) -> np.ndarray:
    """Coerce to a float64 array and check that it is square; no entry is read."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def as_matrix(M) -> np.ndarray:
    """Coerce as as_square does, then check finiteness and symmetry.

    One scan over square tile pairs, with no N x N temporary, finds
    max |A_ij - A_ji|, which is NaN or infinite when some entry is.  The
    tolerance scales with max(1, max |A_ij|), taken only when that
    asymmetry exceeds SYMMETRY_TOL.
    """
    A = as_square(M)
    asym = _asymmetry(A)
    if not math.isfinite(asym) and not np.isfinite(A).all():
        raise NonFinite("matrix contains non-finite entries")
    if asym > SYMMETRY_TOL:
        scale = max(1.0, float(A.max()), -float(A.min()))
        if asym > SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric to tolerance")
    return A


def as_psd(M) -> np.ndarray:
    """as_matrix, then the PSD rule; the shifted copy is freed on return."""
    A = as_matrix(M)
    C = A.copy()
    C.flat[::A.shape[0] + 1] += PSD_TOL * max(1.0, A.diagonal().max(initial=0.0))
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive semidefinite to tolerance") from None
    return A


def as_index_set(idx, n: int) -> np.ndarray:
    """Validate a strictly increasing 0-based index set for an n x n matrix."""
    a = np.asarray(idx, dtype=np.int64).ravel()
    if a.size:
        if (a[1:] <= a[:-1]).any():
            raise ValueError("index set must be strictly increasing")
        if a[0] < 0 or a[-1] >= n:
            raise IndexError(f"index out of range for dimension {n}")
    return a


def _cholesky_pivots(C: np.ndarray) -> np.ndarray:
    """Diagonal of the LAPACK Cholesky factor of each matrix in a stack.

    Raises SingularToTolerance when a matrix is not positive definite or
    has a squared pivot at or below DEFAULT_PIVOT_TOL * max(1, max diagonal).
    """
    try:
        F = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise SingularToTolerance("matrix is not positive definite") from None
    piv = np.diagonal(F, axis1=-2, axis2=-1)
    diag_max = np.diagonal(C, axis1=-2, axis2=-1).max(axis=-1)
    thresh = DEFAULT_PIVOT_TOL * np.maximum(diag_max, 1.0)
    if np.any(piv * piv <= thresh[..., None]):
        raise SingularToTolerance("matrix is singular to tolerance")
    return piv


def log_det(M) -> float:
    """log det of a positive definite matrix; the 0x0 matrix has det 1.

    Raises SingularToTolerance as _cholesky_pivots does.
    """
    A = as_matrix(M)
    if A.shape[0] == 0:
        return 0.0
    return float(2.0 * np.sum(np.log(_cholesky_pivots(A))))


def inverse_spd(M) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    A = as_matrix(M)
    if A.shape[0] == 0:
        return A.copy()
    inv, _ = inverse_logdet_spd(A)
    return 0.5 * (inv + inv.T)


def inverse_logdet_spd(C):
    """Inverses and log-determinants of a stack (..., D, D) of SPD matrices.

    One LAPACK Cholesky per matrix; raises SingularToTolerance as
    _cholesky_pivots does.
    """
    C = np.asarray(C, dtype=np.float64)
    piv = _cholesky_pivots(C)
    return np.linalg.inv(C), 2.0 * np.sum(np.log(piv), axis=-1)


def psd_repair(M, eps: float = 0.0) -> np.ndarray:
    """Return M if PSD, else M shifted by (|lambda_min| + eps) on the diagonal.

    The off-diagonal sparsity pattern is never touched.
    """
    A = as_matrix(M)
    if A.shape[0] == 0:
        return A.copy()
    lam = float(np.linalg.eigvalsh(A)[0])
    if lam >= 0.0:
        return A.copy()
    return A + (abs(lam) + eps) * np.eye(A.shape[0])
