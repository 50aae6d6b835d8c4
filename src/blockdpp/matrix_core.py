"""Dense symmetric-matrix primitives, numpy only: the three doors for a kernel
(``as_square``, ``as_matrix``, ``as_psd``), index sets, log-determinant,
inversion and ``psd_repair``.

The one PSD rule, ``as_psd``'s: A + PSD_TOL * max(1, max_i A_ii) * I has a
Cholesky factor, so float noise around a zero eigenvalue passes.  The one
shifted-Cholesky test, ``factors_shifted``, serves it and greedy MAP's
certificate.  The one pivot rule, ``_pivot_fault``'s: a matrix that is not
positive definite, or has a squared Cholesky pivot at or below
DEFAULT_PIVOT_TOL * max(1, its largest diagonal entry), raises
SingularToTolerance.  ``log_det`` takes its pivots from one LAPACK
Cholesky; ``inverse_spd`` and ``inverse_logdet_spd`` share one batched
Cholesky, vectorised across the stack of matrices.

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
PSD_REPAIR_MARGIN = 1e-8
# side of the square tiles of as_matrix's symmetry scan; a tile and its
# transposed partner stay in cache, and the temporaries stay small.  64 was
# the fastest of 32, 64, 128 and 256 (48 tied) on the benchmark's N = 500
# and N = 2000 kernels
SYMMETRY_TILE = 64
# matrices per chunk of inverse_logdet_spd: enough that the per-step call
# overhead is small (a T = 2500 profile at D = 1 is one chunk), few enough
# that a chunk's (D, D, chunk) temporaries stay a few MB at D = 8
CHOLESKY_CHUNK = 4096
_NOT_PD = "matrix is not positive definite"
_SINGULAR = "matrix is singular to tolerance"


def _asymmetry(A: np.ndarray) -> float:
    """max |A_ij - A_ji| over square tile pairs A[I, J], A[J, I].T, I <= J,
    comparing only the pairs where either tile holds an entry != 0.

    Each row panel A[i:i+T] is read once, row-major, into one row of an
    m x m grid (m = ceil(N / T)) of the tiles that hold such an entry.  A
    pair of all-zero tiles (-0.0 counts as zero) has difference exactly 0,
    so skipping it leaves the result unchanged.  NaN and +-inf are != 0, so
    a non-finite entry always lies in a compared pair.  The pairs are
    compared in row-major order, and the scan returns at the first one whose
    difference is NaN or infinite.
    """
    n, T = A.shape[0], SYMMETRY_TILE
    starts = np.arange(0, n, T)
    held = np.empty((starts.size, starts.size), dtype=bool)
    for I, i in enumerate(starts):
        held[I] = np.logical_or.reduceat((A[i:i + T] != 0).any(axis=0), starts)
    asym = 0.0
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
        for i, j in zip(*np.nonzero(np.triu(held | held.T))):
            i, j = i * T, j * T
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

    One scan, _asymmetry's, finds max |A_ij - A_ji|, which is NaN or
    infinite when some entry is.  It compares only the tile pairs that hold
    a nonzero: few on an almost block diagonal kernel, while a dense matrix
    pays one more read of every entry.  No temporary is larger than a
    SYMMETRY_TILE x N boolean panel.  The tolerance scales with
    max(1, max |A_ij|), taken only when that asymmetry exceeds
    SYMMETRY_TOL.
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


def factors_shifted(A, shift: float) -> bool:
    """Whether np.linalg.cholesky factors A + shift * I, formed in a new dense
    copy of A (an array, or a kernel numpy reads as one), freed on return."""
    C = np.array(A)
    C.flat[::C.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return False
    return True


def as_psd(M) -> np.ndarray:
    """as_matrix, then the PSD rule."""
    A = as_matrix(M)
    if not factors_shifted(A, PSD_TOL * max(1.0, A.diagonal().max(initial=0.0))):
        raise ValueError("matrix is not positive semidefinite to tolerance")
    return A


def as_integers(values, what: str) -> np.ndarray:
    """values as an int64 array of their shape; a value that is not an
    integer, or a boolean mask, raises ValueError naming what they are."""
    a = np.asarray(values)
    if a.dtype == np.int64:                  # an int64 array needs no check
        return a
    if a.dtype == bool:                      # its 0s and 1s are not items
        raise ValueError(f"{what} must hold integers, not a boolean mask")
    with np.errstate(invalid="ignore"):      # NaN and inf fail the test below
        i = a.astype(np.int64)
    if not (i == a).all():
        raise ValueError(f"{what} must hold integers")
    return i


def as_index_set(idx, n: int) -> np.ndarray:
    """Validate a strictly increasing 0-based index set for an n x n matrix,
    returned as int64; a value that is not an integer, or a boolean mask,
    raises ValueError."""
    a = as_integers(idx, "index set").ravel()
    if a.size:
        if (a[1:] <= a[:-1]).any():
            raise ValueError("index set must be strictly increasing")
        if a[0] < 0 or a[-1] >= n:
            raise IndexError(f"index out of range for dimension {n}")
    return a


def _pivot_fault(p2, diag_max):
    """The pivot rule: _NOT_PD when a squared Cholesky pivot in p2 is not
    positive (or NaN), else _SINGULAR when one is at or below
    DEFAULT_PIVOT_TOL * max(1, diag_max), its matrix's largest diagonal
    entry broadcast against p2; None when every pivot passes."""
    if (p2 > DEFAULT_PIVOT_TOL * np.maximum(diag_max, 1.0)).all():
        return None
    return _SINGULAR if (p2 > 0.0).all() else _NOT_PD


def log_det(M) -> float:
    """log det of a positive definite matrix from one LAPACK Cholesky; the
    0x0 matrix has det 1.  Raises SingularToTolerance by _pivot_fault's rule."""
    A = as_matrix(M)
    try:
        piv = np.diagonal(np.linalg.cholesky(A))
    except np.linalg.LinAlgError:
        raise SingularToTolerance(_NOT_PD) from None
    fault = _pivot_fault(piv * piv, A.diagonal().max(initial=0.0))
    if fault:
        raise SingularToTolerance(fault)
    return float(2.0 * np.sum(np.log(piv)))


def inverse_spd(M) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky; the
    result is exactly symmetric."""
    A = as_matrix(M)
    if A.shape[0] == 0:
        return A.copy()
    return inverse_logdet_spd(A)[0]


def _factor_and_invert(A: np.ndarray):
    """Cholesky of each matrix of A, a (D, D, n) stack read from its lower
    triangle and overwritten: returns the inverses (D, D, n), the
    log-determinants (n,) and the squared pivots (D, n).

    Each step is an elementwise operation on length-n vectors, and sums run
    in a fixed order, so a matrix's results do not depend on n or on its
    neighbours.  With L the factor and X = L^-1, the inverse is X' X.
    """
    D, n = A.shape[0], A.shape[2]
    p2 = np.empty((D, n))
    for j in range(D):                       # right-looking Cholesky
        p2[j] = A[j, j]
        np.sqrt(p2[j], out=A[j, j])
        c = A[j + 1:, j]
        c /= A[j, j]
        A[j + 1:, j + 1:] -= c[:, None] * c[None, :]
    X = np.zeros_like(A)                     # forward substitution, L X = I
    X[np.arange(D), np.arange(D)] = 1.0
    inv = np.zeros_like(A)
    logdet = np.zeros(n)
    for k in range(D):
        X[k, :k + 1] /= A[k, k]
        X[k + 1:, :k + 1] -= A[k + 1:, k, None] * X[k, None, :k + 1]
        inv[:k + 1, :k + 1] += X[k, :k + 1, None] * X[k, None, :k + 1]
        logdet += np.log(p2[k])
    return inv, logdet, p2


def inverse_logdet_spd(C):
    """Inverses and log-determinants of a stack (..., D, D) of SPD matrices.

    One batched Cholesky: the stack is taken CHOLESKY_CHUNK matrices at a
    time, each chunk laid out as (D, D, chunk), so every step of the column
    loop is one vector operation across the chunk.  Only lower triangles
    are read.  A matrix gives the same bits alone as inside any stack.
    Raises SingularToTolerance by _pivot_fault's rule, with _NOT_PD when any
    matrix of the stack fails that way.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {C.shape}")
    D = C.shape[-1]
    flat = C.reshape(-1, D, D)
    inv, logdet = np.empty(flat.shape), np.empty(flat.shape[0])
    singular = False
    with np.errstate(invalid="ignore", divide="ignore"):   # faults raise below
        for s in range(0, flat.shape[0], CHOLESKY_CHUNK):
            part = slice(s, s + CHOLESKY_CHUNK)
            A = flat[part].transpose(1, 2, 0).copy()
            diag_max = np.diagonal(A).max(axis=1)
            inv_t, logdet[part], p2 = _factor_and_invert(A)
            inv[part] = inv_t.transpose(2, 0, 1)
            fault = _pivot_fault(p2, diag_max)
            if fault == _NOT_PD:
                raise SingularToTolerance(_NOT_PD)
            singular = singular or fault == _SINGULAR
    if singular:
        raise SingularToTolerance(_SINGULAR)
    return inv.reshape(C.shape), logdet.reshape(C.shape[:-2])


def psd_repair(M) -> np.ndarray:
    """Return M if PSD, else M shifted by |lambda_min| + PSD_REPAIR_MARGIN on
    the diagonal.  The off-diagonal sparsity pattern is never touched."""
    A = as_matrix(M)
    lam = float(np.linalg.eigvalsh(A).min(initial=0.0))   # 0 for a 0 x 0 M
    if lam >= 0.0:
        return A.copy()
    return A + (abs(lam) + PSD_REPAIR_MARGIN) * np.eye(A.shape[0])
