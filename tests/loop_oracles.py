"""Straightforward reference implementations that tests compare the
library with.

- Per-window loops of the change-point metrics and profiles, which the
  batched engine in ``cpd_metrics`` replaced: one segment at a time,
  centred on its own mean, with one Cholesky per covariance.
- The DPP conditioning formulas behind block-wise MAP: Schur complements,
  explicit conditional kernels and the conditional form of the block loop.
- The log-probability of a selection by one Cholesky of the whole selected
  submatrix, which the chunked factorisation in ``map_inference`` replaced.
- A recording sub-solver, which keeps each block that block-wise MAP hands
  to its sub-solver together with the local picks made on it.
- The pairwise interval sweep that ``kernel_model`` used to find invalid
  cuts before it worked from each row's reach.
- Inverses and log-determinants of a stack of SPD matrices by LAPACK, one
  call per matrix, which the batched Cholesky in ``matrix_core`` replaced.
- The symmetry scan as a dense |A - A^T|, read tile pair by tile pair,
  which ``matrix_core``'s scan of only the tiles holding a nonzero replaced.
"""

from typing import List

import numpy as np

from blockdpp import cpd_metrics as cm
from blockdpp import kernel_model as km
from blockdpp import map_inference as mi
from blockdpp import matrix_core as mc
from blockdpp.errors import SingularToTolerance


def segment_stats(seg, delta_reg):
    M, D = seg.shape
    if M < 2:
        raise ValueError("segment must contain at least 2 samples")
    mu = seg.mean(axis=0)
    Z = seg - mu
    cov = (Z.T @ Z) / M + delta_reg * np.eye(D)
    return cm.SegmentStats(count=M, mean=mu, cov=0.5 * (cov + cov.T))


def symkl(s1, s2):
    D = s1.mean.size
    inv1 = mc.inverse_spd(s1.cov)
    inv2 = mc.inverse_spd(s2.cov)
    dm = s1.mean - s2.mean
    return float(np.trace(s1.cov @ inv2) + np.trace(s2.cov @ inv1) - 2.0 * D
                 + dm @ (inv1 + inv2) @ dm)


def gauss_loglik(seg, delta_reg):
    s = segment_stats(seg, delta_reg)
    M, D = seg.shape
    Z = seg - s.mean
    quad = float(np.sum((Z @ mc.inverse_spd(s.cov)) * Z))
    return -0.5 * (M * (D * np.log(2.0 * np.pi) + mc.log_det(s.cov)) + quad)


def split_metric(A, lo, mid, hi, metric, delta_reg):
    """d(A[lo:mid], A[mid:hi]) for one split."""
    left, right = A[lo:mid], A[mid:hi]
    if metric == "symkl":
        return symkl(segment_stats(left, delta_reg),
                     segment_stats(right, delta_reg))
    return (gauss_loglik(left, delta_reg) + gauss_loglik(right, delta_reg)
            - gauss_loglik(A[lo:hi], delta_reg))


def dissimilarity_profile(X, w, metric="symkl", delta_reg=cm.DEFAULT_DELTA_REG):
    A = cm.as_series(X)
    ts = np.arange(w, A.shape[0] - w + 1)
    return ts, np.array([split_metric(A, t - w, t, t + w, metric, delta_reg)
                         for t in ts])


def poisson_loglik(e):
    M = e.size
    if M < 2:
        raise ValueError("event sequence must contain at least 2 events")
    span = e[-1] - e[0]
    lam = (M - 1) / span
    return (M - 1) * np.log(lam) - span * lam


def glr_poisson(e1, e2):
    pooled = np.sort(np.concatenate([e1, e2]))
    return poisson_loglik(e1) + poisson_loglik(e2) - poisson_loglik(pooled)


def poisson_profile(e, window, step=1.0):
    ts = np.arange(e[0] + window, e[-1] - window + step * 0.5, step)
    vals = np.zeros(ts.size)
    for k, t in enumerate(ts):
        left = e[(e >= t - window) & (e < t)]
        right = e[(e >= t) & (e < t + window)]
        if left.size >= 2 and right.size >= 2:
            vals[k] = glr_poisson(left, right)
    return ts, vals


def _rescale(raw, cfg, floor):
    q = (cfg.quality_gain * raw / np.mean(raw)) ** cfg.quality_exponent
    return np.maximum(q, floor)


def candidate_quality(A, times, cfg, floor):
    """Raw metric on candidate-bounded segments, minimal-window fallback."""
    T = A.shape[0]
    bounds = np.concatenate([[0], times, [T]]).astype(np.int64)
    raw, flags = np.empty(times.size), []
    for i in range(times.size):
        a, b, c = bounds[i:i + 3]
        lo, hi = a, c
        if b - a < 2:
            lo = max(0, b - 2)
        if c - b < 2:
            hi = min(T, b + 2)
        if lo != a or hi != c:
            flags.append(i)
        raw[i] = split_metric(A, lo, b, hi, cfg.metric, cfg.delta_reg)
    return _rescale(np.maximum(raw, floor), cfg, floor), flags


def event_quality(E, times, cfg, floor):
    bounds = np.concatenate([[E[0]], times, [E[-1] + cfg.event_step]])
    raw, flags = np.full(times.size, floor), []
    for i in range(times.size):
        b = bounds[i + 1]
        left = E[(E >= bounds[i]) & (E < b)]
        right = E[(E >= b) & (E < bounds[i + 2])]
        if left.size < 2 or right.size < 2:
            flags.append(i)
        if left.size < 2:
            left = E[E < b][-2:]
        if right.size < 2:
            right = E[E >= b][:2]
        if left.size >= 2 and right.size >= 2:
            raw[i] = max(glr_poisson(left, right), floor)
    return _rescale(raw, cfg, floor), flags


def schur_complement(M, a, b):
    """M_b - M_ab.T @ inv(M_a) @ M_ab for disjoint index sets a, b."""
    A = mc.as_matrix(M)
    ia = mc.as_index_set(a, A.shape[0])
    ib = mc.as_index_set(b, A.shape[0])
    if np.intersect1d(ia, ib).size:
        raise ValueError("index sets must be disjoint")
    Mb = A[np.ix_(ib, ib)].copy()
    if ia.size == 0:
        return Mb
    F = np.linalg.cholesky(A[np.ix_(ia, ia)])
    X = np.linalg.solve(F, A[np.ix_(ia, ib)])
    S = Mb - X.T @ X
    return 0.5 * (S + S.T)


def conditional_kernel(L, a_in, a_out):
    """Kernel of the DPP conditioned on a_in included and a_out excluded.

    Returned over the surviving indices (everything outside a_in and a_out,
    in increasing order):  ([ (L_rest + I_keep)^-1 ]_keep)^-1 - I, where
    rest drops a_out and keep additionally drops a_in.
    """
    A = mc.as_matrix(L)
    n = A.shape[0]
    ain = mc.as_index_set(a_in, n)
    aout = mc.as_index_set(a_out, n)
    if np.intersect1d(ain, aout).size:
        raise ValueError("a_in and a_out must be disjoint")
    rest = np.setdiff1d(np.arange(n), aout)
    keep_local = np.flatnonzero(~np.isin(rest, ain))
    Ar = A[np.ix_(rest, rest)]
    shift = np.zeros_like(Ar)
    shift[keep_local, keep_local] = 1.0
    try:
        inner = np.linalg.inv(Ar + shift)
        K = np.linalg.inv(inner[np.ix_(keep_local, keep_local)])
    except np.linalg.LinAlgError as exc:
        raise SingularToTolerance(str(exc)) from None
    K = K - np.eye(keep_local.size)
    return 0.5 * (K + K.T)


def blockwise_map_conditional_form(L, P, f=mi.greedy_map):
    """Block-wise MAP via explicit conditional kernels.

    Block i's sub-problem is the kernel over the first i blocks conditioned
    on the previous selections being in and everything else previously seen
    being out.  Must return the same set as blockwise_map for any
    deterministic f.
    """
    A = mc.as_matrix(L)
    if P.n != A.shape[0]:
        raise ValueError("partition does not match kernel dimension")
    chosen: List[np.ndarray] = []
    for start, stop in P.ranges():
        prev = (np.concatenate(chosen) if chosen
                else np.empty(0, dtype=np.int64))
        a_out = np.setdiff1d(np.arange(start), prev)
        K = conditional_kernel(A[:stop, :stop], prev, a_out)
        local = np.sort(np.asarray(f(K), dtype=np.int64))
        chosen.append(local + start)
    return (np.concatenate(chosen) if chosen
            else np.empty(0, dtype=np.int64))


def log_prob_unnormalized(L, C):
    """log det of the k x k selection by one LAPACK Cholesky, with no pivot
    tolerance; empty selection gives 0, a failed factorisation -inf."""
    A = mc.as_square(L)
    idx = mc.as_index_set(C, A.shape[0])
    if idx.size == 0:
        return 0.0
    try:
        F = np.linalg.cholesky(mc.as_matrix(A[np.ix_(idx, idx)]))
    except np.linalg.LinAlgError:
        return float("-inf")
    return float(2.0 * np.sum(np.log(np.diagonal(F))))


def recording(seen, f=mi.greedy_map):
    """f as a sub-solver that appends (a copy of each block it gets, the
    block's sorted local picks) to seen."""
    def solve(K):
        picks = f(K)
        seen.append((np.array(K), np.sort(np.asarray(picks, dtype=np.int64))))
        return picks
    return solve


def invalid_cuts(L, gamma, eps_zero=km.DEFAULT_EPS_ZERO):
    """Boolean mask over cut positions 0..n-1 (entry p marks the cut before
    row p; entry 0 is unused) by an interval sweep over nonzero pairs.

    A nonzero entry (r, c) with c - r > gamma forbids every cut in
    [r+1, c-gamma] (the corner would be too wide) and in [r+gamma+1, c]
    (too tall); with c - r <= gamma both intervals are empty.
    """
    n = L.shape[0]
    rows, cols = np.nonzero(np.triu(np.abs(L) > eps_zero, 1))
    keep = cols - rows > gamma
    r, c = rows[keep], cols[keep]
    diff = np.zeros(n + 2, dtype=np.int64)
    np.add.at(diff, r + 1, 1)
    np.add.at(diff, c - gamma + 1, -1)
    np.add.at(diff, r + gamma + 1, 1)
    np.add.at(diff, c + 1, -1)
    return np.cumsum(diff)[:n] > 0


def inverse_logdet_spd(C):
    """Inverses and log-determinants of a stack of SPD matrices by one LAPACK
    Cholesky, for the pivots, and one LAPACK inverse per matrix, under the
    same pivot rule, which a NaN pivot fails: what the batched Cholesky in
    ``matrix_core`` replaced."""
    C = np.asarray(C, dtype=np.float64)
    try:
        F = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise SingularToTolerance("matrix is not positive definite") from None
    piv = np.diagonal(F, axis1=-2, axis2=-1)
    if not (piv > 0.0).all():     # numpy's factor holds NaN past a NaN pivot
        raise SingularToTolerance("matrix is not positive definite")
    diag_max = np.diagonal(C, axis1=-2, axis2=-1).max(axis=-1)
    thresh = mc.DEFAULT_PIVOT_TOL * np.maximum(diag_max, 1.0)
    if np.any(piv * piv <= thresh[..., None]):
        raise SingularToTolerance("matrix is singular to tolerance")
    return np.linalg.inv(C), 2.0 * np.sum(np.log(piv), axis=-1)


def asymmetry(A, tile):
    """max |A_ij - A_ji| from the dense D = |A - A^T|: the max of the first
    tile pair (I, J), I <= J in row-major order, whose max is NaN or
    infinite, else the max of D (0.0 for N = 0)."""
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
        D = np.abs(A - A.T)
    n = A.shape[0]
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            m = float(D[i:i + tile, j:j + tile].max())
            if not np.isfinite(m):
                return m
    return float(D.max(initial=0.0))
