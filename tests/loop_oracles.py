"""Per-window loop implementations of the change-point metrics and profiles.

These are the straightforward versions the batched engine in
``cpd_metrics`` replaced: one segment at a time, centred on its own mean,
with a Python Cholesky per covariance.  Tests compare the engine with them.
"""

import numpy as np

from blockdpp import cpd_metrics as cm
from blockdpp import matrix_core as mc


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
