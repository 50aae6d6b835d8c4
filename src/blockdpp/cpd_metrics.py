"""Dissimilarity metrics between time-series segments and the sliding
adjacent-window dissimilarity profile.

A time series is a (T, D) float array; an event sequence is a strictly
increasing 1-D array of event times.  All likelihood-ratio metrics return
logs: the ratio form overflows and the log is order-preserving for
peak-picking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_core as mc
from .errors import NonFinite

DEFAULT_DELTA_REG = 1e-6

METRICS = ("symkl", "glr_gaussian", "glr_poisson")


def as_series(X) -> np.ndarray:
    """Coerce to a (T, D) float array; 1-D input becomes a single column."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected (T, D) observations, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("series contains non-finite values")
    return A


def as_events(E) -> np.ndarray:
    e = np.asarray(E, dtype=np.float64).ravel()
    if not np.all(np.isfinite(e)):
        raise ValueError("event times contain non-finite values")
    if e.size >= 2 and np.any(np.diff(e) <= 0):
        raise ValueError("event times must be strictly increasing")
    return e


@dataclass
class SegmentStats:
    """One segment's model, or a stack of them with leading batch axes."""

    count: int
    mean: np.ndarray
    cov: np.ndarray  # ML covariance (denominator = count) plus delta_reg * I


def _prefix_moments(A: np.ndarray):
    """Centre of A and prefix sums of the centred rows and their outer products.

    Row i of each sum covers samples [0, i), so the moments of any window are
    one subtraction.  Centring first keeps offset data from cancelling.
    Raises NonFinite when the sums overflow: a prefix sum that is once
    infinite or NaN stays so, so the last row of S2 shows it.
    """
    centre = A.mean(axis=0)
    Z = A - centre
    T, D = Z.shape
    S1 = np.zeros((T + 1, D))
    S2 = np.zeros((T + 1, D, D))
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(Z, axis=0, out=S1[1:])
        np.cumsum(Z[:, :, None] * Z[:, None, :], axis=0, out=S2[1:])
    if not np.isfinite(S2[-1]).all():
        raise NonFinite("series too large: its second moments overflow")
    return centre, S1, S2


def _window_stats(S1, S2, lo, hi, delta_reg: float) -> SegmentStats:
    """Stats of the windows [lo, hi) (scalars or arrays) from prefix sums.

    Means are relative to the centre the prefix sums were taken about.
    """
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    M = hi - lo
    if np.any(M < 2):
        raise ValueError("segment must contain at least 2 samples")
    m = M[..., None].astype(np.float64)
    mean = (S1[hi] - S1[lo]) / m
    cov = ((S2[hi] - S2[lo]) / m[..., None]
           - mean[..., :, None] * mean[..., None, :]
           + delta_reg * np.eye(S1.shape[1]))
    return SegmentStats(count=M, mean=mean, cov=cov)


def segment_stats(X, start: int, stop: int,
                  delta_reg: float = DEFAULT_DELTA_REG) -> SegmentStats:
    """Sample mean and ML covariance of X[start:stop], ridge-regularized."""
    seg = as_series(X)[start:stop]
    centre, S1, S2 = _prefix_moments(seg)
    s = _window_stats(S1, S2, 0, seg.shape[0], delta_reg)
    return SegmentStats(count=int(s.count), mean=centre + s.mean, cov=s.cov)


def _symkl(mean, cov, inv, i, j):
    """Symmetrized Gaussian KL between entries i and j of stacked means,
    covariances and inverses; each term gathers, then frees, its operands."""
    D = mean.shape[-1]
    dm = mean[i] - mean[j]
    return (np.einsum("...ij,...ji->...", cov[i], inv[j])
            + np.einsum("...ij,...ji->...", cov[j], inv[i]) - 2.0 * D
            + np.einsum("...i,...ij,...j->...", dm, inv[i] + inv[j], dm))


def symkl(s1: SegmentStats, s2: SegmentStats) -> float:
    """Symmetrized KL divergence between two Gaussian segment models."""
    cov = np.stack([s1.cov, s2.cov])
    return float(_symkl(np.stack([s1.mean, s2.mean]), cov,
                        mc.inverse_logdet_spd(cov)[0], 0, 1))


def _gauss_loglik(s: SegmentStats, delta_reg: float):
    """Log-likelihood of (stacks of) segments under their own fitted Gaussian.

    With cov = S + delta_reg * I, S the ML scatter, the quadratic term
    sum_i z_i' cov^-1 z_i is count * tr(cov^-1 S) = count * (D - delta_reg *
    tr(cov^-1)), so no per-sample pass is needed.
    """
    D = s.cov.shape[-1]
    inv, logdet = mc.inverse_logdet_spd(s.cov)
    trace_inv = np.trace(inv, axis1=-2, axis2=-1)
    return -0.5 * s.count * (D * np.log(2.0 * np.pi) + logdet + D
                             - delta_reg * trace_inv)


def window_dissimilarity(X, start, stop, left, right, metric: str = "symkl",
                         delta_reg: float = DEFAULT_DELTA_REG) -> np.ndarray:
    """d(x[start[l]:stop[l]], x[start[r]:stop[r]]) for the index pairs (left, right).

    The series is centred once and every window's mean and covariance come
    from prefix sums: O(T * D^2) set-up, then one batched Cholesky
    (matrix_core.inverse_logdet_spd) for the inverses and log-determinants,
    once per listed window.  glr_gaussian pools x[start[l]:stop[r]].  A
    bound or pair index that is not an integer, a window outside [0, T] or
    with fewer than 2 samples, or a pair index outside the window list,
    raises ValueError; a covariance that is not positive definite to
    tolerance raises SingularToTolerance.
    """
    if metric not in ("symkl", "glr_gaussian"):
        raise ValueError(f"unknown series metric {metric!r}")
    _, S1, S2 = _prefix_moments(as_series(X))
    start, stop = (mc.as_integers(b, "window bounds") for b in (start, stop))
    left, right = (mc.as_integers(i, "pair indices") for i in (left, right))
    T, n = S1.shape[0] - 1, start.size
    # a negative index would wrap around S1 or the window list
    if (start.ndim != 1 or stop.shape != start.shape
            or np.any(start < 0) or np.any(stop > T)):
        raise ValueError(f"windows must be two 1-D bound arrays within [0, {T}]")
    if np.any((left < 0) | (left >= n) | (right < 0) | (right >= n)):
        raise ValueError(f"pair indices must lie within [0, {n})")
    win = _window_stats(S1, S2, start, stop, delta_reg)
    if metric == "symkl":
        inv, _ = mc.inverse_logdet_spd(win.cov)
        return _symkl(win.mean, win.cov, inv, left, right)
    loglik = _gauss_loglik(win, delta_reg)
    pooled = _window_stats(S1, S2, start[left], stop[right], delta_reg)
    return loglik[left] + loglik[right] - _gauss_loglik(pooled, delta_reg)


def _poisson_loglik(count, span):
    if np.any(count < 2):
        raise ValueError("event sequence must contain at least 2 events")
    if np.any(span <= 0):
        raise ValueError("event span must be positive")
    lam = (count - 1) / span
    return (count - 1) * np.log(lam) - span * lam


def _poisson_glr(n1, span1, n2, span2, span_pooled):
    return (_poisson_loglik(n1, span1) + _poisson_loglik(n2, span2)
            - _poisson_loglik(n1 + n2, span_pooled))


def _span(e: np.ndarray) -> float:
    return e[-1] - e[0] if e.size else 0.0


def glr_poisson(E1, E2) -> float:
    """Log likelihood ratio for homogeneous Poisson rates, MLE plug-ins.

    The pooled model is fit on the concatenation of both event lists, with
    span taken over the union.
    """
    e1, e2 = as_events(E1), as_events(E2)
    pooled = np.sort(np.concatenate([e1, e2]))
    return float(_poisson_glr(e1.size, _span(e1), e2.size, _span(e2),
                              _span(pooled)))


def poisson_split_glr(e: np.ndarray, lo, mid, hi) -> np.ndarray:
    """Poisson GLR of events e[lo:mid] against e[mid:hi], for index arrays.

    Each window needs only its count and its first and last event.  An
    index that is not an integer raises ValueError.
    """
    lo, mid, hi = (mc.as_integers(i, "split indices") for i in (lo, mid, hi))
    return _poisson_glr(mid - lo, e[mid - 1] - e[lo], hi - mid,
                        e[hi - 1] - e[mid], e[hi - 1] - e[lo])


@dataclass
class DissimilarityProfile:
    """d values over candidate split times t in [w, T - w]."""

    times: np.ndarray   # candidate split positions
    values: np.ndarray

    def __post_init__(self):
        if self.times.size != self.values.size:
            raise ValueError("times and values length mismatch")


def dissimilarity_profile(X, window: int, metric: str = "symkl",
                          delta_reg: float = DEFAULT_DELTA_REG) -> DissimilarityProfile:
    """Adjacent-window dissimilarity d(x[t-w:t], x[t:t+w]) for t in [w, T-w];
    w counts samples, and one that is not a whole number raises ValueError.
    Each of the T - w + 1 sliding windows is factored once."""
    if not float(window).is_integer():
        raise ValueError(f"window must be a whole number of samples, got {window}")
    A = as_series(X)
    T, D = A.shape
    w = int(window)
    if T < 2 * w:
        raise ValueError(f"series of length {T} too short for window {w}")
    if w <= D:   # D >= 1, so this rejects w < 2 too
        raise ValueError(f"window w={w} must exceed the dimension D={D}: "
                         "every window covariance would be rank-deficient")
    s = np.arange(T - w + 1)   # the sliding windows [s, s + w)
    vals = window_dissimilarity(A, s, s + w, s[:-w], s[w:], metric, delta_reg)
    return DissimilarityProfile(times=s[w:], values=vals)


def poisson_profile(E, window: float, step: float = 1.0) -> DissimilarityProfile:
    """GLR profile over an event sequence using time windows of width `window`.

    Evaluated on a uniform grid between the first and last event; windows
    holding fewer than 2 events contribute 0 (no evidence).  A window or
    step that is not positive and finite (NaN included) raises ValueError.
    """
    e = as_events(E)
    if e.size < 2:
        raise ValueError("need at least 2 events")
    if not (0 < window < np.inf and 0 < step < np.inf):   # NaN fails both
        raise ValueError("window and step must be positive and finite")
    lo, hi = e[0] + window, e[-1] - window
    if hi < lo:
        raise ValueError("event span too short for the window")
    ts = np.arange(lo, hi + step * 0.5, step)
    a, b, c = (np.searchsorted(e, x) for x in (ts - window, ts, ts + window))
    ok = (b - a >= 2) & (c - b >= 2)
    vals = np.zeros(ts.size)
    vals[ok] = poisson_split_glr(e, a[ok], b[ok], c[ok])
    return DissimilarityProfile(times=ts, values=vals)
