"""Two-step change-point detection.

Step 1 turns a dissimilarity profile into candidate change-points (local
peaks above the profile mean).  Step 2 treats the candidates as DPP items,
builds a quality/position-diversity kernel over them, and selects the final
change-points by block-wise MAP inference.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import List

import numpy as np

from . import cpd_metrics as metrics
from . import kernel_model as km
from . import map_inference as mi

EPS_QUALITY = 1e-9


@dataclass(frozen=True)
class DetectionConfig:
    window: int = 50
    sigma: float = 200.0
    gamma: int = 0
    metric: str = "symkl"
    eps_zero: float = km.DEFAULT_EPS_ZERO
    delta_reg: float = metrics.DEFAULT_DELTA_REG
    quality_gain: float = 1.5     # alpha in q -> (alpha * q / mean(q)) ** beta
    quality_exponent: float = 1.0  # beta
    require_initial_gain: bool = False
    event_step: float = 1.0       # profile grid step for event sequences

    def __post_init__(self):
        # written so that NaN fails them
        if not 2 <= self.window < np.inf:
            raise ValueError("window must be at least 2 and finite")
        for name in ("sigma", "quality_gain", "event_step"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("delta_reg", "quality_exponent"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        km.check_eps_zero(self.eps_zero)
        km._check_gamma(self.gamma)
        if self.metric not in metrics.METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass
class CandidateSet:
    times: np.ndarray     # strictly increasing candidate positions
    scores: np.ndarray    # profile values at those positions
    profile: metrics.DissimilarityProfile


@dataclass
class DetectionReport:
    config: DetectionConfig
    candidates: CandidateSet
    qualities: np.ndarray
    selected: np.ndarray          # subset of candidate times
    degenerate_candidates: List[int]
    timings_ms: dict

    def to_json_dict(self, include_timings: bool = True) -> dict:
        d = {
            "config": asdict(self.config),
            "candidates": [
                {"t": float(t), "d": float(s), "q": float(q)}
                for t, s, q in zip(self.candidates.times,
                                   self.candidates.scores, self.qualities)
            ],
            "selected": [float(t) for t in self.selected],
        }
        if include_timings:
            d["timings_ms"] = self.timings_ms
        return d


def pick_candidates(profile: metrics.DissimilarityProfile) -> CandidateSet:
    """Interior local peaks strictly above the profile mean.

    A plateau counts once, at its leftmost index; boundary positions are
    excluded.
    """
    v = profile.values
    if v.size == 0:
        raise ValueError("empty profile")
    mid = v[1:-1]
    keep = (v[:-2] < mid) & (mid >= v[2:]) & (mid > np.mean(v))
    idx = np.flatnonzero(keep) + 1
    return CandidateSet(times=profile.times[idx], scores=v[idx], profile=profile)


def _rescale(raw: np.ndarray, cfg: DetectionConfig) -> np.ndarray:
    q = (cfg.quality_gain * raw / np.mean(raw)) ** cfg.quality_exponent
    return np.maximum(q, EPS_QUALITY)


def _split_quality(lo, mid, hi, n: int, metric, cfg: DetectionConfig):
    """Rescaled metric(lo, mid, hi) over the splits [lo, mid) | [mid, hi) of n
    items, and the indices of the splits with a side of fewer than 2 items.
    That side is widened to the 2 items next to mid; a split still short, or
    whose metric is below EPS_QUALITY, scores EPS_QUALITY."""
    if mid.size == 0:
        return np.empty(0), []
    short_left, short_right = mid - lo < 2, hi - mid < 2
    lo = np.where(short_left, np.maximum(mid - 2, 0), lo)
    hi = np.where(short_right, np.minimum(mid + 2, n), hi)
    ok = (mid - lo >= 2) & (hi - mid >= 2)
    raw = np.full(mid.size, EPS_QUALITY)
    raw[ok] = np.maximum(metric(lo[ok], mid[ok], hi[ok]), EPS_QUALITY)
    return _rescale(raw, cfg), np.flatnonzero(short_left | short_right).tolist()


def candidate_quality(X, cand: CandidateSet, cfg: DetectionConfig):
    """Per-candidate quality and flags from the metric on the segments
    between neighbouring candidates, the series ends as sentinels, through
    _split_quality and q -> (gain * q / mean(q)) ** exponent."""
    A = metrics.as_series(X)
    ts = cand.times.astype(np.int64)
    bounds = np.concatenate([[0], ts, [A.shape[0]]])
    metric = lambda lo, mid, hi: metrics.window_dissimilarity(  # split i: 2i | 2i + 1
        A, np.ravel([lo, mid], "F"), np.ravel([mid, hi], "F"),
        np.arange(0, 2 * mid.size, 2), np.arange(1, 2 * mid.size, 2),
        cfg.metric, cfg.delta_reg)
    return _split_quality(bounds[:-2], ts, bounds[2:], A.shape[0], metric, cfg)


def _event_quality(E: np.ndarray, cand_times: np.ndarray,
                   cfg: DetectionConfig):
    bounds = np.concatenate([[E[0]], cand_times, [E[-1] + cfg.event_step]])
    lo, mid, hi = (np.searchsorted(E, b)
                   for b in (bounds[:-2], bounds[1:-1], bounds[2:]))
    glr = lambda lo, mid, hi: metrics.poisson_split_glr(E, lo, mid, hi)
    return _split_quality(lo, mid, hi, E.size, glr, cfg)


def build_cpd_kernel(cand_times, q, sigma: float, gamma: int = 0,
                     eps_zero: float = km.DEFAULT_EPS_ZERO):
    """Quality/position-diversity kernel over candidates plus its partition.

    The kernel is a km.CandidateKernel: L = diag(q) S diag(q) held as the
    times and qualities, read row by row, and no PSD check is run: greedy
    pivots on picks only (each above 1), and lambda_min(L) >= -delta *
    max q^2 (S's bound).  Detection builds no n x n array and factors no
    kernel, with one exception: greedy_map densifies a block of at most
    mi.CERTIFY_MAX_DIM items whose diagonal entries all exceed 1 and tries
    one Cholesky of it; a failed one only sends the block to the pick
    loop, so any eps_zero runs.  The partition's reach comes from the times
    too.
    """
    if np.size(cand_times) != np.size(q) or np.size(q) == 0:
        raise ValueError("need matching, nonempty candidates and qualities")
    kern = km.CandidateKernel(cand_times, q, sigma, eps_zero)
    return kern, km.gamma_partition(kern, gamma, eps_zero)


def detect_change_points(X, cfg: DetectionConfig = DetectionConfig()) -> DetectionReport:
    """Full pipeline on a (T, D) series: profile, candidates, kernel, selection."""
    _check_entry(cfg, detect_change_points)
    A = metrics.as_series(X)
    return _detect(cfg, lambda: metrics.dissimilarity_profile(
                       A, cfg.window, cfg.metric, cfg.delta_reg),
                   lambda cand: candidate_quality(A, cand, cfg))


def detect_change_points_events(E, cfg: DetectionConfig) -> DetectionReport:
    """Pipeline variant for event sequences with the Poisson GLR metric."""
    _check_entry(cfg, detect_change_points_events)
    e = metrics.as_events(E)
    return _detect(cfg, lambda: metrics.poisson_profile(e, cfg.window,
                                                        cfg.event_step),
                   lambda cand: _event_quality(e, cand.times, cfg))


def detector(metric: str):
    """The pipeline for a metric: glr_poisson reads events, the rest a series."""
    return (detect_change_points_events if metric == "glr_poisson"
            else detect_change_points)


def _check_entry(cfg: DetectionConfig, entry):
    """Reject a config whose metric the other pipeline runs."""
    want = detector(cfg.metric)
    if want is not entry:
        raise ValueError(f"metric {cfg.metric!r} runs through {want.__name__}, "
                         f"not {entry.__name__}")


def _detect(cfg: DetectionConfig, profile, quality) -> DetectionReport:
    """BwDppCpd's stages, each timed into timings_ms: profile() gives the
    profile and quality(candidates) their qualities and flags.  Each stage
    reads its function from its module at call time, so a wrapper set on
    the module (as perfbench/tracing.py sets them) sees the call."""
    timings = {}

    def stage(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[name] = (time.perf_counter() - t0) * 1e3
        return out

    prof = stage("profile", profile)
    cand = stage("candidates", pick_candidates, prof)
    q, flags, selected = np.empty(0), [], np.empty(0)
    if cand.times.size:
        q, flags = stage("quality", quality, cand)
        kern, part = stage("kernel", build_cpd_kernel, cand.times, q,
                           cfg.sigma, cfg.gamma, cfg.eps_zero)
        solver = lambda K: mi.greedy_map(K, cfg.require_initial_gain)
        sel_idx, _ = stage("inference", mi.blockwise_map, kern, part, solver,
                           collect_trace=False)
        selected = cand.times[sel_idx]
    return DetectionReport(config=cfg, candidates=cand, qualities=q,
                           selected=selected, degenerate_candidates=flags,
                           timings_ms=timings)


def generate_piecewise_gaussian(seed: int, segments):
    """Concatenated Gaussian segments; returns the series and true change times.

    segments: iterable of (length, mean, cov).  Scalars are promoted to 1-D;
    in D dimensions mean is a length-D vector and cov a D x D matrix (a
    scalar cov means cov * I).
    """
    segs = list(segments)
    if not segs:
        raise ValueError("need at least one segment")
    rng = np.random.default_rng(seed)
    chunks = []
    changes = []
    total = 0
    for length, mean, cov in segs:
        length = int(length)
        if length < 2:
            raise ValueError("segment lengths must be at least 2")
        mu = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        D = mu.size
        C = np.asarray(cov, dtype=np.float64)
        if C.ndim == 0:
            C = float(C) * np.eye(D)
        if C.shape != (D, D):
            raise ValueError("covariance shape does not match mean dimension")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(C))):
            raise ValueError("segment means and covariances must be finite")
        try:
            F = np.linalg.cholesky(C + 1e-12 * np.eye(D))
        except np.linalg.LinAlgError:
            raise ValueError("segment covariance is not PSD") from None
        chunks.append(mu + rng.standard_normal((length, D)) @ F.T)
        total += length
        changes.append(total)
    return np.vstack(chunks), np.asarray(changes[:-1], dtype=np.float64)


def generate_poisson_events(seed: int, segments):
    """Concatenated homogeneous Poisson segments; returns events and true changes.

    segments: iterable of (duration, rate), each positive and finite.
    """
    segs = list(segments)
    if not segs:
        raise ValueError("need at least one segment")
    rng = np.random.default_rng(seed)
    events = []
    changes = []
    offset = 0.0
    for duration, rate in segs:
        # written so that NaN fails it: a NaN or infinite duration, or a NaN
        # rate, would never end the loop below
        if not (0 < duration < np.inf and 0 < rate < np.inf):
            raise ValueError("durations and rates must be positive and finite")
        t = offset
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= offset + duration:
                break
            events.append(t)
        offset += duration
        changes.append(offset)
    return np.asarray(events), np.asarray(changes[:-1])
