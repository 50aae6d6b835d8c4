"""Scoring detections against ground truth and benchmarking block-wise MAP
against full-kernel greedy inference."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from . import cpd_pipeline as cpd
from . import kernel_model as km
from . import map_inference as mi

# benchmark_map's defaults, which the CLI's bench flags share
BENCH_GAMMAS = (0, 2, 4, 6)
BENCH_REPEATS = 3


@dataclass
class MatchResult:
    pairs: List[Tuple[float, float]]        # (detected, truth)
    unmatched_detected: List[float]
    unmatched_truth: List[float]
    tolerance: float

    @property
    def cfc(self) -> int:
        return len(self.pairs)


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    roc: List[Tuple[float, float, float]] = field(default_factory=list)  # (sigma, fpr, tpr)

    def to_json_dict(self) -> dict:
        d = {"precision": self.precision, "recall": self.recall, "f1": self.f1}
        if self.roc:
            d["roc"] = [{"sigma": s, "fpr": f, "tpr": t} for s, f, t in self.roc]
        return d


def match_changes(detected, truth, tolerance: float) -> MatchResult:
    """Greedy one-to-one matching by increasing |detected - truth| distance.

    Distance ties break to the earlier truth time; only pairs within the
    tolerance count.
    """
    det = np.asarray(detected, dtype=np.float64).ravel()
    tru = np.asarray(truth, dtype=np.float64).ravel()
    cands = sorted(
        ((abs(d - t), t, i, j) for i, d in enumerate(det)
         for j, t in enumerate(tru) if abs(d - t) <= tolerance),
        key=lambda x: (x[0], x[1]),
    )
    used_d, used_t = set(), set()   # indices, so repeated values count apart
    pairs = []
    for _, _, i, j in cands:
        if i in used_d or j in used_t:
            continue
        used_d.add(i)
        used_t.add(j)
        pairs.append((float(det[i]), float(tru[j])))
    return MatchResult(
        pairs=pairs,
        unmatched_detected=[float(d) for i, d in enumerate(det) if i not in used_d],
        unmatched_truth=[float(t) for j, t in enumerate(tru) if j not in used_t],
        tolerance=float(tolerance),
    )


def precision_recall_f1(m: MatchResult) -> EvalReport:
    """PRC = CFC/DET, RCL = CFC/GT, F1 their harmonic mean.

    Zero-denominator conventions: no detections with truths present scores
    0 everywhere; no detections and no truths scores 1 everywhere; truths
    absent but detections present scores recall 1, precision 0.
    """
    det = m.cfc + len(m.unmatched_detected)
    gt = m.cfc + len(m.unmatched_truth)
    if det == 0 and gt == 0:
        return EvalReport(1.0, 1.0, 1.0)
    prc = m.cfc / det if det else 0.0
    rcl = m.cfc / gt if gt else 1.0
    f1 = 2 * prc * rcl / (prc + rcl) if prc + rcl > 0 else 0.0
    return EvalReport(prc, rcl, f1)


def roc_sweep(X, truth, cfg: cpd.DetectionConfig, sigma_grid,
              tolerance: float | None = None):
    """cpd.detector(cfg.metric) per sigma; (sigma, FPR=1-PRC, TPR=RCL) points."""
    grid = sorted(float(s) for s in sigma_grid)
    if not grid or grid[0] <= 0:
        raise ValueError("sigma grid must be nonempty and positive")
    tol = cfg.window if tolerance is None else tolerance
    detect = cpd.detector(cfg.metric)
    points = []
    for s in grid:
        rep = detect(X, replace(cfg, sigma=s))
        score = precision_recall_f1(match_changes(rep.selected, truth, tol))
        points.append((s, 1.0 - score.precision, score.recall))
    return points


@dataclass
class GammaAggregate:
    gamma: int
    n_kernels: int
    mean_log_prob_ratio: float
    log_prob_ratio_halfwidth: float
    mean_time_ratio: float
    time_ratio_halfwidth: float
    mean_blocks: float


@dataclass
class MapBenchReport:
    spec: km.SyntheticKernelSpec
    n_kernels: int
    per_gamma: List[GammaAggregate]

    def to_json_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "n_kernels": self.n_kernels,
            "per_gamma": [asdict(g) for g in self.per_gamma],
        }


def _timed_median(fn, repeats: int):
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, float(np.median(times))


def benchmark_map(spec: km.SyntheticKernelSpec, n_kernels: int,
                  gamma_list: Sequence[int] = BENCH_GAMMAS,
                  repeats: int = BENCH_REPEATS) -> MapBenchReport:
    """Block-wise MAP vs full-kernel greedy over random kernels.

    Per kernel the baseline is greedy on the unpartitioned kernel
    (log-probability p_ref, median-of-repeats wall time t_ref); each gamma
    then gets its gamma-partition run.  Aggregates carry 3-standard-error
    half-widths (99.7% under a normal approximation).
    """
    if n_kernels < 1:
        raise ValueError("need at least one kernel")
    logr = {g: [] for g in gamma_list}
    timer = {g: [] for g in gamma_list}
    blocks = {g: [] for g in gamma_list}
    for k in range(n_kernels):
        kern, _ = km.generate_synthetic_kernel(replace(spec, seed=spec.seed + k))
        base_sel, t_ref = _timed_median(lambda: mi.greedy_map(kern.L), repeats)
        p_ref = mi.log_prob_unnormalized(kern.L, base_sel)
        for g in gamma_list:
            part = km.gamma_partition(kern.L, g)
            sel, t = _timed_median(lambda: mi.blockwise_map(
                kern.L, part, collect_trace=False)[0], repeats)
            p = mi.log_prob_unnormalized(kern.L, sel)
            logr[g].append(p - p_ref)
            timer[g].append(t / t_ref if t_ref > 0 else np.nan)
            blocks[g].append(part.m)

    def agg(xs):
        a = np.asarray(xs, dtype=np.float64)
        half = 3.0 * a.std(ddof=1) / np.sqrt(a.size) if a.size > 1 else 0.0
        return float(a.mean()), float(half)

    per_gamma = []
    for g in gamma_list:
        mlr, hlr = agg(logr[g])
        mtr, htr = agg(timer[g])
        per_gamma.append(GammaAggregate(
            gamma=int(g), n_kernels=n_kernels,
            mean_log_prob_ratio=mlr, log_prob_ratio_halfwidth=hlr,
            mean_time_ratio=mtr, time_ratio_halfwidth=htr,
            mean_blocks=float(np.mean(blocks[g])),
        ))
    return MapBenchReport(spec=spec, n_kernels=n_kernels, per_gamma=per_gamma)
