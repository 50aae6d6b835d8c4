"""Scoring and summary helpers for the benchmark.

Nothing here imports blockdpp: detection scoring uses the benchmark's own
matcher so that a change to ``blockdpp.evaluation`` cannot move a metric.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np


def match_count(detected, truth, tolerance: float) -> int:
    """Number of one-to-one (detection, truth) pairs within the tolerance.

    Pairs are taken greedily by increasing distance, ties to the earlier
    truth, then the earlier detection.  Bookkeeping is by index, so two
    detections at the same time can never both match one truth.
    """
    det = [float(d) for d in detected]
    tru = [float(t) for t in truth]
    cands = sorted(
        (abs(d - t), j, i)
        for i, d in enumerate(det) for j, t in enumerate(tru)
        if abs(d - t) <= tolerance
    )
    used_d, used_t = set(), set()
    for _, j, i in cands:
        if i not in used_d and j not in used_t:
            used_d.add(i)
            used_t.add(j)
    return len(used_d)


def precision_recall_f1(detected, truth, tolerance: float):
    """(precision, recall, F1) with the library's zero-denominator conventions."""
    n_det, n_tru = len(detected), len(truth)
    if n_det == 0 and n_tru == 0:
        return 1.0, 1.0, 1.0
    hits = match_count(detected, truth, tolerance)
    prc = hits / n_det if n_det else 0.0
    rcl = hits / n_tru if n_tru else 1.0
    f1 = 2 * prc * rcl / (prc + rcl) if prc + rcl > 0 else 0.0
    return prc, rcl, f1


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    Returns (None, None) with fewer than 11 samples.
    """
    v = sorted(values)
    if len(v) < 11:
        return None, None
    k = len(v) - 11
    return 100.0 * (k + 1) / len(v), v[k]


def median(values):
    return statistics.median(values) if values else None


def index_digest(idx) -> str:
    """Stable fingerprint of an index set (sha1 of little-endian int64)."""
    a = np.ascontiguousarray(np.asarray(idx, dtype="<i8"))
    return hashlib.sha1(a.tobytes()).hexdigest()


def digest(op) -> list:
    """What the reference file stores for one op: the selected times of a
    detection, or (size, fingerprint, log-probability) of a MAP selection."""
    if op.kind == "detect":
        return [float(t) for t in op.out]
    return [int(op.out.size), index_digest(op.out), op.logp]


def is_increasing_inside(values, lo: float, hi: float) -> bool:
    """True iff values is a 1-D strictly increasing array inside [lo, hi]."""
    a = np.asarray(values)
    if a.ndim != 1:
        return False
    return a.size == 0 or bool(np.all(np.diff(a) > 0) and a[0] >= lo and a[-1] <= hi)


def is_index_set(idx, n: int) -> bool:
    """True iff idx is a strictly increasing integer array inside [0, n)."""
    a = np.asarray(idx)
    if a.size and a.dtype.kind not in "iu":
        return False
    return is_increasing_inside(a, 0, n - 1)


def detection_counts(report) -> dict:
    """Candidate and selection counts of one DetectionReport."""
    return {
        "candidates": int(report.candidates.times.size),
        "candidates_q_gt1": int(np.sum(np.asarray(report.qualities) > 1.0)),
        "degenerate_candidates": len(report.degenerate_candidates),
        "selected": int(report.selected.size),
    }
