"""The benchmark's workloads: seeded inputs and the operations timed on them.

Every call into blockdpp goes through a module attribute (``mi.greedy_map``,
not ``from blockdpp import greedy_map``) so that the traced run's wrappers
see it.  Each workload runs as a closed loop over a pool of inputs made from
the run's seed; the library only ever receives the generated inputs.
``MapWorkload.run`` runs full greedy only when asked (``full``): the runner
asks for it on the first ``full_inputs`` kernels of the pool.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from blockdpp import cpd_pipeline as cpd
from blockdpp import kernel_model as km
from blockdpp import map_inference as mi
from scoring import detection_counts, is_increasing_inside, is_index_set


@dataclass
class Op:
    kind: str          # "full", "bw", "fused" (traced run only) or "detect"
    label: str         # "full", "g<gamma>" or "detect"
    ms: float
    out: np.ndarray    # selected indices (MAP) or selected times (detection)
    logp: float | None = None
    info: dict = field(default_factory=dict)


# Reference loops: fixed work that never calls blockdpp, of the same kind as
# a workload's ops.  run.py divides each op's time by its workload's loop
# time measured around the visit, which cancels the host's speed swings.
# The kind matters: on a shared 2-vCPU Xeon VM, spells in which
# Python-bound code ran 1.6x faster sped numpy-vector code up by only 1.2x.

def _downdate_loop():
    """150 greedy-style Cholesky downdates of a fixed 500x500 kernel."""
    n = 500
    X = np.cos(np.outer(np.arange(n), np.arange(1, 41)) * 0.01)
    L = X @ X.T + np.eye(n)
    d = np.diag(L).copy()
    C = np.zeros((150, n))
    for k in range(150):
        j = int(np.argmax(d))
        e = (L[j] - C[:k, j] @ C[:k]) / np.sqrt(d[j])
        C[k] = e
        d -= e * e
        d[j] = -np.inf


_SMALL = np.arange(64.0)


def _small_op_loop():
    """6000 reductions of 8-element slices in a Python loop."""
    s = 0.0
    for i in range(6000):
        j = i & 63
        s += float(_SMALL[j:j + 8].sum())


def _no_op(kind, label):
    return nullcontext()


def _timed(op, kind, label, fn):
    with op(kind, label):
        t0 = time.perf_counter()
        result = fn()
        ms = (time.perf_counter() - t0) * 1e3
    return result, ms


@dataclass(frozen=True)
class MapWorkload:
    """Synthetic almost-block-diagonal kernels: full greedy vs block-wise MAP.

    A ``sparse`` kernel is scaled so that one diagonal entry in ten exceeds
    1, which makes greedy keep about N/12 items with a pick count that
    varies by only a few percent between kernels.
    """

    name: str
    n: int
    gammas: tuple
    pool: int
    full_inputs: int      # full greedy runs on this many kernels of the pool
    sparse: bool = False
    reference = staticmethod(_downdate_loop)

    def _kernel(self, seed: int, n: int) -> np.ndarray:
        spec = replace(km.SyntheticKernelSpec(), N=n, seed=seed)
        L = km.generate_synthetic_kernel(spec)[0].L
        if self.sparse:
            L = L / np.quantile(np.diagonal(L), 0.9)
        return L

    def inputs(self, seed: int):
        return [self._kernel(seed * 1000 + i, self.n) for i in range(self.pool)]

    def warm_up(self, seed: int):
        self.run(self._kernel(seed * 1000 + 999, 100))

    def run(self, L, op=_no_op, fused: bool = False, full: bool = True):
        """Full greedy (if ``full``), then the README/CLI block-wise path at
        each gamma."""
        ops = []
        if full:
            sel, ms = _timed(op, "full", "full", lambda: self._full(L))
            ops.append(Op("full", "full", ms, *sel))
        for g in self.gammas:
            (sel, logp, P), ms = _timed(op, "bw", f"g{g}", lambda: self._blockwise(L, g))
            ops.append(Op("bw", f"g{g}", ms, sel, logp))
            if fused:
                # collect_trace=False with the default sub-solver takes the
                # fused block loop that evaluation.benchmark_map times.
                sel, ms = _timed(op, "fused", f"g{g}", lambda: mi.blockwise_map(
                    L, P, mi.greedy_map, collect_trace=False)[0])
                ops.append(Op("fused", f"g{g}", ms, sel))
        return ops

    @staticmethod
    def _full(L):
        sel = mi.greedy_map(L)
        return sel, mi.log_prob_unnormalized(L, sel)

    @staticmethod
    def _blockwise(L, gamma):
        P = km.gamma_partition(L, gamma)
        sel, _ = mi.blockwise_map(L, P, mi.greedy_map)
        return sel, mi.log_prob_unnormalized(L, sel), P

    @staticmethod
    def valid(L, out) -> bool:
        """A strictly increasing index set inside the ground set."""
        return is_index_set(out, L.shape[0])


# Detection inputs: piecewise-Gaussian series and Poisson event streams.
SERIES_CFG = cpd.DetectionConfig()
SERIES_POOL = 2
SERIES_SEGMENTS = 10
SEGMENT_LEN = 250
SERIES_OFFSET = 1e5
EVENTS_CFG = cpd.DetectionConfig(window=20, sigma=200.0, metric="glr_poisson",
                                 event_step=1.0)
EVENTS_POOL = 8
EVENTS_SEGMENTS = 12
SEGMENT_DURATION = 200.0
EVENT_RATES = (1.0, 3.0, 8.0)


def _detect_op(op, detect, data, cfg):
    rep, ms = _timed(op, "detect", "detect", lambda: detect(data, cfg))
    return [Op("detect", "detect", ms, rep.selected, info=detection_counts(rep))]


class SeriesWorkload:
    """Piecewise-Gaussian series riding on a large constant level.

    The 1e5 offset, like a sensor reading, makes a dissimilarity profile
    that skips centring lose precision and fail the output check.
    """

    name = "detect_series"
    cfg = SERIES_CFG
    reference = staticmethod(_small_op_loop)

    @staticmethod
    def _series(seed: int, segments: int):
        rng = np.random.default_rng([seed, 0])
        means = rng.normal(0.0, 2.0, segments)
        variances = rng.uniform(0.5, 2.0, segments)
        X, truth = cpd.generate_piecewise_gaussian(
            seed, [(SEGMENT_LEN, m, v) for m, v in zip(means, variances)])
        return X + SERIES_OFFSET, truth

    def inputs(self, seed: int):
        return [self._series(seed * 1000 + i, SERIES_SEGMENTS)
                for i in range(SERIES_POOL)]

    def warm_up(self, seed: int):
        self.run(self._series(seed * 1000 + 999, 3))

    def run(self, item, op=_no_op):
        return _detect_op(op, cpd.detect_change_points, item[0], self.cfg)

    @staticmethod
    def valid(item, out) -> bool:
        """Selected times increase and lie inside the series."""
        return is_increasing_inside(out, 0.0, float(item[0].shape[0]))


class EventsWorkload:
    """Poisson event streams whose rate switches between 1, 3 and 8.

    Each rate covers the same number of segments, in random order, so every
    stream holds about the same number of events and the per-op work varies
    little between seeds.
    """

    name = "detect_events"
    cfg = EVENTS_CFG
    reference = staticmethod(_small_op_loop)

    @staticmethod
    def _events(seed: int, segments: int):
        rng = np.random.default_rng([seed, 0])
        rates = rng.permutation(np.resize(np.asarray(EVENT_RATES), segments))
        return cpd.generate_poisson_events(
            seed, [(SEGMENT_DURATION, float(r)) for r in rates])

    def inputs(self, seed: int):
        return [self._events(seed * 1000 + i, EVENTS_SEGMENTS)
                for i in range(EVENTS_POOL)]

    def warm_up(self, seed: int):
        self.run(self._events(seed * 1000 + 999, 3))

    def run(self, item, op=_no_op):
        return _detect_op(op, cpd.detect_change_points_events, item[0], self.cfg)

    @staticmethod
    def valid(item, out) -> bool:
        """Selected times increase and lie before the last event."""
        return is_increasing_inside(out, 0.0, float(item[0][-1]))


WORKLOADS = {
    wl.name: wl for wl in (
        MapWorkload("map_dense", n=500, gammas=(0, 2, 4, 6), pool=12, full_inputs=4),
        MapWorkload("map_sparse", n=2000, gammas=(0, 6), pool=4, full_inputs=1,
                    sparse=True),
        SeriesWorkload(),
        EventsWorkload(),
    )
}
