"""Span recorder that wraps blockdpp's public functions from outside.

``instrumented(tracer)`` replaces module attributes of ``matrix_core``,
``kernel_model``, ``map_inference``, ``cpd_metrics`` and ``cpd_pipeline``
with timing wrappers and restores them on exit.  The library calls these
functions through module attributes (``mc.as_matrix``, ``metrics.symkl``,
...), so the wrappers see internal calls too.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from blockdpp import cpd_metrics, cpd_pipeline, kernel_model, map_inference, matrix_core
from scoring import detection_counts, median

BLOCKWISE = "map_inference.blockwise_map"
DETECT = "cpd_pipeline.detect"


class Tracer:
    """Spans (op, id, parent, name, start_ns, end_ns) plus per-op counters."""

    def __init__(self):
        self.spans = []
        self.ops = []            # (op id, kind, label, visit)
        self.counts = []         # per op: {counter: value}
        self.visit = -1          # set by the caller before each input
        self._stack = []
        self._next = 0

    @contextmanager
    def op(self, kind: str, label: str):
        self.ops.append((len(self.ops), kind, label, self.visit))
        self.counts.append(defaultdict(float))
        with self.span("op." + kind):
            yield

    def begin(self, name: str):
        self._stack.append((self._next, name, time.perf_counter_ns()))
        self._next += 1

    def end(self):
        t1 = time.perf_counter_ns()
        sid, name, t0 = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((len(self.ops) - 1, sid, parent, name, t0, t1))

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def add(self, key: str, value: float = 1.0):
        self.counts[-1][key] += value

    def high(self, key: str, value: float):
        c = self.counts[-1]
        c[key] = max(c.get(key, value), value)

    def write(self, path, header: dict):
        """One JSON header line, one line per op, then one line per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for (op_id, kind, label, visit), counts in zip(self.ops, self.counts):
                fh.write(json.dumps({"op": op_id, "kind": kind, "label": label,
                                     "visit": visit, "counts": dict(counts)}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---- what each wrapper records beyond its span ---------------------------

def _psd_repair(tr, args, out):
    A = np.asarray(args[0], dtype=np.float64)
    shift = float(out[0, 0] - A[0, 0]) if A.size else 0.0
    if shift > 0.0:
        tr.add("psd_repair.clamps")
        tr.high("psd_repair.max_shift", shift)


def _partition(tr, args, out):
    tr.add("partitions")
    tr.add("blocks", out.m)
    tr.add("block_size_mean", out.n / out.m)
    tr.high("block_size_max", max(out.block_sizes))


def _blockwise(tr, args, out):
    picks = [b.selected.size for b in out[1].blocks]
    if picks:
        tr.add("blockwise_runs")
        tr.add("empty_blocks", sum(p == 0 for p in picks))
        tr.high("picks_per_block_max", max(picks))


def _full_greedy(tr, args, out):
    if tr.parent_name() != BLOCKWISE:
        tr.add("picks", out.size)
        tr.add("ground", np.shape(args[0])[0])


def _profile(tr, args, out):
    tr.add("profile.points", out.times.size)


def _detection(tr, args, out):
    for key, value in detection_counts(out).items():
        tr.add(key, value)


def _greedy_name(tr):
    if tr.parent_name() == BLOCKWISE:
        return "map_inference.block_greedy"
    return "map_inference.greedy_map"


# (module, attribute, span name or callable(tracer) -> name, recorder)
WRAPPED = [
    (matrix_core, "as_matrix", "matrix_core.as_matrix", None),
    (matrix_core, "psd_repair", "matrix_core.psd_repair", _psd_repair),
    (matrix_core, "inverse_spd", "matrix_core.inverse_spd", None),
    (matrix_core, "log_det", "matrix_core.log_det", None),
    (kernel_model, "gamma_partition", "kernel_model.gamma_partition", _partition),
    (kernel_model, "gaussian_position_similarity",
     "kernel_model.gaussian_position_similarity", None),
    (kernel_model, "build_quality_diversity_kernel",
     "kernel_model.build_quality_diversity_kernel", None),
    (kernel_model, "generate_synthetic_kernel",
     "kernel_model.generate_synthetic_kernel", None),
    (map_inference, "greedy_map", _greedy_name, _full_greedy),
    (map_inference, "blockwise_map", BLOCKWISE, _blockwise),
    (map_inference, "log_prob_unnormalized", "map_inference.log_prob", None),
    (cpd_metrics, "dissimilarity_profile", "cpd_metrics.profile", _profile),
    (cpd_metrics, "poisson_profile", "cpd_metrics.profile", _profile),
    (cpd_metrics, "segment_stats", "cpd_metrics.segment_stats", None),
    (cpd_metrics, "symkl", "cpd_metrics.symkl", None),
    (cpd_metrics, "glr_poisson", "cpd_metrics.glr_poisson", None),
    (cpd_pipeline, "pick_candidates", "cpd_pipeline.pick_candidates", None),
    (cpd_pipeline, "candidate_quality", "cpd_pipeline.quality", None),
    (cpd_pipeline, "build_cpd_kernel", "cpd_pipeline.build_cpd_kernel", None),
    (cpd_pipeline, "detect_change_points", DETECT, _detection),
    (cpd_pipeline, "detect_change_points_events", DETECT, _detection),
]


def _wrap(tr, fn, name, record):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.begin(name(tr) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.end()
        if record is not None:
            record(tr, args, out)
        return out
    return wrapper


@contextmanager
def instrumented(tr: Tracer):
    """Route the wrapped functions through tr for the duration of the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
    try:
        for (mod, attr, name, record), (_, _, fn) in zip(WRAPPED, saved):
            setattr(mod, attr, _wrap(tr, fn, name, record))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# ---- per-layer metrics ---------------------------------------------------

USER_KINDS = ("full", "bw", "detect")

# name -> (unit, better); every workload reports every name, 0 where unused
PER_LAYER = {
    "matrix_core.as_matrix.calls": ("count", "lower"),
    "matrix_core.as_matrix.ms": ("ms", "lower"),
    "matrix_core.psd_repair.calls": ("count", "lower"),
    "matrix_core.psd_repair.ms": ("ms", "lower"),
    "matrix_core.psd_repair.clamps": ("count", "lower"),
    "matrix_core.psd_repair.max_shift": ("value", "lower"),
    "matrix_core.inverse_spd.calls": ("count", "lower"),
    "matrix_core.inverse_spd.ms": ("ms", "lower"),
    "matrix_core.log_det.calls": ("count", "lower"),
    "matrix_core.log_det.ms": ("ms", "lower"),
    "kernel_model.gamma_partition.ms": ("ms", "lower"),
    "kernel_model.blocks": ("count", "higher"),
    "kernel_model.block_size_max": ("items", "lower"),
    "kernel_model.block_size_mean": ("items", "lower"),
    "kernel_model.gaussian_position_similarity.ms": ("ms", "lower"),
    "kernel_model.build_quality_diversity_kernel.ms": ("ms", "lower"),
    "kernel_model.generate_synthetic_kernel.ms": ("ms", "lower"),
    "map_inference.greedy_map.ms": ("ms", "lower"),
    "map_inference.picks": ("count", "higher"),
    "map_inference.picks_frac": ("frac", "higher"),
    "map_inference.blockwise_map.ms": ("ms", "lower"),
    "map_inference.block_greedy.ms": ("ms", "lower"),
    "map_inference.block_self.ms": ("ms", "lower"),
    "map_inference.picks_per_block_max": ("count", "lower"),
    "map_inference.empty_blocks": ("count", "lower"),
    "map_inference.log_prob.ms": ("ms", "lower"),
    "map_inference.blockwise_fused.ms": ("ms", "lower"),
    "map_inference.time_ratio.g0": ("ratio", "lower"),
    "map_inference.time_ratio.g6": ("ratio", "lower"),
    "cpd_metrics.profile.ms": ("ms", "lower"),
    "cpd_metrics.profile.points": ("count", "higher"),
    "cpd_metrics.profile_share": ("frac", "lower"),
    "cpd_metrics.segment_stats.calls": ("count", "lower"),
    "cpd_metrics.segment_stats.ms": ("ms", "lower"),
    "cpd_metrics.symkl.calls": ("count", "lower"),
    "cpd_metrics.symkl.ms": ("ms", "lower"),
    "cpd_metrics.glr_poisson.calls": ("count", "lower"),
    "cpd_metrics.glr_poisson.ms": ("ms", "lower"),
    "cpd_pipeline.pick_candidates.ms": ("ms", "lower"),
    "cpd_pipeline.quality.ms": ("ms", "lower"),
    "cpd_pipeline.build_cpd_kernel.ms": ("ms", "lower"),
    "cpd_pipeline.inference.ms": ("ms", "lower"),
    "cpd_pipeline.candidates": ("count", "higher"),
    "cpd_pipeline.candidates_q_gt1": ("count", "higher"),
    "cpd_pipeline.degenerate_candidates": ("count", "lower"),
    "cpd_pipeline.selected": ("count", "higher"),
    "cpd_pipeline.selected_frac": ("frac", "higher"),
    "bench.trace_overhead": ("frac", "lower"),
    "bench.traced_inputs": ("count", "higher"),
}


def per_layer(tr: Tracer, n_inputs: int, overhead) -> dict:
    """Per-layer metrics from the spans and counters of the traced ops.

    Times and call counts are totals per traced input over the user-path
    ops; a span's self time is its duration minus its direct children's.
    ``generate_synthetic_kernel.ms`` is the total of one traced set-up.
    ``overhead`` holds (untraced ms, traced ms) per traced input.
    """
    kind = {op_id: k for op_id, k, _, _ in tr.ops}
    label = {op_id: lab for op_id, _, lab, _ in tr.ops}
    visit = {op_id: v for op_id, _, _, v in tr.ops}
    name_of = {s[1]: s[3] for s in tr.spans}
    child_ns = defaultdict(int)
    for s in tr.spans:
        child_ns[s[2]] += s[5] - s[4]

    total = defaultdict(float)     # name -> ms over user ops
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    under_detect = defaultdict(float)
    detects = defaultdict(lambda: [0.0, 0.0, False])  # self ms, glr ms, has quality
    gen_ms = 0.0
    full_ms, fused_ms = {}, {}
    for op_id, sid, parent, name, t0, t1 in tr.spans:
        ms = (t1 - t0) / 1e6
        if name == "kernel_model.generate_synthetic_kernel":
            gen_ms += ms
        k = kind[op_id]
        if k == "fused" and name == "op.fused":
            fused_ms[(visit[op_id], label[op_id])] = ms
        if k not in USER_KINDS:
            continue
        total[name] += ms
        calls[name] += 1
        self_ms[name] += ms - child_ns[sid] / 1e6
        if name == DETECT:
            detects[sid][0] = ms - child_ns[sid] / 1e6
        if name_of.get(parent) == DETECT:
            under_detect[name] += ms
            if name == "cpd_metrics.glr_poisson":
                detects[parent][1] += ms
            elif name == "cpd_pipeline.quality":
                detects[parent][2] = True
        if name == "map_inference.greedy_map":
            full_ms[visit[op_id]] = ms

    counts = defaultdict(float)
    highs = defaultdict(float)
    for op_id, c in enumerate(tr.counts):
        if kind[op_id] in USER_KINDS:
            for key, v in c.items():
                if key in ("psd_repair.max_shift", "block_size_max", "picks_per_block_max"):
                    highs[key] = max(highs[key], v)
                else:
                    counts[key] += v

    def per_input(x):
        return x / n_inputs if n_inputs else 0.0

    # Event detection reaches quality through the private _event_quality:
    # its time is the detect span's self time plus its direct glr_poisson calls.
    quality = total["cpd_pipeline.quality"] + sum(
        own + glr for own, glr, has_quality in detects.values() if not has_quality)
    detect_ms = total[DETECT]
    partitions = counts["partitions"] or 1
    runs = counts["blockwise_runs"] or 1
    m = {
        "matrix_core.psd_repair.clamps": per_input(counts["psd_repair.clamps"]),
        "matrix_core.psd_repair.max_shift": highs["psd_repair.max_shift"],
        "kernel_model.blocks": counts["blocks"] / partitions,
        "kernel_model.block_size_max": highs["block_size_max"],
        "kernel_model.block_size_mean": counts["block_size_mean"] / partitions,
        "kernel_model.generate_synthetic_kernel.ms": gen_ms,
        "map_inference.picks": per_input(counts["picks"]),
        "map_inference.picks_frac": (counts["picks"] / counts["ground"]
                                     if counts["ground"] else 0.0),
        "map_inference.block_self.ms": per_input(self_ms[BLOCKWISE]),
        "map_inference.picks_per_block_max": highs["picks_per_block_max"],
        "map_inference.empty_blocks": counts["empty_blocks"] / runs,
        "map_inference.blockwise_fused.ms": per_input(sum(fused_ms.values())),
        "cpd_metrics.profile.points": per_input(counts["profile.points"]),
        "cpd_metrics.profile_share": (total["cpd_metrics.profile"] / detect_ms
                                      if detect_ms else 0.0),
        "cpd_pipeline.quality.ms": per_input(quality),
        "cpd_pipeline.inference.ms": per_input(under_detect[BLOCKWISE]),
        "cpd_pipeline.candidates": per_input(counts["candidates"]),
        "cpd_pipeline.candidates_q_gt1": per_input(counts["candidates_q_gt1"]),
        "cpd_pipeline.degenerate_candidates": per_input(counts["degenerate_candidates"]),
        "cpd_pipeline.selected": per_input(counts["selected"]),
        "cpd_pipeline.selected_frac": (counts["selected"] / counts["candidates"]
                                       if counts["candidates"] else 0.0),
        "bench.trace_overhead": (median([t for _, t in overhead])
                                 / median([u for u, _ in overhead]) - 1.0
                                 if overhead else 0.0),
        "bench.traced_inputs": n_inputs,
    }
    for g in (0, 6):
        ratios = [ms / full_ms[v] for (v, lab), ms in fused_ms.items()
                  if lab == f"g{g}" and full_ms.get(v)]
        m[f"map_inference.time_ratio.g{g}"] = median(ratios) or 0.0
    for name in PER_LAYER:
        if name in m:
            continue
        span, _, field = name.rpartition(".")
        m[name] = per_input(calls[span] if field == "calls" else total[span])
    return {name: {"value": m[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
