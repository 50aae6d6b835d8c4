#!/usr/bin/env python3
"""Scale sweep: block-wise MAP against full greedy, and detection by stage.

    python3 tools/bench_scale.py --label change [--src src] [-o BENCH_scale.json]

Imports blockdpp from --src (default: the checkout's src/), so the same
script measures any commit's tree.

MAP half (``rows``).  For N = 500, 2000 and 5000 it draws one
synthetic kernel (seed 5000), as generated ("default", greedy keeps nearly
every item) and divided by its 90th-percentile diagonal ("scaled", greedy
keeps about N/12, as in the benchmark's map_sparse workload).  On each it
times, as medians of REPEATS runs:

- ``checked``: the calls a user makes on a raw array, validation included:
  ``greedy_map(L)`` against ``gamma_partition(L, g)`` plus
  ``blockwise_map(L, P, collect_trace=False)``;
- ``inference``: the same two inference calls on a ``kernel_model.DppKernel``
  built once, before the timed calls, with the partition made beforehand,
  so neither side pays for validation.

The ratio of each pair is block-wise over full, at g = 0 and 6.
``logprob_ms`` is the median time of ``log_prob_unnormalized(L, sel)`` on the
g = 0 block-wise selection, validation included, as the ``checked`` calls are.

Detection half (``detect_rows``).  For T = 2000, 20000 and 200000 at D = 1
and 8, a piecewise-Gaussian series of DETECT_SEGMENT-long segments (seed
DETECT_SEED: mean coordinates N(0, 2), covariances U(0.5, 2) * I) goes
through ``detect_change_points`` with ``DetectionConfig(metric="glr_gaussian")``;
for T = EVENTS_T, a Poisson event stream of EVENTS_SEGMENT-long segments
whose rates cycle through EVENTS_RATES in a seeded order (6644
candidates, whose dense n x n kernel would take 0.35 GB) goes through
``detect_change_points_events`` with EVENTS_CFG.  Each point runs REPEATS
times, in one fresh child process per point.  Each row records the
median of each stage's ``timings_ms`` and of the whole call, the candidate
count, the picks (their count, a digest of the selected times, and F1 at
the window's tolerance) and the child's peak RSS.

The entry, keyed by --label, replaces any earlier entry of that label in the
output file; it records the environment and the git SHA of the --src tree
(``src_modified`` is true when that tree differs from its HEAD), and
``src_lines``, the ``wc -l`` total of that tree's ``blockdpp/*.py``.  Uses only
the standard library and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (500, 2000, 5000)
GAMMAS = (0, 6)
REPEATS = 5
SEED = 5000
DETECT_SEGMENT = 250
DETECT_SEED = 1
EVENTS_T = 64000
DETECT_POINTS = tuple(("series", T, D) for T in (2000, 20000, 200000)
                      for D in (1, 8)) + (("events", EVENTS_T, 1),)
EVENTS_SEGMENT = 200.0
EVENTS_RATES = (1.0, 3.0, 8.0)
EVENTS_CFG = dict(window=20, sigma=200.0, metric="glr_poisson")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def median_ms(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), out


def git(src: Path, *args):
    try:
        out = subprocess.run(["git", *args], cwd=src, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(src: Path) -> dict:
    import numpy as np
    status = git(src, "status", "--porcelain", "--", ".")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": git(src, "rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "src_lines": sum(p.read_bytes().count(b"\n")
                         for p in (src / "blockdpp").glob("*.py")),
    }


def sweep() -> list:
    import numpy as np
    from blockdpp import kernel_model as km
    from blockdpp import map_inference as mi

    # first calls into numpy and LAPACK pay one-off costs: not timed
    warm = km.generate_synthetic_kernel(replace(km.SyntheticKernelSpec(), N=100))[0].L
    mi.greedy_map(warm)
    mi.blockwise_map(warm, km.gamma_partition(warm, 0), collect_trace=False)

    rows = []
    for n in SIZES:
        base = km.generate_synthetic_kernel(
            replace(km.SyntheticKernelSpec(), N=n, seed=SEED))[0].L
        for kind in ("default", "scaled"):
            L = base if kind == "default" else base / np.quantile(np.diagonal(base), 0.9)
            parts = {g: km.gamma_partition(L, g) for g in GAMMAS}
            row = {"N": n, "kernel": kind}
            kern = km.DppKernel(L)
            for mode in ("checked", "inference"):
                K = L if mode == "checked" else kern
                full_ms, sel = median_ms(lambda: mi.greedy_map(K))
                row["picks"] = int(sel.size)
                row[f"full_{mode}_ms"] = full_ms
                for g in GAMMAS:
                    if mode == "checked":
                        fn = lambda: mi.blockwise_map(
                            L, km.gamma_partition(L, g), collect_trace=False)
                    else:
                        fn = lambda: mi.blockwise_map(kern, parts[g],
                                                      collect_trace=False)
                    bw_ms, (bw_sel, _) = median_ms(fn)
                    row[f"g{g}_{mode}_ms"] = bw_ms
                    row[f"g{g}_{mode}_ratio"] = bw_ms / full_ms
                    if mode == "checked" and g == 0:
                        row["logprob_ms"], _ = median_ms(
                            lambda: mi.log_prob_unnormalized(L, bw_sel))
            row["blocks"] = {f"g{g}": parts[g].m for g in GAMMAS}
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)
    return rows


def peak_rss_mb() -> float:
    """VmHWM, this process's peak resident set (Linux).  ru_maxrss would also
    count the parent a child is forked from before it executes."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def detect_input(kind: str, T: int, D: int):
    """The data, true changes, config and detector of one detection point."""
    import numpy as np
    from blockdpp import cpd_pipeline as cpd

    rng = np.random.default_rng(DETECT_SEED)
    if kind == "events":
        k = int(T // EVENTS_SEGMENT)
        rates = rng.permutation(np.resize(np.asarray(EVENTS_RATES), k))
        E, truth = cpd.generate_poisson_events(
            DETECT_SEED, [(EVENTS_SEGMENT, float(r)) for r in rates])
        return (E, truth, cpd.DetectionConfig(**EVENTS_CFG),
                cpd.detect_change_points_events)
    k = T // DETECT_SEGMENT
    means = rng.normal(0.0, 2.0, (k, D))
    variances = rng.uniform(0.5, 2.0, k)
    X, truth = cpd.generate_piecewise_gaussian(
        DETECT_SEED, [(DETECT_SEGMENT, m, v) for m, v in zip(means, variances)])
    return X, truth, cpd.DetectionConfig(metric="glr_gaussian"), cpd.detect_change_points


def detect_point(src: str, kind: str, T: int, D: int) -> dict:
    """One detection point; run it in a fresh process, whose peak RSS it reports."""
    sys.path.insert(0, src)
    import numpy as np
    from blockdpp import evaluation as ev

    X, truth, cfg, detect = detect_input(kind, T, D)
    warm = X[X < 4 * EVENTS_SEGMENT] if kind == "events" else X[:2 * DETECT_SEGMENT]
    detect(warm, cfg)   # not timed: warm-up
    stages, totals = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        rep = detect(X, cfg)
        totals.append((time.perf_counter() - t0) * 1e3)
        stages.append(rep.timings_ms)
    score = ev.precision_recall_f1(ev.match_changes(rep.selected, truth, cfg.window))
    return {
        "kind": kind, "T": T, "D": D,
        "candidates": int(rep.candidates.times.size),
        "picks": int(rep.selected.size),
        "selected_sha256": hashlib.sha256(
            np.asarray(rep.selected, dtype=np.float64).tobytes()).hexdigest(),
        "f1": score.f1,
        "total_ms": statistics.median(totals),
        "timings_ms": {s: statistics.median(t[s] for t in stages) for s in stages[0]},
        "peak_rss_mb": peak_rss_mb(),
    }


def detect_sweep(src: Path) -> list:
    rows = []
    for kind, T, D in DETECT_POINTS:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            row = pool.apply(detect_point, (str(src), kind, T, D))
        print(json.dumps(row), file=sys.stderr)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("-o", "--output", type=Path, default=ROOT / "BENCH_scale.json")
    a = p.parse_args(argv)
    src = a.src.resolve()
    if not (src / "blockdpp").is_dir():
        p.error(f"no blockdpp package under {a.src}")
    sys.path.insert(0, str(src))
    entry = {"label": a.label, "repeats": REPEATS,
             "environment": environment(src), "rows": sweep(),
             "detect_rows": detect_sweep(src)}
    doc = json.loads(a.output.read_text()) if a.output.exists() else {"entries": []}
    doc["entries"] = [e for e in doc["entries"] if e["label"] != a.label] + [entry]
    a.output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
