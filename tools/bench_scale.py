#!/usr/bin/env python3
"""Scale sweep for block-wise MAP: the block-wise / full-greedy time ratio.

    python3 tools/bench_scale.py --label change [--src src] [-o BENCH_scale.json]

Imports blockdpp from --src (default: the checkout's src/), so the same
script measures any commit's tree.  For N = 500, 2000 and 5000 it draws one
synthetic kernel (seed 5000), as generated ("default", greedy keeps nearly
every item) and divided by its 90th-percentile diagonal ("scaled", greedy
keeps about N/12, as in the benchmark's map_sparse workload).  On each it
times, as medians of REPEATS runs:

- ``checked``: the calls a user makes on a raw array, validation included:
  ``greedy_map(L)`` against ``gamma_partition(L, g)`` plus
  ``blockwise_map(L, P, collect_trace=False)``;
- ``inference``: the same two inference calls with the partition made
  beforehand and ``matrix_core.as_matrix`` swapped for a plain float64
  conversion, so neither side pays for validation.

The ratio of each pair is block-wise over full, at g = 0 and 6.  The
entry, keyed by --label, replaces any earlier entry of that label in the
output file; it records the environment and the git SHA of the --src tree
(``src_modified`` is true when that tree differs from its HEAD).  Uses only
the standard library and numpy.
"""

from __future__ import annotations

import argparse
import json
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
    }


def sweep() -> list:
    import numpy as np
    from blockdpp import kernel_model as km
    from blockdpp import map_inference as mi
    from blockdpp import matrix_core as mc

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
            for mode in ("checked", "inference"):
                check = mc.as_matrix
                if mode == "inference":
                    mc.as_matrix = lambda M: np.asarray(M, dtype=np.float64)
                try:
                    full_ms, sel = median_ms(lambda: mi.greedy_map(L))
                    row["picks"] = int(sel.size)
                    row[f"full_{mode}_ms"] = full_ms
                    for g in GAMMAS:
                        if mode == "checked":
                            fn = lambda: mi.blockwise_map(
                                L, km.gamma_partition(L, g), collect_trace=False)
                        else:
                            fn = lambda: mi.blockwise_map(L, parts[g],
                                                          collect_trace=False)
                        bw_ms, _ = median_ms(fn)
                        row[f"g{g}_{mode}_ms"] = bw_ms
                        row[f"g{g}_{mode}_ratio"] = bw_ms / full_ms
                finally:
                    mc.as_matrix = check
            row["blocks"] = {f"g{g}": parts[g].m for g in GAMMAS}
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
             "environment": environment(src), "rows": sweep()}
    doc = json.loads(a.output.read_text()) if a.output.exists() else {"entries": []}
    doc["entries"] = [e for e in doc["entries"] if e["label"] != a.label] + [entry]
    a.output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
