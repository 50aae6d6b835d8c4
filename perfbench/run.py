#!/usr/bin/env python3
"""blockdpp benchmark: seeded MAP and change-point workloads.

    python3 perfbench/run.py --workload map_dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.  One
run sets up three times (a fresh interpreter importing blockdpp, the pool of
seeded inputs, a warm-up op on a small input; ``setup_s`` is the median),
then loops over the pool for --seconds seconds, each op starting when the
previous one ends, and checks every output against the workload's validity
rule, the stored reference of its input set (``refs/``, made by
``make_refs.py``) and its earlier visits.  References are stored for
REF_SEEDS input sets; ``--seed n`` runs input set ``n % REF_SEEDS``, so
every seed is checked.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json, measured untraced:
``pass_rel``, ``setup_s`` and ``peak_rss_mb``.  An op is a detection call,
a block-wise MAP of one kernel at one gamma as the README runs it, or full
greedy on the first ``full_inputs`` kernels.  ``pass_rel`` is one pass over
the pool in units of the workload's fixed reference loop (``reference`` in
``workloads.py``): for every (input, op), the median over its visits of the
op's time divided by the reference loop's time measured around that visit,
summed.  On a shared host the same code runs up to twice as slow for
stretches as long as a run; a reference loop doing the same kind of work
slows with it, so the ratio cancels most of that.  The raw sum of per-op
median times, ``pass_ms``, is in the report.  With ``--trace 1`` each input
is run once untraced and once through the span wrappers of ``tracing.py``;
the metrics are the per-layer ones, the spans go to ``perfbench/out/``, and
traced selections must equal untraced ones.  The line before the last is a
JSON report: medians, sample counts and tails (``map_full_ms``,
``map_blockwise_ms``, ``detect_ms``, ``detect_tail_ms``),
``map_logprob_gap`` and ``detect_f1`` with per-input scores and candidate
counts; then ``failed_frac``, ``peak_rss_mb`` and the environment.

Per-layer ``.ms`` and ``.calls`` values are totals per input (a kernel, with
its full and block-wise ops, or one detection input), summed over the
user-path ops only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
LOGP_RTOL = 1e-9
REF_SEEDS = 100            # input sets 0..REF_SEEDS-1 have stored references
WORKLOAD_NAMES = ("map_dense", "map_sparse", "detect_series", "detect_events")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return a


def single_thread_blas() -> int:
    """Pin BLAS to one thread; must run before numpy is imported.

    Spinning BLAS threads make timings swing when anything else uses the
    cores, and one thread keeps floating-point results, and so the stored
    references, independent of the core count.  Returns nproc.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_blockdpp(src: Path) -> None:
    """A fresh interpreter importing blockdpp: the import cost of a user run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", "import blockdpp"], env=env,
                   check=True, timeout=120)


def git_sha():
    if not (ROOT / ".git").exists():   # a plain checkout: do not search parents
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(nproc: int, loadavg) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = None
    accel = sys.modules.get("blockdpp._accel")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "loadavg_at_start": list(loadavg),
        "git_sha": git_sha(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "accel_numba_enabled": getattr(accel, "NUMBA_ENABLED", None),
    }


def load_refs(name: str, seed: int):
    """Stored digests per pool index of one workload, or None."""
    path = BENCH / "refs" / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def same_output(a, b) -> bool:
    return a.out.shape == b.out.shape and bool((a.out == b.out).all())


def run_input(wl, i: int, item, op=None, traced: bool = False):
    """The ops of pool input i.  MAP runs full greedy only on the first
    ``full_inputs`` kernels, and adds the fused twin when traced."""
    kw = {} if op is None else {"op": op}
    if hasattr(wl, "gammas"):
        kw.update(full=i < wl.full_inputs, fused=traced)
    return wl.run(item, **kw)


class Checker:
    """Checks each op: validity, the stored reference, and repeat visits."""

    def __init__(self, wl, pool, refs):
        self.wl = wl
        self.pool = pool
        self.refs = refs          # per pool index: {label: digest}
        self.first = {}           # (pool index, kind, label) -> first Op seen
        self.problems = []

    def ok(self, idx: int, op) -> bool:
        from scoring import digest
        why = None
        if not self.wl.valid(self.pool[idx], op.out):
            why = "output is not strictly increasing inside the input"
        elif op.logp is not None and not math.isfinite(op.logp):
            why = "log-probability is not finite"
        elif op.kind != "fused":
            want = self.refs[idx].get(op.label)
            got = digest(op)
            if want is None:
                why = "no reference for this op"
            elif op.kind == "detect":
                why = None if got == want else "selected times differ from the reference"
            elif got[:2] != want[:2]:
                why = "selection differs from the reference"
            elif abs(got[2] - want[2]) > LOGP_RTOL * max(1.0, abs(want[2])):
                why = "log-probability differs from the reference"
        key = (idx, op.kind, op.label)
        if why is None and key in self.first and not same_output(self.first[key], op):
            why = "selection differs from an earlier run of the same input"
        self.first.setdefault(key, op)
        if why:
            self.problems.append(f"input {idx} {op.kind} {op.label}: {why}")
        return why is None


def workload_report(wl, pool, good) -> dict:
    """Medians, tails and quality over ``good``, the (pool index, Op) pairs
    that passed their checks."""
    import scoring
    if hasattr(wl, "gammas"):
        full_ms = [op.ms for _, op in good if op.kind == "full"]
        bw_ms = [op.ms for _, op in good if op.kind == "bw"]
        first = {(i, op.label): op for i, op in reversed(good)}
        gaps = [op.logp - first[(i, "full")].logp
                for (i, _), op in first.items()
                if op.kind == "bw" and (i, "full") in first]
        pct, tail_ms = scoring.tail(bw_ms)
        return {"map_full_ms": scoring.median(full_ms), "map_full_samples": len(full_ms),
                "map_blockwise_ms": scoring.median(bw_ms), "map_blockwise_samples": len(bw_ms),
                "map_blockwise_tail_ms": tail_ms, "map_blockwise_tail_percentile": pct,
                "map_logprob_gap": statistics.fmean(gaps) if gaps else None}
    detect_ms = [op.ms for _, op in good]
    scores = {}
    for i, op in good:
        if i not in scores:
            truth = pool[i][1]
            _, _, f1 = scoring.precision_recall_f1(op.out, truth, wl.cfg.window)
            scores[i] = {"f1": f1, "true_changes": int(len(truth)), **op.info}
    pct, tail_ms = scoring.tail(detect_ms)
    return {"detect_ms": scoring.median(detect_ms), "detect_samples": len(detect_ms),
            "detect_tail_ms": tail_ms, "detect_tail_percentile": pct,
            "detect_f1": (statistics.fmean(s["f1"] for s in scores.values())
                          if scores else None),
            "per_input": {str(i): scores[i] for i in sorted(scores)}}


def reference_ms(wl) -> float:
    """Time of the workload's reference loop: the host's current speed at
    the kind of work the ops do."""
    t0 = time.perf_counter()
    wl.reference()
    return (time.perf_counter() - t0) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "blockdpp" / "__init__.py").is_file():
        print(f"benchmark: no blockdpp package under {src}", file=sys.stderr)
        return 2
    input_set = args.seed % REF_SEEDS
    refs = load_refs(args.workload, input_set)
    if refs is None:
        print(f"benchmark: no stored reference for {args.workload} input set "
              f"{input_set}; run perfbench/make_refs.py", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    nproc = single_thread_blas()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    setup_s = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_blockdpp(src)
        if tracer is not None and rep == 0:
            with tracing.instrumented(tracer), tracer.op("setup", "setup"):
                pool = wl.inputs(input_set)
        else:
            pool = wl.inputs(input_set)
        wl.warm_up(input_set)
        setup_s.append(time.perf_counter() - t0)

    checker = Checker(wl, pool, refs)
    attempted = failed = 0
    good = []                  # (pool index, Op) that passed every check
    rel = {}                   # (pool index, label) -> [op ms / reference ms]
    overhead = []              # (untraced ms, traced ms) per visit

    ref_before = reference_ms(wl)
    deadline = time.perf_counter() + args.seconds
    visit = 0
    while visit < len(pool) or time.perf_counter() < deadline:
        idx = visit % len(pool)
        try:
            traced = []
            if tracer is None:
                ops = run_input(wl, idx, pool[idx])
            else:
                # alternate which of the pair runs first
                if visit % 2:
                    ops = run_input(wl, idx, pool[idx])
                tracer.visit = visit
                with tracing.instrumented(tracer):
                    traced = run_input(wl, idx, pool[idx], op=tracer.op, traced=True)
                if not visit % 2:
                    ops = run_input(wl, idx, pool[idx])
        except Exception as exc:  # an op that raises counts as failed
            checker.problems.append(f"input {idx}: {type(exc).__name__}: {exc}")
            attempted += 1
            failed += 1
            visit += 1
            continue
        ref_after = reference_ms(wl)
        ref_ms = (ref_before + ref_after) / 2
        ref_before = ref_after
        user = [op for op in traced if op.kind != "fused"]
        for op in ops:
            attempted += 1
            ok = checker.ok(idx, op)
            for t in traced:
                if t.label == op.label and not same_output(op, t):
                    checker.problems.append(
                        f"input {idx} {t.kind} {t.label}: traced selection differs")
                    ok = False
            if ok:
                good.append((idx, op))
                rel.setdefault((idx, op.label), []).append(op.ms / ref_ms)
            else:
                failed += 1
        if user:
            overhead.append((sum(o.ms for o in ops), sum(o.ms for o in user)))
        visit += 1

    times = {}
    for idx, op in good:
        times.setdefault((idx, op.label), []).append(op.ms)
    report = {
        "workload": wl.name, "seed": args.seed, "input_set": input_set,
        "seconds": args.seconds,
        "trace": args.trace, "inputs_in_pool": len(pool), "input_visits": visit,
        "setup_s": setup_s,
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "problems": checker.problems[:20],
        "pass_ms": sum(statistics.median(v) for v in times.values()),
        **workload_report(wl, pool, good),
        "environment": environment(nproc, loadavg),
    }
    correct = failed == 0 and not checker.problems and bool(rel)

    if tracer is None:
        metrics = {
            "pass_rel": metric(sum(statistics.median(v) for v in rel.values()),
                               "ref_loops"),
            "setup_s": metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        }
    else:
        metrics = tracing.per_layer(tracer, len(overhead), overhead)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        tracer.write(path, {"workload": wl.name, "seed": args.seed,
                            "fields": ["op", "id", "parent", "name", "start_ns", "end_ns"]})
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
