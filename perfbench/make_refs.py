#!/usr/bin/env python3
"""Regenerate the stored reference outputs that run.py checks against.

    python3 perfbench/make_refs.py --workload map_dense --seeds 0-99

Runs every op of every input of each input set of one workload once,
untraced, and merges the results into ``perfbench/refs/<workload>.json``.
run.py needs input sets 0..REF_SEEDS-1.  Re-run it only when a change to
blockdpp is meant to change its selections.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH, ROOT, WORKLOAD_NAMES, single_thread_blas


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seeds", type=seed_range, required=True)
    args = p.parse_args()
    single_thread_blas()
    sys.path.insert(0, str(ROOT / "src"))
    from scoring import digest
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    path = BENCH / "refs" / f"{wl.name}.json"
    path.parent.mkdir(exist_ok=True)
    data = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    for seed in args.seeds:
        data["seeds"][str(seed)] = [
            {op.label: digest(op) for op in wl.run(item)}
            for item in wl.inputs(seed)
        ]
        data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"{wl.name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
