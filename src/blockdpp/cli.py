"""Command-line entry point.

Subcommands: gen (synthetic data), map (MAP inference on a kernel CSV),
detect (change-point detection), eval (scoring + ROC), bench (block-wise vs
full-kernel benchmark).  Flag defaults are the library's.  A JSON config
file may supply any flag of the chosen subcommand; explicit command-line
flags win.  Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import cpd_metrics as metrics
from . import cpd_pipeline as cpd
from . import evaluation as ev
from . import io as bio
from . import kernel_model as km
from . import map_inference as mi


def _positive_int(s: str) -> int:
    v = int(s)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s}")
    return v


def _nonneg_int(s: str) -> int:
    v = int(s)
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {s}")
    return v


def _int_list(s: str):
    return [int(x) for x in s.split(",") if x != ""]


def _sigma_grid(s: str):
    # "a:b:n" -> n values evenly spaced in [a, b]
    try:
        a, b, n = s.split(":")
        return np.linspace(float(a), float(b), int(n)).tolist()
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sigma grid {s!r}, want a:b:n")


def _kernel_spec(args) -> km.SyntheticKernelSpec:
    return km.SyntheticKernelSpec(
        N=args.n, block_size_range=(args.block_min, args.block_max),
        overlap_choices=tuple(args.overlaps),
        feature_dim=args.feature_dim, seed=args.seed)


def build_parser():
    """The blockdpp parser and its subparsers action, which main needs."""
    p = argparse.ArgumentParser(prog="blockdpp")
    p.add_argument("--config", help="JSON file supplying default flag values")
    sub = p.add_subparsers(dest="command", required=True)

    # the flags of a SyntheticKernelSpec, shared by gen and bench
    spec = km.SyntheticKernelSpec()
    lo, hi = spec.block_size_range
    ks = argparse.ArgumentParser(add_help=False)
    ks.add_argument("--seed", type=int, default=spec.seed)
    ks.add_argument("--n", type=_positive_int, default=spec.N)
    ks.add_argument("--block-min", type=_positive_int, default=lo)
    ks.add_argument("--block-max", type=_positive_int, default=hi)
    ks.add_argument("--overlaps", type=_int_list,
                    default=list(spec.overlap_choices))
    ks.add_argument("--feature-dim", type=_positive_int, default=spec.feature_dim)

    g = sub.add_parser("gen", help="generate synthetic kernels or series",
                       parents=[ks])
    g.add_argument("--kind", choices=["kernel", "gaussian", "poisson"])
    g.add_argument("-o", "--output")
    g.add_argument("--segments", help="JSON segment spec for gaussian/poisson")

    m = sub.add_parser("map", help="MAP inference on a kernel CSV")
    m.add_argument("--kernel")
    m.add_argument("--mode", choices=["full", "blockwise"], default="full")
    m.add_argument("--gamma", type=_nonneg_int, default=0)
    m.add_argument("--oracle", action="store_true",
                   help="also run exhaustive search (kernel size <= 20)")
    m.add_argument("--require-initial-gain", action="store_true")
    m.add_argument("--no-timing", action="store_true")
    m.add_argument("-o", "--output")

    dc = cpd.DetectionConfig()
    d = sub.add_parser("detect", help="change-point detection")
    src = d.add_mutually_exclusive_group()
    src.add_argument("--series", help="time-series CSV")
    src.add_argument("--events", help="event-times CSV")
    d.add_argument("-w", "--window", type=_positive_int, default=dc.window)
    d.add_argument("--sigma", type=float, default=dc.sigma)
    d.add_argument("--gamma", type=_nonneg_int, default=dc.gamma)
    d.add_argument("--metric",
                   choices=[n.replace("_", "-") for n in metrics.METRICS],
                   default=dc.metric.replace("_", "-"))
    d.add_argument("--delta-reg", type=float, default=dc.delta_reg)
    d.add_argument("--eps-zero", type=float, default=dc.eps_zero)
    d.add_argument("--quality-gain", type=float, default=dc.quality_gain)
    d.add_argument("--quality-exponent", type=float,
                   default=dc.quality_exponent)
    d.add_argument("--require-initial-gain", action="store_true")
    d.add_argument("--event-step", type=float, default=dc.event_step)
    d.add_argument("--dump-profile", help="write profile CSV (t, d)")
    d.add_argument("--no-timing", action="store_true")
    d.add_argument("-o", "--output")

    e = sub.add_parser("eval", help="score a detection report against truth")
    e.add_argument("--report")
    e.add_argument("--truth")
    e.add_argument("--tol", type=float, default=None,
                   help="match tolerance (defaults to the detection window)")
    e.add_argument("--roc", action="store_true")
    e.add_argument("--sigma-grid", type=_sigma_grid, default=None)
    e.add_argument("--series", help="series CSV, required for --roc")
    e.add_argument("--events", help="events CSV, required for --roc on events")
    e.add_argument("-o", "--output")

    b = sub.add_parser("bench", help="block-wise vs full-kernel benchmark",
                       parents=[ks])
    b.add_argument("--kernels", type=_positive_int, default=50)
    b.add_argument("--gammas", type=_int_list, default=list(ev.BENCH_GAMMAS))
    b.add_argument("--repeats", type=_positive_int, default=ev.BENCH_REPEATS)
    b.add_argument("--no-timing", action="store_true")
    b.add_argument("-o", "--output")

    return p, sub


def _sibling(path: str, tag: str) -> Path:
    p = Path(path)
    return p.with_name(p.stem + "." + tag)


def _cmd_gen(args) -> None:
    if args.kind == "kernel":
        kern, part = km.generate_synthetic_kernel(_kernel_spec(args))
        bio.save_matrix_csv(args.output, kern.L)
        bio.save_partition_json(_sibling(args.output, "partition.json"), part)
        return
    if not args.segments:
        raise ValueError("--segments is required for gaussian/poisson generation")
    spec = bio.load_json(args.segments)
    if args.kind == "gaussian":
        segs = [(s["length"], s["mean"], s["cov"]) for s in spec]
        X, truth = cpd.generate_piecewise_gaussian(args.seed, segs)
        bio.save_series_csv(args.output, X)
    else:
        segs = [(s["duration"], s["rate"]) for s in spec]
        X, truth = cpd.generate_poisson_events(args.seed, segs)
        bio.save_events_csv(args.output, X)
    bio.save_json(_sibling(args.output, "truth.json"),
                  {"changes": [float(t) for t in truth]})


def _cmd_map(args) -> None:
    L = bio.load_matrix_csv(args.kernel)
    solver = lambda K: mi.greedy_map(K, args.require_initial_gain)
    out = {"per_block": []}
    if args.mode == "full":
        sel = solver(L)
    else:
        part = km.gamma_partition(L, args.gamma)
        sel, trace = mi.blockwise_map(L, part, solver)
        out["per_block"] = [
            {"range": list(b.span), "selected": [int(i) for i in b.selected],
             **({} if args.no_timing else {"ms": b.ms})}
            for b in trace.blocks
        ]
    out["selected"] = [int(i) for i in sel]
    out["log_det"] = mi.log_prob_unnormalized(L, sel)
    if args.oracle:
        oracle = mi.exhaustive_map(L)
        out["oracle"] = [int(i) for i in oracle]
        out["oracle_match"] = bool(np.array_equal(sel, oracle))
    bio.save_json(args.output, out)


def _detection_input(args, metric: str):
    """cpd.detector(metric) and its input: --events if it reads event
    times, --series otherwise."""
    detect = cpd.detector(metric)
    if detect is cpd.detect_change_points_events:
        if not args.events:
            raise ValueError("metric glr-poisson requires --events input")
        return detect, bio.load_events_csv(args.events)
    if args.events or not args.series:
        raise ValueError(f"metric {metric.replace('_', '-')} requires --series input")
    return detect, bio.load_series_csv(args.series)


def _cmd_detect(args) -> None:
    # each field of DetectionConfig is a detect flag of the same name
    flags = {f.name: getattr(args, f.name) for f in fields(cpd.DetectionConfig)}
    flags["metric"] = args.metric.replace("-", "_")
    cfg = cpd.DetectionConfig(**flags)
    detect, X = _detection_input(args, cfg.metric)
    rep = detect(X, cfg)
    bio.save_json(args.output, rep.to_json_dict(include_timings=not args.no_timing))
    if args.dump_profile:
        prof = rep.candidates.profile
        np.savetxt(args.dump_profile,
                   np.column_stack([prof.times, prof.values]),
                   delimiter=",", fmt="%.17g")


def _cmd_eval(args) -> None:
    report = bio.load_json(args.report)
    truth = bio.load_json(args.truth)["changes"]
    cfg = cpd.DetectionConfig(**report["config"])
    tol = cfg.window if args.tol is None else args.tol
    score = ev.precision_recall_f1(
        ev.match_changes(report["selected"], truth, tol))
    if args.roc:
        if args.sigma_grid is None:
            raise ValueError("--roc requires --sigma-grid a:b:n")
        _, X = _detection_input(args, cfg.metric)
        score.roc = ev.roc_sweep(X, truth, cfg, args.sigma_grid, tol)
        np.savetxt(_sibling(args.output, "roc.csv"),
                   np.asarray(score.roc, dtype=np.float64),
                   delimiter=",", fmt="%.17g", header="sigma,fpr,tpr")
    bio.save_json(args.output, score.to_json_dict())


def _cmd_bench(args) -> None:
    rep = ev.benchmark_map(_kernel_spec(args), args.kernels, args.gammas,
                           repeats=args.repeats)
    d = rep.to_json_dict()
    cols = ["gamma", "mean_log_prob_ratio", "log_prob_ratio_halfwidth",
            "mean_time_ratio", "time_ratio_halfwidth", "mean_blocks"]
    if args.no_timing:
        cols = [c for c in cols if "time" not in c]
        for g in d["per_gamma"]:
            del g["mean_time_ratio"], g["time_ratio_halfwidth"]
    bio.save_json(args.output, d)
    rows = [[g[c] for c in cols] for g in d["per_gamma"]]
    np.savetxt(_sibling(args.output, "per_gamma.csv"),
               np.asarray(rows, dtype=np.float64), delimiter=",", fmt="%.17g",
               header=",".join(cols).replace("halfwidth", "hw"))


_HANDLERS = {
    "gen": _cmd_gen,
    "map": _cmd_map,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


_REQUIRED = {
    "gen": ["kind", "output"],
    "map": ["kernel", "output"],
    "detect": ["output"],
    "eval": ["report", "truth", "output"],
    "bench": ["output"],
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's keys that name flags of the chosen subcommand
            # become its defaults; a second parse lets explicit flags win.
            # parse_args([]) lists those flags, so no flag may be
            # argparse-required: required flags go in _REQUIRED.
            sp = commands.choices[args.command]
            known = vars(sp.parse_args([]))
            config = bio.load_json(args.config)
            if not isinstance(config, dict):
                raise ValueError(f"{args.config}: config must be a JSON object")
            sp.set_defaults(**{k: v for k, v in config.items() if k in known})
            args = parser.parse_args(argv)
        for dest in _REQUIRED[args.command]:
            if getattr(args, dest, None) is None:
                parser.error(f"{args.command}: missing required option --{dest.replace('_', '-')}")
        if args.command == "detect" and not (args.series or args.events):
            parser.error("detect: one of --series or --events is required")
        _HANDLERS[args.command](args)
    except (ValueError, IndexError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
