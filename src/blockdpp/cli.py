"""Command-line entry point.

Subcommands: gen (synthetic data), map (MAP inference on a kernel CSV),
detect (change-point detection), eval (scoring + ROC), bench (block-wise vs
full-kernel benchmark).  A JSON config file may supply any flag; explicit
command-line flags win.  Exit codes: 0 success, 1 runtime/data error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blockdpp")
    p.add_argument("--config", help="JSON file supplying default flag values")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic kernels or series")
    g.add_argument("--kind", choices=["kernel", "gaussian", "poisson"])
    g.add_argument("-o", "--output")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=_positive_int, default=500)
    g.add_argument("--block-min", type=_positive_int, default=10)
    g.add_argument("--block-max", type=_positive_int, default=30)
    g.add_argument("--overlaps", type=_int_list, default=[0, 2, 4, 6])
    g.add_argument("--feature-dim", type=_positive_int, default=50)
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

    d = sub.add_parser("detect", help="change-point detection")
    src = d.add_mutually_exclusive_group()
    src.add_argument("--series", help="time-series CSV")
    src.add_argument("--events", help="event-times CSV")
    d.add_argument("-w", "--window", type=_positive_int, default=50)
    d.add_argument("--sigma", type=float, default=200.0)
    d.add_argument("--gamma", type=_nonneg_int, default=0)
    d.add_argument("--metric",
                   choices=["symkl", "glr-gaussian", "glr-poisson"],
                   default="symkl")
    d.add_argument("--delta-reg", type=float, default=1e-6)
    d.add_argument("--eps-zero", type=float, default=km.DEFAULT_EPS_ZERO)
    d.add_argument("--quality-gain", type=float, default=1.5)
    d.add_argument("--quality-exponent", type=float, default=1.0)
    d.add_argument("--require-initial-gain", action="store_true")
    d.add_argument("--event-step", type=float, default=1.0)
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

    b = sub.add_parser("bench", help="block-wise vs full-kernel benchmark")
    b.add_argument("--kernels", type=_positive_int, default=50)
    b.add_argument("--n", type=_positive_int, default=500)
    b.add_argument("--block-min", type=_positive_int, default=10)
    b.add_argument("--block-max", type=_positive_int, default=30)
    b.add_argument("--overlaps", type=_int_list, default=[0, 2, 4, 6])
    b.add_argument("--feature-dim", type=_positive_int, default=50)
    b.add_argument("--gammas", type=_int_list, default=[0, 2, 4, 6])
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--repeats", type=_positive_int, default=3)
    b.add_argument("--no-timing", action="store_true")
    b.add_argument("-o", "--output")

    return p


def _sibling(path: str, tag: str) -> Path:
    p = Path(path)
    return p.with_name(p.stem + "." + tag)


def _cmd_gen(args) -> None:
    if args.kind == "kernel":
        spec = km.SyntheticKernelSpec(
            N=args.n, block_size_range=(args.block_min, args.block_max),
            overlap_choices=tuple(args.overlaps),
            feature_dim=args.feature_dim, seed=args.seed)
        kern, part = km.generate_synthetic_kernel(spec)
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
    out = {}
    if args.mode == "full":
        sel = solver(L)
        out["per_block"] = []
    else:
        part = km.gamma_partition(L, args.gamma)
        sel, trace = mi.blockwise_map(L, part, solver)
        sel = np.sort(sel)
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
        out["oracle_match"] = bool(np.array_equal(np.sort(sel), oracle))
    bio.save_json(args.output, out)


def _cmd_detect(args) -> None:
    metric = args.metric.replace("-", "_")
    cfg = cpd.DetectionConfig(
        window=args.window, sigma=args.sigma, gamma=args.gamma,
        metric=metric, eps_zero=args.eps_zero, delta_reg=args.delta_reg,
        quality_gain=args.quality_gain, quality_exponent=args.quality_exponent,
        require_initial_gain=args.require_initial_gain,
        event_step=args.event_step)
    if args.events:
        if metric != "glr_poisson":
            raise ValueError("event input requires --metric glr-poisson")
        rep = cpd.detect_change_points_events(bio.load_events_csv(args.events), cfg)
    else:
        if metric == "glr_poisson":
            raise ValueError("--metric glr-poisson requires --events input")
        rep = cpd.detect_change_points(bio.load_series_csv(args.series), cfg)
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
        if args.events:
            X, is_events = bio.load_events_csv(args.events), True
        elif args.series:
            X, is_events = bio.load_series_csv(args.series), False
        else:
            raise ValueError("--roc requires --series or --events")
        score.roc = ev.roc_sweep(X, truth, cfg, args.sigma_grid, tol,
                                 events=is_events)
        np.savetxt(_sibling(args.output, "roc.csv"),
                   np.asarray(score.roc, dtype=np.float64),
                   delimiter=",", fmt="%.17g", header="sigma,fpr,tpr")
    bio.save_json(args.output, score.to_json_dict())


def _cmd_bench(args) -> None:
    spec = km.SyntheticKernelSpec(
        N=args.n, block_size_range=(args.block_min, args.block_max),
        overlap_choices=tuple(args.overlaps),
        feature_dim=args.feature_dim, seed=args.seed)
    rep = ev.benchmark_map(spec, args.kernels, args.gammas,
                           repeats=args.repeats)
    d = rep.to_json_dict()
    if args.no_timing:
        for g in d["per_gamma"]:
            g.pop("mean_time_ratio", None)
            g.pop("time_ratio_halfwidth", None)
    bio.save_json(args.output, d)
    if args.no_timing:
        rows = [(g.gamma, g.mean_log_prob_ratio, g.log_prob_ratio_halfwidth,
                 g.mean_blocks) for g in rep.per_gamma]
        header = "gamma,mean_log_prob_ratio,log_prob_ratio_hw,mean_blocks"
    else:
        rows = [(g.gamma, g.mean_log_prob_ratio, g.log_prob_ratio_halfwidth,
                 g.mean_time_ratio, g.time_ratio_halfwidth, g.mean_blocks)
                for g in rep.per_gamma]
        header = ("gamma,mean_log_prob_ratio,log_prob_ratio_hw,"
                  "mean_time_ratio,time_ratio_hw,mean_blocks")
    np.savetxt(_sibling(args.output, "per_gamma.csv"),
               np.asarray(rows, dtype=np.float64), delimiter=",", fmt="%.17g",
               header=header)


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


def _config_path(argv):
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith("--config="):
            return a.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # A config file supplies defaults; explicit flags override them.
    cfg_path = _config_path(argv)
    if cfg_path:
        cfg = bio.load_json(cfg_path)
        for sp in parser._subparsers._group_actions[0].choices.values():
            known = {a.dest for a in sp._actions}
            sp.set_defaults(**{k: v for k, v in cfg.items() if k in known})
    args = parser.parse_args(argv)
    for dest in _REQUIRED[args.command]:
        if getattr(args, dest, None) is None:
            parser.error(f"{args.command}: missing required option --{dest.replace('_', '-')}")
    if args.command == "detect" and not (args.series or args.events):
        parser.error("detect: one of --series or --events is required")
    try:
        _HANDLERS[args.command](args)
    except (ValueError, IndexError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
