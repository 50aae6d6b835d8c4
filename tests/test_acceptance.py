"""Acceptance suite.

Each test covers one numbered acceptance criterion and emits a single
pass/fail line (visible with ``pytest -v`` as the test outcome, and echoed
explicitly via ``report``).
"""

import filecmp
import json
import time

import numpy as np
import pytest

import loop_oracles as oracle
from blockdpp import cli
from blockdpp import cpd_pipeline as cp
from blockdpp import evaluation as ev
from blockdpp import kernel_model as km
from blockdpp import map_inference as mi
from blockdpp import matrix_core as mc
from blockdpp.cpd_metrics import SegmentStats, glr_poisson, symkl


def report(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({name}) failed"


def small_kernel_spec(seed):
    return km.SyntheticKernelSpec(N=60, block_size_range=(10, 20),
                                  overlap_choices=(0, 2, 4), feature_dim=80,
                                  seed=seed)


_crit1_cache = {}


def criterion1_runs():
    """200 seeded kernels x 10 random valid subsets, block-wise runs whose
    sub-solver records each reduced kernel and its picks.

    Returns (relative factorization errors, reduced-kernel min-eigenvalue
    margins, wall time).  Cached so the Lemma-1 criterion can reuse the same
    reduced kernels without re-running.
    """
    if _crit1_cache:
        return _crit1_cache["data"]
    rng = np.random.default_rng(20240824)
    errors = []
    margins = []  # lambda_min(reduced) / max diag of the parent kernel
    t0 = time.perf_counter()
    for seed in range(200):
        kern, part = km.generate_synthetic_kernel(small_kernel_spec(seed))
        L = kern.L
        max_diag = float(np.max(np.diagonal(L)))
        for _ in range(10):
            subsets = [np.flatnonzero(rng.random(b - a) < 0.4).astype(np.int64)
                       for a, b in part.ranges()]
            it = iter(subsets)
            seen = []
            sel, _ = mi.blockwise_map(
                L, part, oracle.recording(seen, lambda K: next(it)))
            lhs = mi.log_prob_unnormalized(L, np.sort(sel))
            rhs = sum(mc.log_det(K[np.ix_(local, local)])
                      for K, local in seen if local.size)
            errors.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
            margins.extend(np.linalg.eigvalsh(K)[0] / max_diag for K, _ in seen)
    elapsed = time.perf_counter() - t0
    _crit1_cache["data"] = (errors, margins, elapsed)
    return _crit1_cache["data"]


def test_criterion_01_determinant_factorization():
    errors, _, elapsed = criterion1_runs()
    assert len(errors) == 2000
    report(1, "determinant factorization",
           max(errors) <= 1e-8 and elapsed < 10.0)


def test_criterion_02_reduced_kernels_stay_psd():
    _, margins, _ = criterion1_runs()
    for seed in range(100):
        kern, part = km.generate_synthetic_kernel(small_kernel_spec(1000 + seed))
        max_diag = float(np.max(np.diagonal(kern.L)))
        seen = []
        mi.blockwise_map(kern.L, part, oracle.recording(seen))
        margins = margins + [np.linalg.eigvalsh(K)[0] / max_diag for K, _ in seen]
    report(2, "reduced sub-kernels PSD", min(margins) >= -1e-8)


def test_criterion_03_selected_inverse_identity():
    worst = 0.0
    for seed in range(100):
        kern, part = km.generate_synthetic_kernel(small_kernel_spec(2000 + seed))
        L = kern.L
        seen = []
        _, trace = mi.blockwise_map(L, part, oracle.recording(seen))
        acc = []
        for b, (K, local) in zip(trace.blocks, seen):
            acc.extend(b.selected.tolist())
            k = b.selected.size
            if k == 0:
                continue
            full_inv = np.linalg.inv(L[np.ix_(acc, acc)])
            red_inv = np.linalg.inv(K[np.ix_(local, local)])
            worst = max(worst, float(np.abs(full_inv[-k:, -k:] - red_inv).max()))
    report(3, "selected-set inverse identity", worst <= 1e-8)


def test_criterion_04_block_diagonal_exactness():
    ok = True
    for seed in range(100):
        kern, part = km.generate_synthetic_kernel(km.SyntheticKernelSpec(
            N=12, block_size_range=(3, 6), overlap_choices=(0,),
            feature_dim=20, seed=seed))
        sel, _ = mi.blockwise_map(kern.L, part, mi.exhaustive_map)
        ref = mi.exhaustive_map(kern.L)
        ok &= bool(np.array_equal(np.sort(sel), ref))
    report(4, "block-diagonal exactness vs exhaustive", ok)


def test_criterion_05_conditional_form_equivalence():
    ok = True
    for seed in range(200):
        kern, _ = km.generate_synthetic_kernel(small_kernel_spec(3000 + seed))
        for gamma in (0, 2, 4):
            part = km.gamma_partition(kern.L, gamma)
            s1, _ = mi.blockwise_map(kern.L, part)
            s2 = oracle.blockwise_map_conditional_form(kern.L, part)
            ok &= bool(np.array_equal(np.sort(s1), np.sort(s2)))
    report(5, "conditional-form equivalence", ok)


def test_criterion_06_greedy_vs_exhaustive_oracle():
    rng = np.random.default_rng(4000)
    attained = 0
    never_exceeds = True
    for _ in range(500):
        n = int(rng.integers(4, 11))
        B = rng.standard_normal((n + 5, n))
        L = 2.0 * (B.T @ B) / (n + 5)
        pg = mi.log_prob_unnormalized(L, mi.greedy_map(L))
        po = mi.log_prob_unnormalized(L, mi.exhaustive_map(L))
        never_exceeds &= pg <= po + 1e-9
        attained += abs(pg - po) <= 1e-9
    report(6, "greedy attains the oracle often and never exceeds it",
           attained >= 300 and never_exceeds)


def test_criterion_07_blockwise_benchmark():
    t0 = time.perf_counter()
    rep = ev.benchmark_map(km.SyntheticKernelSpec(seed=5000), n_kernels=50)
    ratios = [g.mean_log_prob_ratio for g in rep.per_gamma]
    times = {g.gamma: g.mean_time_ratio for g in rep.per_gamma}
    control = ev.benchmark_map(
        km.SyntheticKernelSpec(overlap_choices=(0,), seed=6000),
        n_kernels=10, gamma_list=(0,))
    elapsed = time.perf_counter() - t0
    ok = (times[6] < 0.5
          and all(r <= 1e-12 for r in ratios)
          and all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
          and control.per_gamma[0].mean_log_prob_ratio == 0.0
          and elapsed < 300.0)
    report(7, "block-wise speedup and probability trade-off", ok)


def test_criterion_08_cpd_end_to_end():
    t0 = time.perf_counter()
    means = [0.0, 3.0, 0.0, 3.0, 6.0, 3.0, 0.0, -3.0, 0.0, 3.0]
    X, truth = cp.generate_piecewise_gaussian(
        0, [(200, m, 1.0) for m in means])
    cfg = cp.DetectionConfig()
    rep = cp.detect_change_points(X, cfg)
    score = ev.precision_recall_f1(
        ev.match_changes(rep.selected, truth, cfg.window))

    E, etruth = cp.generate_poisson_events(10, [(100, 1.0), (100, 5.0)])
    ecfg = cp.DetectionConfig(metric="glr_poisson")
    erep = cp.detect_change_points_events(E, ecfg)
    ematch = ev.match_changes(erep.selected, etruth, ecfg.window)
    elapsed = time.perf_counter() - t0
    report(8, "change-point detection end to end",
           score.f1 >= 0.9 and ematch.cfc == 1 and elapsed < 30.0)


def test_criterion_09_metric_identities():
    s = lambda mean, var: SegmentStats(count=2,
                                       mean=np.array([float(mean)]),
                                       cov=np.array([[float(var)]]))
    a, b = s(0.3, 1.7), s(-1.2, 0.6)
    ok = (symkl(a, b) == symkl(b, a)
          and abs(symkl(a, a)) <= 1e-10
          and abs(symkl(s(0, 1), s(1, 1)) - 2.0) <= 1e-10
          and abs(symkl(s(0, 1), s(0, 2)) - 0.5) <= 1e-10
          and abs(glr_poisson(np.arange(0.0, 11.0),
                              np.arange(11.0, 22.0)) - 1.0) <= 1e-10)
    report(9, "metric identities", ok)


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return int(exc.code)


def run_all_commands(d):
    d.mkdir(exist_ok=True)
    segs = d / "segs.json"
    segs.write_text(json.dumps([{"length": 150, "mean": 0.0, "cov": 1.0},
                                {"length": 150, "mean": 4.0, "cov": 1.0}]))
    esegs = d / "esegs.json"
    esegs.write_text(json.dumps([{"duration": 100, "rate": 1.0},
                                 {"duration": 100, "rate": 5.0}]))
    cmds = [
        ("gen", "--kind", "kernel", "--n", "40", "--block-min", "8",
         "--block-max", "12", "--overlaps", "0,2", "--seed", "3",
         "-o", str(d / "k.csv")),
        ("gen", "--kind", "gaussian", "--segments", str(segs), "--seed", "1",
         "-o", str(d / "ts.csv")),
        ("gen", "--kind", "poisson", "--segments", str(esegs), "--seed", "2",
         "-o", str(d / "ev.csv")),
        ("map", "--kernel", str(d / "k.csv"), "--mode", "blockwise",
         "--gamma", "2", "--no-timing", "-o", str(d / "map.json")),
        ("detect", "--series", str(d / "ts.csv"), "--no-timing",
         "--dump-profile", str(d / "prof.csv"), "-o", str(d / "det.json")),
        ("eval", "--report", str(d / "det.json"),
         "--truth", str(d / "ts.truth.json"), "--roc",
         "--sigma-grid", "100:200:2", "--series", str(d / "ts.csv"),
         "-o", str(d / "eval.json")),
        ("bench", "--kernels", "2", "--n", "60", "--block-min", "10",
         "--block-max", "20", "--overlaps", "0,2", "--feature-dim", "80",
         "--gammas", "0,2", "--repeats", "1", "--no-timing",
         "-o", str(d / "bench.json")),
    ]
    for cmd in cmds:
        assert run_cli(*cmd) == 0, cmd
    return sorted(p.name for p in d.iterdir() if p.suffix in (".csv", ".json"))


def test_criterion_10_cli_golden_determinism(tmp_path):
    names1 = run_all_commands(tmp_path / "a")
    names2 = run_all_commands(tmp_path / "b")
    ok = names1 == names2
    skip = {"segs.json", "esegs.json"}
    for name in names1:
        if name in skip:
            continue
        same = filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False)
        ok &= same
    report(10, "CLI golden-file determinism", ok)
