import json

import numpy as np
import pytest

from blockdpp import cli
from blockdpp import io as bio
from blockdpp.cpd_pipeline import generate_piecewise_gaussian


def run(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


@pytest.fixture
def kernel_file(tmp_path):
    out = tmp_path / "k.csv"
    assert run("gen", "--kind", "kernel", "--n", "40", "--block-min", "8",
               "--block-max", "12", "--overlaps", "0,2", "--feature-dim", "50",
               "--seed", "3", "-o", str(out)) == 0
    return out


@pytest.fixture
def series_files(tmp_path):
    segs = [{"length": 150, "mean": 0.0, "cov": 1.0},
            {"length": 150, "mean": 4.0, "cov": 1.0}]
    spec = tmp_path / "segs.json"
    spec.write_text(json.dumps(segs))
    out = tmp_path / "ts.csv"
    assert run("gen", "--kind", "gaussian", "--segments", str(spec),
               "--seed", "1", "-o", str(out)) == 0
    return out, tmp_path / "ts.truth.json"


class TestGen:
    def test_kernel_and_partition_files(self, kernel_file):
        L = bio.load_matrix_csv(kernel_file)
        assert L.shape == (40, 40)
        part = bio.load_partition_json(
            kernel_file.with_name("k.partition.json"))
        assert part.n == 40

    def test_gaussian_series_and_truth(self, series_files):
        ts, truth = series_files
        assert bio.load_series_csv(ts).shape == (300, 1)
        assert bio.load_json(truth)["changes"] == [150.0]

    def test_poisson_events(self, tmp_path):
        spec = tmp_path / "segs.json"
        spec.write_text(json.dumps([{"duration": 50, "rate": 1.0},
                                    {"duration": 50, "rate": 5.0}]))
        out = tmp_path / "ev.csv"
        assert run("gen", "--kind", "poisson", "--segments", str(spec),
                   "--seed", "2", "-o", str(out)) == 0
        e = bio.load_events_csv(out)
        assert np.all(np.diff(e) > 0)
        assert bio.load_json(tmp_path / "ev.truth.json")["changes"] == [50.0]

    def test_missing_output_is_usage_error(self):
        assert run("gen", "--kind", "kernel") == 2

    def test_missing_segments_is_runtime_error(self, tmp_path):
        assert run("gen", "--kind", "gaussian",
                   "-o", str(tmp_path / "x.csv")) == 1


class TestMap:
    def test_full_mode(self, kernel_file, tmp_path):
        out = tmp_path / "map.json"
        assert run("map", "--kernel", str(kernel_file), "--mode", "full",
                   "-o", str(out)) == 0
        d = bio.load_json(out)
        assert d["selected"] == sorted(d["selected"])
        assert np.isfinite(d["log_det"])

    def test_blockwise_mode_has_trace(self, kernel_file, tmp_path):
        out = tmp_path / "map.json"
        assert run("map", "--kernel", str(kernel_file), "--mode", "blockwise",
                   "--gamma", "2", "-o", str(out)) == 0
        d = bio.load_json(out)
        assert d["per_block"]
        spans = [b["range"] for b in d["per_block"]]
        assert spans[0][0] == 0 and spans[-1][1] == 40

    def test_oracle_on_tiny_kernel(self, tmp_path):
        L = np.diag([2.0, 0.5, 3.0])
        kf = tmp_path / "tiny.csv"
        bio.save_matrix_csv(kf, L)
        out = tmp_path / "map.json"
        assert run("map", "--kernel", str(kf), "--mode", "full", "--oracle",
                   "-o", str(out)) == 0
        d = bio.load_json(out)
        assert d["oracle"] == [0, 2] and d["oracle_match"] is True

    def test_tiny_pick_has_finite_log_det(self, tmp_path):
        kf = tmp_path / "tiny.csv"
        bio.save_matrix_csv(kf, np.diag([5e-11, 2.0]))
        out = tmp_path / "map.json"
        assert run("map", "--kernel", str(kf), "--mode", "blockwise",
                   "--gamma", "0", "-o", str(out)) == 0
        d = bio.load_json(out)
        assert d["selected"] == [0, 1]
        assert d["log_det"] == pytest.approx(np.log(1e-10), rel=1e-9)

    def test_oracle_too_large(self, kernel_file, tmp_path):
        assert run("map", "--kernel", str(kernel_file), "--oracle",
                   "-o", str(tmp_path / "x.json")) == 1

    def test_missing_kernel_flag(self, tmp_path):
        assert run("map", "-o", str(tmp_path / "x.json")) == 2


class TestDetect:
    def test_series_detection(self, series_files, tmp_path):
        ts, _ = series_files
        out = tmp_path / "det.json"
        prof = tmp_path / "prof.csv"
        assert run("detect", "--series", str(ts), "-o", str(out),
                   "--dump-profile", str(prof)) == 0
        d = bio.load_json(out)
        assert any(abs(s - 150.0) <= 50 for s in d["selected"])
        assert prof.exists()

    def test_event_detection(self, tmp_path):
        spec = tmp_path / "segs.json"
        spec.write_text(json.dumps([{"duration": 100, "rate": 1.0},
                                    {"duration": 100, "rate": 5.0}]))
        ev = tmp_path / "ev.csv"
        assert run("gen", "--kind", "poisson", "--segments", str(spec),
                   "--seed", "10", "-o", str(ev)) == 0
        out = tmp_path / "det.json"
        assert run("detect", "--events", str(ev), "--metric", "glr-poisson",
                   "-o", str(out)) == 0
        d = bio.load_json(out)
        assert any(abs(s - 100.0) <= 50 for s in d["selected"])

    def test_unknown_metric_is_usage_error(self, series_files, tmp_path):
        ts, _ = series_files
        assert run("detect", "--series", str(ts), "--metric", "nope",
                   "-o", str(tmp_path / "x.json")) == 2

    def test_poisson_metric_needs_events(self, series_files, tmp_path):
        ts, _ = series_files
        assert run("detect", "--series", str(ts), "--metric", "glr-poisson",
                   "-o", str(tmp_path / "x.json")) == 1

    def test_input_required(self, tmp_path):
        assert run("detect", "-o", str(tmp_path / "x.json")) == 2

    def test_window_not_above_dimension_is_runtime_error(self, tmp_path):
        ts = tmp_path / "wide.csv"
        bio.save_series_csv(ts, np.random.default_rng(0).standard_normal((300, 80)))
        assert run("detect", "--series", str(ts), "-w", "50",
                   "-o", str(tmp_path / "x.json")) == 1


class TestEval:
    @pytest.fixture
    def detection(self, series_files, tmp_path):
        ts, truth = series_files
        out = tmp_path / "det.json"
        run("detect", "--series", str(ts), "-o", str(out))
        return out, truth, ts

    def test_score(self, detection, tmp_path):
        rep, truth, _ = detection
        out = tmp_path / "eval.json"
        assert run("eval", "--report", str(rep), "--truth", str(truth),
                   "-o", str(out)) == 0
        d = bio.load_json(out)
        assert set(d) >= {"precision", "recall", "f1"}
        assert d["f1"] > 0.0

    def test_roc_requires_grid(self, detection, tmp_path):
        rep, truth, ts = detection
        assert run("eval", "--report", str(rep), "--truth", str(truth),
                   "--roc", "--series", str(ts),
                   "-o", str(tmp_path / "x.json")) == 1

    def test_roc_sweep_writes_csv(self, detection, tmp_path):
        rep, truth, ts = detection
        out = tmp_path / "eval.json"
        assert run("eval", "--report", str(rep), "--truth", str(truth),
                   "--roc", "--sigma-grid", "100:200:2", "--series", str(ts),
                   "-o", str(out)) == 0
        roc = np.loadtxt(tmp_path / "eval.roc.csv", delimiter=",", ndmin=2)
        assert roc.shape == (2, 3)

    def test_missing_truth_file(self, detection, tmp_path):
        rep, _, _ = detection
        assert run("eval", "--report", str(rep),
                   "--truth", str(tmp_path / "absent.json"),
                   "-o", str(tmp_path / "x.json")) == 1


class TestBench:
    def test_single_kernel_report(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run("bench", "--kernels", "1", "--n", "60", "--block-min", "10",
                   "--block-max", "20", "--overlaps", "0,2", "--feature-dim",
                   "80", "--gammas", "0,2", "--repeats", "1",
                   "-o", str(out)) == 0
        d = bio.load_json(out)
        assert len(d["per_gamma"]) == 2
        assert (tmp_path / "bench.per_gamma.csv").exists()

    def test_negative_kernels_usage_error(self, tmp_path):
        assert run("bench", "--kernels", "-1", "-o", str(tmp_path / "x")) == 2


class TestConfigFile:
    def test_config_supplies_flags_and_cli_overrides(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"kind": "kernel", "n": 30,
                                    "block_min": 8, "block_max": 12,
                                    "overlaps": [0], "feature_dim": 40,
                                    "seed": 5}))
        out1 = tmp_path / "a.csv"
        assert run("--config", str(cfgf), "gen", "-o", str(out1)) == 0
        assert bio.load_matrix_csv(out1).shape == (30, 30)
        out2 = tmp_path / "b.csv"
        assert run("--config", str(cfgf), "gen", "--n", "24",
                   "-o", str(out2)) == 0
        assert bio.load_matrix_csv(out2).shape == (24, 24)
