import json
from dataclasses import fields

import numpy as np
import pytest

from blockdpp import cli
from blockdpp import io as bio
from blockdpp.cpd_pipeline import DetectionConfig, generate_piecewise_gaussian


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

    @pytest.mark.parametrize("mode", ["full", "blockwise"])
    def test_non_psd_kernel_is_runtime_error(self, mode, tmp_path, capsys):
        kf = tmp_path / "bad.csv"
        kf.write_text("2,3\n3,2\n")
        assert run("map", "--kernel", str(kf), "--mode", mode,
                   "-o", str(tmp_path / "x.json")) == 1
        assert "bad.csv" in capsys.readouterr().err

    def test_default_generated_kernel_is_accepted(self, tmp_path):
        kf = tmp_path / "k.csv"
        assert run("gen", "--kind", "kernel", "-o", str(kf)) == 0
        assert run("map", "--kernel", str(kf), "-o",
                   str(tmp_path / "x.json")) == 0

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

    @pytest.fixture
    def event_detection(self, tmp_path):
        spec = tmp_path / "esegs.json"
        spec.write_text(json.dumps([{"duration": 100, "rate": 1.0},
                                    {"duration": 100, "rate": 5.0}]))
        ev = tmp_path / "ev.csv"
        assert run("gen", "--kind", "poisson", "--segments", str(spec),
                   "--seed", "10", "-o", str(ev)) == 0
        out = tmp_path / "edet.json"
        assert run("detect", "--events", str(ev), "--metric", "glr-poisson",
                   "-o", str(out)) == 0
        return out, tmp_path / "ev.truth.json", ev

    def test_roc_input_must_fit_the_report_metric(self, detection,
                                                  event_detection, tmp_path):
        rep, truth, ts = detection
        erep, etruth, ev = event_detection
        roc = ("--roc", "--sigma-grid", "100:200:2", "-o", str(tmp_path / "r.json"))
        assert run("eval", "--report", str(erep), "--truth", str(etruth),
                   "--events", str(ev), *roc) == 0
        assert run("eval", "--report", str(erep), "--truth", str(etruth),
                   "--series", str(ts), *roc) == 1
        assert run("eval", "--report", str(rep), "--truth", str(truth),
                   "--events", str(ev), *roc) == 1

    def test_roc_without_input_is_a_runtime_error(self, detection, tmp_path,
                                                 capsys):
        rep, truth, _ = detection
        assert run("eval", "--report", str(rep), "--truth", str(truth),
                   "--roc", "--sigma-grid", "100:200:2",
                   "-o", str(tmp_path / "r.json")) == 1
        assert "requires --series input" in capsys.readouterr().err

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

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Run the CLI; return the arguments its subcommand handler got."""
        seen = {}
        for name in cli._HANDLERS:
            monkeypatch.setitem(cli._HANDLERS, name,
                                lambda args: seen.update(args=args))

        def parse(*argv):
            assert run(*argv) == 0
            return seen.pop("args")
        return parse

    def test_keys_of_other_subcommands_are_ignored(self, parsed, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"n": 30, "window": 7, "kernels": 3,
                                    "mode": "blockwise"}))
        args = parsed("--config", str(cfgf), "gen", "--kind", "kernel",
                      "-o", "k.csv")
        assert args.n == 30
        assert not any(hasattr(args, k) for k in ("window", "kernels", "mode"))
        args = parsed("--config", str(cfgf), "detect", "--series", "ts.csv",
                      "-o", "d.json")
        assert args.window == 7 and not hasattr(args, "n")

    def test_explicit_flags_win(self, parsed, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"window": 7, "sigma": 50.0,
                                    "metric": "glr-gaussian", "gammas": [1]}))
        args = parsed("--config", str(cfgf), "detect", "--series", "ts.csv",
                      "-w", "9", "--metric", "symkl", "-o", "d.json")
        assert (args.window, args.sigma, args.metric) == (9, 50.0, "symkl")
        args = parsed("--config", str(cfgf), "bench", "--gammas", "0,2",
                      "-o", "b.json")
        assert args.gammas == [0, 2]


    @pytest.mark.parametrize("command", sorted(cli._REQUIRED))
    def test_every_subcommand_takes_a_config(self, parsed, command, tmp_path):
        # the config's flags are listed by parsing no arguments, which
        # fails if a subcommand has an argparse-required flag
        required = {dest: "x" for dest in cli._REQUIRED[command]}
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({**required, "kind": "kernel",
                                    "series": "ts.csv", "report": "r.json"}))
        args = parsed("--config", str(cfgf), command)
        assert all(getattr(args, dest) is not None for dest in required)

    @pytest.mark.parametrize("content", [None, "{", "[1]"])
    def test_bad_config_file_is_a_runtime_error(self, content, tmp_path,
                                                capsys):
        cfgf = tmp_path / "cfg.json"
        if content is not None:
            cfgf.write_text(content)
        assert run("--config", str(cfgf), "gen", "--kind", "kernel",
                   "-o", str(tmp_path / "k.csv")) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestDetectFlags:
    def test_every_detection_config_field_is_a_detect_flag(self):
        parser, commands = cli.build_parser()
        flags = vars(commands.choices["detect"].parse_args([]))
        assert {f.name for f in fields(DetectionConfig)} <= set(flags)


class TestLibraryDefaults:
    """A run on the defaults writes what the library defaults spelt out write."""

    SPEC = ("--n", "500", "--block-min", "10", "--block-max", "30",
            "--overlaps", "0,2,4,6", "--feature-dim", "50", "--seed", "0")

    def assert_same_files(self, a, b):
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir()) and names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_gen(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert run("gen", "--kind", "kernel", "-o", str(a / "k.csv")) == 0
        assert run("gen", "--kind", "kernel", *self.SPEC,
                   "-o", str(b / "k.csv")) == 0
        self.assert_same_files(a, b)

    def test_bench(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        small = ("--kernels", "1", "--n", "60", "--no-timing")
        assert run("bench", *small, "-o", str(a / "bench.json")) == 0
        assert run("bench", *self.SPEC, *small, "--gammas", "0,2,4,6",
                   "--repeats", "3", "-o", str(b / "bench.json")) == 0
        self.assert_same_files(a, b)

    def test_detect(self, series_files, tmp_path):
        ts, _ = series_files
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert run("detect", "--series", str(ts), "--no-timing",
                   "-o", str(a / "det.json")) == 0
        assert run("detect", "--series", str(ts), "--no-timing",
                   "-w", "50", "--sigma", "200", "--gamma", "0",
                   "--metric", "symkl", "--delta-reg", "1e-6",
                   "--eps-zero", "1e-12", "--quality-gain", "1.5",
                   "--quality-exponent", "1", "--event-step", "1",
                   "-o", str(b / "det.json")) == 0
        self.assert_same_files(a, b)
