import json
from dataclasses import fields

import numpy as np
import pytest

from blockdpp import cli
from blockdpp import io as bio
from blockdpp import matrix_core as mc
from blockdpp.cpd_pipeline import (DetectionConfig, generate_piecewise_gaussian,
                                   generate_poisson_events)
from blockdpp.kernel_model import BlockPartition


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
        part = BlockPartition.from_json_dict(
            bio.load_json(kernel_file.with_name("k.partition.json")))
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

    @pytest.mark.parametrize("segment", ['{"duration": NaN, "rate": 1.0}',
                                         '{"duration": Infinity, "rate": 1.0}',
                                         '{"duration": 50, "rate": NaN}'])
    def test_poisson_rejects_non_finite_json_segments(self, tmp_path, segment,
                                                      capsys):
        # Python's json reads NaN and Infinity; each of these never returned
        spec = tmp_path / "segs.json"
        spec.write_text(f"[{segment}]")
        assert run("gen", "--kind", "poisson", "--segments", str(spec),
                   "-o", str(tmp_path / "ev.csv")) == 1
        assert "finite" in capsys.readouterr().err

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
        bio.save_csv(kf, L)
        out = tmp_path / "map.json"
        assert run("map", "--kernel", str(kf), "--mode", "full", "--oracle",
                   "-o", str(out)) == 0
        d = bio.load_json(out)
        assert d["oracle"] == [0, 2] and d["oracle_match"] is True

    def test_tiny_pick_has_finite_log_det(self, tmp_path):
        kf = tmp_path / "tiny.csv"
        bio.save_csv(kf, np.diag([5e-11, 2.0]))
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

    @pytest.mark.parametrize("argv", [
        ("--mode", "full"), ("--mode", "blockwise", "--gamma", "2"),
        ("--mode", "full", "--oracle"),
        ("--mode", "blockwise", "--gamma", "2", "--oracle")])
    def test_kernel_scanned_once(self, argv, tmp_path, monkeypatch):
        # load_matrix_csv's as_psd is the one scan; inference, partition,
        # log-det and oracle all read the kernel it returns
        kf = tmp_path / "k.csv"
        assert run("gen", "--kind", "kernel", "--n", "16", "--block-min", "4",
                   "--block-max", "6", "--overlaps", "0,2", "--feature-dim",
                   "20", "-o", str(kf)) == 0
        scanned = []
        scan = mc._asymmetry
        monkeypatch.setattr(mc, "_asymmetry",
                            lambda A: scanned.append(A.shape) or scan(A))
        assert run("map", "--kernel", str(kf), *argv,
                   "-o", str(tmp_path / "x.json")) == 0
        assert scanned == [(16, 16)]

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
        bio.save_csv(ts, np.random.default_rng(0).standard_normal((300, 80)))
        assert run("detect", "--series", str(ts), "-w", "50",
                   "-o", str(tmp_path / "x.json")) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_event_is_runtime_error(self, tmp_path, capsys, bad):
        times = [f"{t:g}" for t in np.arange(0.0, 200.0, 0.5)]
        times[100] = bad
        ev = tmp_path / "ev.csv"
        ev.write_text("\n".join(times) + "\n")
        assert run("detect", "--events", str(ev), "--metric", "glr-poisson",
                   "-o", str(tmp_path / "x.json")) == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [("--eps-zero", "eps_zero"),
                                             ("--sigma", "sigma")])
    def test_nan_config_float_is_runtime_error(self, tmp_path, capsys, flag,
                                               field):
        # five segments with four true changes; with --eps-zero nan every
        # cut of the candidate kernel would count as valid
        X, _ = generate_piecewise_gaussian(
            0, [(200, m, 1.0) for m in (0, 3, 0, 3, 6)])
        ts = tmp_path / "ts.csv"
        ts.write_text("".join(f"{x:.17g}\n" for x in X[:, 0]))
        assert run("detect", "--series", str(ts), flag, "nan",
                   "-o", str(tmp_path / "x.json")) == 1
        assert field in capsys.readouterr().err

    def test_truncating_eps_zero_runs(self, tmp_path):
        # both runs exited 1 on a runtime PSD check of the truncated S
        X, _ = generate_piecewise_gaussian(
            0, [(200, m, 1.0) for m in (0, 3, 0, 3, 6)])
        ts = tmp_path / "ts.csv"
        bio.save_csv(ts, X)
        out = tmp_path / "s.json"
        assert run("detect", "--series", str(ts), "--eps-zero", "1e-4",
                   "-o", str(out)) == 0
        assert bio.load_json(out)["selected"] == [200, 380, 600, 800]
        rng = np.random.default_rng([1, 0])
        E, _ = generate_poisson_events(1, [
            (200.0, float(r))
            for r in rng.permutation(np.resize([1.0, 3.0, 8.0], 12))])
        ev = tmp_path / "ev.csv"
        bio.save_csv(ev, E)
        assert run("detect", "--events", str(ev), "-w", "20", "--metric",
                   "glr-poisson", "--eps-zero", "1e-8",
                   "-o", str(tmp_path / "e.json")) == 0

    def test_zero_quality_gain_is_one_error_line(self, series_files, tmp_path,
                                                 capsys):
        ts, _ = series_files
        assert run("detect", "--series", str(ts), "--quality-gain", "0",
                   "-o", str(tmp_path / "x.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "quality_gain" in err
        assert len(err.splitlines()) == 1


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

    @pytest.mark.parametrize("tol", ["-5", "nan"])
    def test_rejects_negative_or_nan_tolerance(self, detection, tmp_path,
                                               capsys, tol):
        rep, truth, _ = detection
        out = tmp_path / "eval.json"
        assert run("eval", "--report", str(rep), "--truth", str(truth),
                   "--tol", tol, "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tolerance" in err
        assert not out.exists()

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


class TestJsonInputs:
    """Each JSON file the CLI reads is checked where it is read: a file of
    the wrong shape exits 1 with one error line naming it."""

    @pytest.fixture
    def detection(self, series_files, tmp_path):
        ts, truth = series_files
        out = tmp_path / "det.json"
        assert run("detect", "--series", str(ts), "-o", str(out)) == 0
        return bio.load_json(out), truth

    def assert_one_error_line(self, capsys, argv, path):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind,segments", [
        ("gaussian", {"length": 100, "mean": 0.0, "cov": 1.0}),
        ("poisson", [1, 2]),
        ("poisson", [{"duration": 50}]),
    ])
    def test_segments(self, kind, segments, tmp_path, capsys):
        spec = tmp_path / "segs.json"
        spec.write_text(json.dumps(segments))
        self.assert_one_error_line(capsys, ("gen", "--kind", kind, "--segments",
                                            str(spec), "-o", str(tmp_path / "x.csv")),
                                   spec)

    @pytest.mark.parametrize("edit", [
        lambda d: [d],
        lambda d: {**d, "config": {**d["config"], "bogus": 1}},
        lambda d: {**d, "config": {**d["config"], "window": "50"}},
        lambda d: {**d, "config": [1]},
    ])
    def test_report(self, detection, edit, tmp_path, capsys):
        report, truth = detection
        rep = tmp_path / "bad.json"
        rep.write_text(json.dumps(edit(report)))
        self.assert_one_error_line(capsys, ("eval", "--report", str(rep), "--truth",
                                            str(truth), "-o", str(tmp_path / "e.json")),
                                   rep)

    @pytest.mark.parametrize("truth", [[150.0], {"change": [150.0]}])
    def test_truth(self, detection, truth, tmp_path, capsys):
        report, _ = detection
        rep, tru = tmp_path / "rep.json", tmp_path / "bad.json"
        rep.write_text(json.dumps(report))
        tru.write_text(json.dumps(truth))
        self.assert_one_error_line(capsys, ("eval", "--report", str(rep), "--truth",
                                            str(tru), "-o", str(tmp_path / "e.json")),
                                   tru)


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

    def test_non_integer_config_gamma_is_one_error_line(self, series_files,
                                                       tmp_path, capsys):
        # a config value skips the flag's type, and gamma 1.5 ended in a
        # TypeError traceback from slicing
        ts, _ = series_files
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"gamma": 1.5}))
        assert run("--config", str(cfgf), "detect", "--series", str(ts),
                   "-o", str(tmp_path / "x.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gamma" in err
        assert len(err.splitlines()) == 1

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
