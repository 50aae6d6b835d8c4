from dataclasses import replace

import numpy as np
import pytest

from blockdpp import cpd_pipeline as cp
from blockdpp import evaluation as ev
from blockdpp import kernel_model as km


class TestMatchChanges:
    def test_one_to_one_within_tolerance(self):
        m = ev.match_changes([10.0, 50.0], [12.0, 90.0], tolerance=5.0)
        assert m.pairs == [(10.0, 12.0)]
        assert m.unmatched_detected == [50.0]
        assert m.unmatched_truth == [90.0]

    def test_each_truth_used_once(self):
        m = ev.match_changes([10.0, 11.0], [10.0], tolerance=5.0)
        assert m.cfc == 1
        assert m.pairs == [(10.0, 10.0)]

    def test_distance_tie_prefers_earlier_truth(self):
        m = ev.match_changes([10.0], [5.0, 15.0], tolerance=5.0)
        assert m.pairs == [(10.0, 5.0)]

    def test_closest_pairing_wins(self):
        m = ev.match_changes([10.0, 13.0], [12.0], tolerance=5.0)
        assert m.pairs == [(13.0, 12.0)]

    def test_zero_tolerance_matches_exact_hits(self):
        m = ev.match_changes([10.0, 50.0], [10.0, 52.0], tolerance=0.0)
        assert m.pairs == [(10.0, 10.0)]

    @pytest.mark.parametrize("tol", [-1.0, -np.inf, np.nan])
    def test_rejects_negative_or_nan_tolerance(self, tol):
        # each was scored as an F1 of 0 for an exact hit
        with pytest.raises(ValueError, match="tolerance"):
            ev.match_changes([10.0, 50.0], [10.0, 52.0], tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["detected", "truth"])
    def test_rejects_non_finite_times(self, side, bad):
        # a NaN detection was counted as one more miss
        times = {"detected": [10.0, 50.0], "truth": [10.0, 52.0]}
        times[side] = times[side] + [bad]
        with pytest.raises(ValueError, match=f"{side} times"):
            ev.match_changes(times["detected"], times["truth"], 5.0)


class TestPrecisionRecallF1:
    def score(self, det, truth, tol=5.0):
        return ev.precision_recall_f1(ev.match_changes(det, truth, tol))

    def test_perfect(self):
        s = self.score([10.0, 20.0], [10.0, 20.0])
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_half_precision(self):
        s = self.score([10.0, 50.0], [10.0])
        assert s.precision == 0.5 and s.recall == 1.0
        assert s.f1 == pytest.approx(2 / 3)

    def test_no_detections_with_truth(self):
        s = self.score([], [10.0])
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_repeated_detection_is_a_false_positive(self):
        s = self.score([100.0, 100.0], [100.0, 300.0])
        assert (s.precision, s.recall) == (0.5, 0.5)

    def test_nothing_to_detect_and_nothing_detected(self):
        s = self.score([], [])
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_false_alarms_only(self):
        s = self.score([10.0], [])
        assert (s.precision, s.recall, s.f1) == (0.0, 1.0, 0.0)


class TestRocSweep:
    def test_points_per_sigma(self):
        X, truth = cp.generate_piecewise_gaussian(
            0, [(150, 0.0, 1.0), (150, 4.0, 1.0)])
        cfg = cp.DetectionConfig()
        pts = ev.roc_sweep(X, truth, cfg, [100.0, 200.0])
        assert len(pts) == 2
        for s, fpr, tpr in pts:
            assert 0.0 <= fpr <= 1.0 and 0.0 <= tpr <= 1.0
        assert pts[0][0] == 100.0 and pts[1][0] == 200.0

    def test_poisson_metric_runs_event_detection(self):
        E, truth = cp.generate_poisson_events(
            10, [(100.0, 1.0), (100.0, 5.0)])
        cfg = cp.DetectionConfig(metric="glr_poisson")
        ref = []
        for s in (50.0, 100.0):
            rep = cp.detect_change_points_events(E, replace(cfg, sigma=s))
            score = ev.precision_recall_f1(
                ev.match_changes(rep.selected, truth, cfg.window))
            ref.append((s, 1.0 - score.precision, score.recall))
        assert ev.roc_sweep(E, truth, cfg, [100.0, 50.0]) == ref

    def test_grid_validation(self):
        cfg = cp.DetectionConfig()
        with pytest.raises(ValueError):
            ev.roc_sweep(np.zeros(300), [], cfg, [])
        with pytest.raises(ValueError):
            ev.roc_sweep(np.zeros(300), [], cfg, [-1.0])

    def test_rejects_negative_tolerance(self):
        X, truth = cp.generate_piecewise_gaussian(
            0, [(150, 0.0, 1.0), (150, 4.0, 1.0)])
        with pytest.raises(ValueError, match="tolerance"):
            ev.roc_sweep(X, truth, cp.DetectionConfig(), [100.0], tolerance=-1.0)


class TestBenchmarkMap:
    def test_report_shape(self):
        spec = km.SyntheticKernelSpec(N=60, block_size_range=(10, 20),
                                      overlap_choices=(0, 2), feature_dim=80,
                                      seed=0)
        rep = ev.benchmark_map(spec, n_kernels=2, gamma_list=(0, 2), repeats=1)
        assert rep.n_kernels == 2
        assert [g.gamma for g in rep.per_gamma] == [0, 2]
        for g in rep.per_gamma:
            assert g.mean_log_prob_ratio <= 1e-9
            assert g.mean_blocks >= 1.0
        d = rep.to_json_dict()
        assert set(d) == {"spec", "n_kernels", "per_gamma"}

    def test_block_diagonal_control_is_exact(self):
        spec = km.SyntheticKernelSpec(N=60, block_size_range=(10, 20),
                                      overlap_choices=(0,), feature_dim=80,
                                      seed=3)
        rep = ev.benchmark_map(spec, n_kernels=3, gamma_list=(0,), repeats=1)
        assert rep.per_gamma[0].mean_log_prob_ratio == 0.0

    def test_needs_at_least_one_kernel(self):
        with pytest.raises(ValueError):
            ev.benchmark_map(km.SyntheticKernelSpec(N=60), 0)
