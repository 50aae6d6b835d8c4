import numpy as np
import pytest

import loop_oracles as oracle
from blockdpp import cpd_metrics as cm
from blockdpp import cpd_pipeline as cp


def profile(values, window=5):
    v = np.asarray(values, dtype=np.float64)
    return cm.DissimilarityProfile(window=window,
                                   times=np.arange(window, window + v.size),
                                   values=v)


class TestDetectionConfig:
    def test_defaults_valid(self):
        cfg = cp.DetectionConfig()
        assert cfg.window == 50 and cfg.metric == "symkl"

    def test_validation(self):
        with pytest.raises(ValueError):
            cp.DetectionConfig(window=1)
        with pytest.raises(ValueError):
            cp.DetectionConfig(sigma=0.0)
        with pytest.raises(ValueError):
            cp.DetectionConfig(gamma=-1)
        with pytest.raises(ValueError):
            cp.DetectionConfig(metric="nope")


class TestPickCandidates:
    def test_interior_peaks_above_mean(self):
        c = cp.pick_candidates(profile([0, 5, 0, 1, 0, 6, 0]))
        assert np.array_equal(c.times - 5, [1, 5])

    def test_plateau_counts_once_leftmost(self):
        c = cp.pick_candidates(profile([0, 5, 5, 5, 0, 0, 0]))
        assert np.array_equal(c.times - 5, [1])

    def test_boundaries_excluded(self):
        c = cp.pick_candidates(profile([9, 0, 0, 0, 9]))
        assert c.times.size == 0

    def test_at_or_below_mean_excluded(self):
        # peak at value 2 is below the mean (pulled up by the tall peak)
        c = cp.pick_candidates(profile([0, 2, 0, 90, 0]))
        assert np.array_equal(c.times - 5, [3])

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            cp.pick_candidates(profile([]))


class TestCandidateQuality:
    def test_single_candidate_distinct_regimes(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.standard_normal(100),
                            rng.standard_normal(100) + 6.0])
        prof = cm.dissimilarity_profile(X, 30)
        cand = cm.DissimilarityProfile(window=30,
                                       times=np.array([100]),
                                       values=np.array([1.0]))
        cs = cp.CandidateSet(times=cand.times, scores=cand.values, profile=prof)
        q, flags = cp.candidate_quality(X, cs, cp.DetectionConfig(window=30))
        assert q.size == 1 and q[0] > 1.0 and not flags

    def test_homogeneous_middle_has_small_quality(self):
        rng = np.random.default_rng(1)
        X = np.concatenate([rng.standard_normal(100) + 8.0,
                            rng.standard_normal(200),
                            rng.standard_normal(100) - 8.0])
        prof = cm.dissimilarity_profile(X, 30)
        # true changes at 100 and 300, spurious candidate at 200
        cs = cp.CandidateSet(times=np.array([100, 200, 300]),
                             scores=np.ones(3), profile=prof)
        q, _ = cp.candidate_quality(X, cs, cp.DetectionConfig(window=30))
        assert q[1] < q[0] and q[1] < q[2]

    def test_empty_candidates(self):
        q, flags = cp.candidate_quality(np.zeros(100), cp.CandidateSet(
            times=np.empty(0), scores=np.empty(0), profile=profile([0.0])),
            cp.DetectionConfig())
        assert q.size == 0 and flags == []

    def test_degenerate_segment_flagged(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal(200)
        # candidates 2 and 3 leave a 1-sample segment between them
        cs = cp.CandidateSet(times=np.array([2, 3, 100]), scores=np.ones(3),
                             profile=profile([0.0]))
        q, flags = cp.candidate_quality(X, cs, cp.DetectionConfig())
        assert flags  # the degenerate neighbours are flagged
        assert np.all(q > 0)


    @pytest.mark.parametrize("metric", ["symkl", "glr_gaussian"])
    def test_matches_loop(self, metric):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((300, 2)) + 1e5
        X[120:] += [3.0, -1.0]
        # degenerate neighbours at 2/3 and 297/298, ordinary ones between
        times = np.array([2, 3, 40, 41, 120, 200, 297, 298])
        cs = cp.CandidateSet(times=times, scores=np.ones(times.size),
                             profile=profile([0.0]))
        cfg = cp.DetectionConfig(metric=metric, quality_exponent=1.3)
        q, flags = cp.candidate_quality(X, cs, cfg)
        q_ref, flags_ref = oracle.candidate_quality(X, times, cfg,
                                                    cp.EPS_QUALITY)
        np.testing.assert_allclose(q, q_ref, rtol=1e-7)
        assert flags == flags_ref == [0, 1, 2, 3, 6, 7]

    def test_event_quality_matches_loop(self):
        rng = np.random.default_rng(4)
        E = np.cumsum(np.concatenate([rng.exponential(1.0, 100),
                                      rng.exponential(0.2, 200)]))
        # neighbours closer than two events, a candidate before the second
        # event, and ordinary candidates
        times = np.array([E[1] - 1e-3, E[30], E[30] + 1e-6, E[99], E[150],
                          E[-1] - 1e-3])
        cfg = cp.DetectionConfig(metric="glr_poisson")
        q, flags = cp._event_quality(E, times, cfg)
        q_ref, flags_ref = oracle.event_quality(E, times, cfg, cp.EPS_QUALITY)
        np.testing.assert_allclose(q, q_ref, rtol=1e-12)
        assert flags == flags_ref and 0 in flags and 1 in flags


class TestBuildCpdKernel:
    def test_single_candidate(self):
        kern, part = cp.build_cpd_kernel([10.0], [2.0], sigma=5.0)
        assert kern.L.shape == (1, 1)
        assert kern.L[0, 0] == pytest.approx(4.0)
        assert part.block_sizes == (1,)

    def test_far_candidates_split_at_gamma0(self):
        kern, part = cp.build_cpd_kernel([0.0, 100.0], [1.5, 1.5], sigma=10.0)
        assert kern.L[0, 1] == 0.0
        assert part.block_sizes == (1, 1)

    def test_close_candidates_merge(self):
        kern, part = cp.build_cpd_kernel([0.0, 5.0], [1.5, 1.5], sigma=10.0)
        assert part.m == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            cp.build_cpd_kernel([], [], sigma=1.0)
        with pytest.raises(ValueError):
            cp.build_cpd_kernel([1.0, 2.0], [1.0], sigma=1.0)


class TestGenerators:
    def test_gaussian_shapes_and_truth(self):
        X, truth = cp.generate_piecewise_gaussian(
            0, [(100, 0.0, 1.0), (50, 3.0, 1.0), (80, 0.0, 1.0)])
        assert X.shape == (230, 1)
        assert np.array_equal(truth, [100.0, 150.0])

    def test_gaussian_deterministic(self):
        segs = [(50, 0.0, 1.0), (50, 2.0, 1.0)]
        X1, _ = cp.generate_piecewise_gaussian(7, segs)
        X2, _ = cp.generate_piecewise_gaussian(7, segs)
        assert np.array_equal(X1, X2)

    def test_gaussian_multivariate(self):
        X, _ = cp.generate_piecewise_gaussian(
            0, [(60, [0.0, 1.0], np.eye(2)), (60, [3.0, 1.0], 2.0)])
        assert X.shape == (120, 2)

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            cp.generate_piecewise_gaussian(0, [])
        with pytest.raises(ValueError):
            cp.generate_piecewise_gaussian(0, [(1, 0.0, 1.0)])
        with pytest.raises(ValueError):
            cp.generate_piecewise_gaussian(
                0, [(10, [0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))])

    def test_poisson_events(self):
        E, truth = cp.generate_poisson_events(0, [(100, 1.0), (100, 5.0)])
        assert np.all(np.diff(E) > 0)
        assert np.array_equal(truth, [100.0])
        # roughly 100 + 500 events
        assert 400 <= E.size <= 800

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            cp.generate_poisson_events(0, [])
        with pytest.raises(ValueError):
            cp.generate_poisson_events(0, [(0.0, 1.0)])


class TestDetectChangePoints:
    def test_five_mean_shifts_within_window(self):
        means = [0.0, 4.0, 0.0, 4.0, 0.0, 4.0]
        X, truth = cp.generate_piecewise_gaussian(
            0, [(200, m, 1.0) for m in means])
        cfg = cp.DetectionConfig()
        rep = cp.detect_change_points(X, cfg)
        for t in truth:
            assert np.min(np.abs(rep.selected - t)) <= cfg.window

    def test_homogeneous_noise_near_empty(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal(400)
        rep = cp.detect_change_points(X, cp.DetectionConfig())
        assert rep.selected.size <= 1

    def test_constant_series_empty(self):
        rep = cp.detect_change_points(np.zeros(400), cp.DetectionConfig())
        assert rep.selected.size == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            cp.detect_change_points(np.zeros(80), cp.DetectionConfig(window=50))

    def test_deterministic(self):
        X, _ = cp.generate_piecewise_gaussian(
            3, [(150, 0.0, 1.0), (150, 3.0, 1.0)])
        r1 = cp.detect_change_points(X, cp.DetectionConfig())
        r2 = cp.detect_change_points(X, cp.DetectionConfig())
        assert np.array_equal(r1.selected, r2.selected)

    def test_report_json_shape(self):
        X, _ = cp.generate_piecewise_gaussian(
            3, [(150, 0.0, 1.0), (150, 3.0, 1.0)])
        rep = cp.detect_change_points(X, cp.DetectionConfig())
        d = rep.to_json_dict()
        assert set(d) == {"config", "candidates", "selected", "timings_ms"}
        assert "timings_ms" not in rep.to_json_dict(include_timings=False)


class TestDetectEvents:
    def test_two_rate_poisson(self):
        E, truth = cp.generate_poisson_events(10, [(100, 1.0), (100, 5.0)])
        cfg = cp.DetectionConfig(metric="glr_poisson")
        rep = cp.detect_change_points_events(E, cfg)
        assert np.min(np.abs(rep.selected - truth[0])) <= cfg.window


class TestStageLoop:
    @pytest.mark.parametrize("detect, data, cfg", [
        (cp.detect_change_points, np.zeros(400), cp.DetectionConfig()),
        # evenly spaced events: every window holds the same count, so the
        # profile is flat and has no peak
        (cp.detect_change_points_events, np.arange(500.0),
         cp.DetectionConfig(metric="glr_poisson")),
    ])
    def test_no_candidates_gives_the_same_report_shape(self, detect, data, cfg):
        rep = detect(data, cfg)
        assert rep.candidates.times.size == 0
        assert rep.qualities.size == 0 and rep.selected.size == 0
        assert rep.degenerate_candidates == []
        assert set(rep.timings_ms) == {"profile", "candidates"}

    def test_each_stage_is_called_once_through_its_module(self, monkeypatch):
        calls = {}

        def counting(mod, name):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        for name in ("pick_candidates", "candidate_quality", "build_cpd_kernel"):
            counting(cp, name)
        counting(cp.mi, "blockwise_map")
        counting(cm, "dissimilarity_profile")
        X, _ = cp.generate_piecewise_gaussian(
            3, [(150, 0.0, 1.0), (150, 3.0, 1.0)])
        rep = cp.detect_change_points(X, cp.DetectionConfig())
        assert rep.selected.size
        assert calls == dict.fromkeys(
            ("pick_candidates", "candidate_quality", "build_cpd_kernel",
             "blockwise_map", "dissimilarity_profile"), 1)
        assert list(rep.timings_ms) == ["profile", "candidates", "quality",
                                        "kernel", "inference"]


class TestDetector:
    def test_poisson_metric_reads_events_and_the_rest_a_series(self):
        assert cp.detector("glr_poisson") is cp.detect_change_points_events
        for metric in set(cm.METRICS) - {"glr_poisson"}:
            assert cp.detector(metric) is cp.detect_change_points
