import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import loop_oracles as oracle
from blockdpp import cpd_metrics as cm
from blockdpp import cpd_pipeline as cp
from blockdpp import kernel_model as km
from blockdpp import map_inference as mi
from blockdpp import matrix_core as mc
from blockdpp.errors import NonFinite


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

    @pytest.mark.parametrize("field, value", [
        ("eps_zero", np.nan), ("eps_zero", -1e-9),
        ("sigma", np.nan), ("sigma", np.inf)])
    def test_rejects_nan_and_out_of_range_floats(self, field, value):
        # with eps_zero NaN, |L| > eps_zero is false everywhere and every cut
        # of the partition would count as valid
        with pytest.raises(ValueError, match=field):
            cp.DetectionConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("delta_reg", np.nan), ("delta_reg", -1e-6), ("delta_reg", np.inf),
        ("quality_gain", 0.0), ("quality_gain", -1.0), ("quality_gain", np.nan),
        ("quality_gain", np.inf), ("quality_exponent", np.nan),
        ("quality_exponent", -1.0), ("quality_exponent", np.inf),
        ("event_step", 0.0), ("event_step", -1.0), ("event_step", np.nan),
        ("event_step", np.inf)])
    def test_rejects_bad_metric_and_quality_settings(self, field, value):
        # delta_reg NaN, quality_gain 0 or -1 each selected nothing, with no
        # error, on a series with four true changes
        with pytest.raises(ValueError, match=field):
            cp.DetectionConfig(**{field: value})

    @pytest.mark.parametrize("gamma", [2.0, 1.5, float("nan")])
    def test_rejects_non_integer_gamma(self, gamma):
        # gamma=2.0 used to fail with a TypeError from slicing, at detection
        with pytest.raises(ValueError, match="gamma"):
            cp.DetectionConfig(gamma=gamma)

    @pytest.mark.parametrize("window", [np.nan, np.inf])
    def test_rejects_non_finite_window(self, window):
        # both passed window < 2; detection then failed converting NaN to an
        # integer, with an OverflowError, or in np.arange
        with pytest.raises(ValueError, match="window"):
            cp.DetectionConfig(window=window)

    def test_zero_eps_zero_is_valid(self):
        assert cp.DetectionConfig(eps_zero=0.0).eps_zero == 0.0

    @pytest.mark.parametrize("field", ["delta_reg", "quality_exponent"])
    def test_zero_regularisation_and_exponent_are_valid(self, field):
        assert getattr(cp.DetectionConfig(**{field: 0.0}), field) == 0.0


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
        assert kern.shape == (1, 1)
        assert np.asarray(kern)[0, 0] == pytest.approx(4.0)
        assert part.block_sizes == (1,)

    def test_far_candidates_split_at_gamma0(self):
        kern, part = cp.build_cpd_kernel([0.0, 100.0], [1.5, 1.5], sigma=10.0)
        assert np.asarray(kern)[0, 1] == 0.0
        assert part.block_sizes == (1, 1)

    def test_close_candidates_merge(self):
        kern, part = cp.build_cpd_kernel([0.0, 5.0], [1.5, 1.5], sigma=10.0)
        assert part.m == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            cp.build_cpd_kernel([], [], sigma=1.0)
        with pytest.raises(ValueError):
            cp.build_cpd_kernel([1.0, 2.0], [1.0], sigma=1.0)

    @staticmethod
    def candidates(n, seed=0):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.integers(2, 12, n)).astype(np.float64)
        return t, rng.uniform(0.2, 3.0, n)

    @pytest.mark.parametrize("sigma", [5.0, 50.0, 200.0])
    @pytest.mark.parametrize("eps_zero", [0.0, km.DEFAULT_EPS_ZERO, 1e-4])
    @pytest.mark.parametrize("gamma", [0, 3])
    def test_matches_the_two_step_formula(self, sigma, eps_zero, gamma):
        # the kernel built in one buffer, against S and L built as
        # separate arrays
        t, q = self.candidates(300)
        D = t[:, None] - t[None, :]
        S_ref = np.exp(-(D * D) / (sigma * sigma))
        S_ref[S_ref < eps_zero] = 0.0
        np.fill_diagonal(S_ref, 1.0)
        L_ref = q[:, None] * S_ref * q[None, :]
        kern, part = cp.build_cpd_kernel(t, q, sigma, gamma, eps_zero)
        assert np.array_equal(np.asarray(kern), L_ref)
        assert np.array_equal(kern.quality, q)
        assert part == km.gamma_partition(L_ref, gamma, eps_zero)

    def test_no_factorisation(self, monkeypatch):
        # S is PSD up to its truncation by construction (see
        # gaussian_position_similarity), so detection does not factor it
        def factor(*args, **kwargs):
            raise AssertionError("factorisation called")

        monkeypatch.setattr(mc, "as_psd", factor)
        monkeypatch.setattr(np.linalg, "cholesky", factor)
        t, q = self.candidates(50)
        kern, _ = cp.build_cpd_kernel(t, q, sigma=20.0, eps_zero=1e-4)
        assert kern.shape == (50, 50)

    @staticmethod
    def run_stages(kern, part, require_initial_gain, seen=None):
        """detection's inference stage on kern; seen records, per block,
        whether its sub-solver got a CandidateKernel"""
        def solver(K):
            if seen is not None:
                seen.append(isinstance(K, km.CandidateKernel))
            return mi.greedy_map(K, require_initial_gain)
        return mi.blockwise_map(kern, part, solver, collect_trace=False)[0]

    @pytest.mark.parametrize("require_initial_gain", [False, True])
    @pytest.mark.parametrize("gamma", [0, 3])
    def test_schur_step_on_kernel_blocks_matches_the_dense_run(
            self, require_initial_gain, gamma):
        # qualities of 1e-6 keep the entries between the items at 6 and 7
        # and their neighbours in (0, eps_zero]: the cuts around them stay
        # valid, yet the picks at 0 and 1 condition the block at 6, which is
        # densified for the Schur step
        rng = np.random.default_rng(2)
        t, q = [], []
        for c in range(12):
            t += (40.0 * c + np.array([0.0, 1.0, 6.0, 7.0, 14.0, 15.0])).tolist()
            q += [3.0, 2.5, 1e-6, 1e-6, 2.0 + rng.uniform(), 2.0]
        t, q = np.array(t), np.array(q)
        kern, part = cp.build_cpd_kernel(t, q, 4.0, gamma, 1e-4)
        L = np.asarray(kern)
        assert part.m > 1 and part == km.gamma_partition(L, gamma, 1e-4)
        seen = []
        sel = self.run_stages(kern, part, require_initial_gain, seen)
        assert False in seen[1:] and True in seen   # densified and not
        assert np.array_equal(sel, self.run_stages(L, part, require_initial_gain))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tiny_qualities_match_the_dense_run(self, seed):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.integers(1, 9, 200)).astype(np.float64)
        q = np.where(rng.random(200) < 0.3, 10 ** rng.uniform(-8, -3, 200),
                     rng.uniform(0.5, 3.0, 200))
        for gamma, eps_zero in ((0, 1e-4), (2, 1e-3), (0, 1e-12)):
            kern, part = cp.build_cpd_kernel(t, q, 3.0, gamma, eps_zero)
            L = np.asarray(kern)
            assert part == km.gamma_partition(L, gamma, eps_zero)
            for flag in (False, True):
                assert np.array_equal(self.run_stages(kern, part, flag),
                                      self.run_stages(L, part, flag))

    def test_kernel_and_inference_never_hold_an_n_by_n_array(self):
        # about 4000 candidates in clusters far apart next to sigma: the
        # dense build alone held n^2 float64 (128 MB)
        rng = np.random.default_rng(3)
        t = (np.repeat(np.arange(100) * 5000.0, 40)
             + np.tile(np.arange(40) * 25.0, 100) + rng.uniform(0, 5, 4000))
        q = rng.uniform(0.2, 3.0, t.size)
        n = t.size
        tracemalloc.start()
        try:
            kern, part = cp.build_cpd_kernel(t, q, sigma=200.0)
            sel = self.run_stages(kern, part, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert part.m >= 100 and sel.size > 100
        assert peak < n * n * 8 / 4, peak

    def test_peak_memory_is_one_kernel(self):
        n = 1500
        t, q = self.candidates(n)
        tracemalloc.start()
        try:
            cp.build_cpd_kernel(t, q, sigma=200.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8


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

    @pytest.mark.parametrize("duration, rate", [
        (np.nan, 1.0), (np.inf, 1.0), (10.0, np.nan), (10.0, np.inf)])
    def test_poisson_rejects_non_finite_segments(self, duration, rate):
        # each passed duration <= 0 or rate <= 0, and the draw loop then never
        # ended while its event list grew
        with pytest.raises(ValueError, match="finite"):
            cp.generate_poisson_events(0, [(10.0, 1.0), (duration, rate)])

    @pytest.mark.parametrize("mean, cov", [
        (np.nan, 1.0), (0.0, np.nan), ([0.0, np.inf], np.eye(2)),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]])])
    def test_gaussian_rejects_non_finite_segments(self, mean, cov):
        # a NaN mean or covariance returned an all-NaN series
        with pytest.raises(ValueError, match="finite"):
            cp.generate_piecewise_gaussian(0, [(10, mean, cov)])


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

    def test_fractional_window_raises(self):
        # the report and eval's default tolerance would say 50.9 while the
        # profile ran at 50; event windows are time widths and stay floats
        X, _ = cp.generate_piecewise_gaussian(
            0, [(150, 0.0, 1.0), (150, 4.0, 1.0)])
        with pytest.raises(ValueError, match="whole number"):
            cp.detect_change_points(X, cp.DetectionConfig(window=50.9))
        assert cp.detect_change_points(X, cp.DetectionConfig(window=50.0)).selected.size

    def test_overflowing_series_raises(self):
        # at 1e155 the centred squares overflow: every profile value would
        # be NaN, and detection would find no change-point and say nothing
        X, _ = cp.generate_piecewise_gaussian(
            0, [(300, 0.0, 1.0), (300, 3.0, 1.0)])
        rep = cp.detect_change_points(X * 1e150, cp.DetectionConfig())
        assert rep.selected.tolist() == [300]
        with pytest.raises(NonFinite, match="overflow"):
            cp.detect_change_points(X * 1e155, cp.DetectionConfig())

    def test_truncating_eps_zero_keeps_detection(self):
        # at eps_zero = 1e-4 the truncated S has a negative eigenvalue
        # (within the bound of gaussian_position_similarity), which a
        # runtime PSD check of S used to reject
        X, _ = cp.generate_piecewise_gaussian(
            0, [(200, m, 1.0) for m in (0, 3, 0, 3, 6)])
        rep = cp.detect_change_points(X, cp.DetectionConfig(eps_zero=1e-4))
        assert rep.selected.tolist() == [200, 380, 600, 800]

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

    def test_truncating_eps_zero_selects_the_same_times(self):
        # 12 segments of 200 with rates 1, 3 and 8: 246 candidates 2 apart at
        # least, where lambda_min(S) = -2.4e-8 at eps_zero = 1e-8 aborted a
        # runtime PSD check of S
        rng = np.random.default_rng([1, 0])
        E, _ = cp.generate_poisson_events(1, [
            (200.0, float(r))
            for r in rng.permutation(np.resize([1.0, 3.0, 8.0], 12))])
        cfg = cp.DetectionConfig(window=20, metric="glr_poisson")
        base = cp.detect_change_points_events(E, cfg)
        rep = cp.detect_change_points_events(E, replace(cfg, eps_zero=1e-8))
        assert base.selected.size > 0
        assert np.array_equal(rep.selected, base.selected)


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

    def test_event_entry_rejects_a_series_metric(self):
        # the report would claim symkl for a Poisson GLR run
        E, _ = cp.generate_poisson_events(10, [(100, 1.0), (100, 5.0)])
        with pytest.raises(ValueError, match="through detect_change_points,"):
            cp.detect_change_points_events(E, cp.DetectionConfig(window=20))

    def test_series_entry_rejects_the_event_metric(self):
        X, _ = cp.generate_piecewise_gaussian(3, [(150, 0.0, 1.0), (150, 3.0, 1.0)])
        with pytest.raises(ValueError, match="through detect_change_points_events"):
            cp.detect_change_points(X, cp.DetectionConfig(metric="glr_poisson"))
