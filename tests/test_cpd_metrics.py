import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from blockdpp import cpd_metrics as cm
from blockdpp import cpd_pipeline as cp
from blockdpp import matrix_core as mc
from blockdpp.errors import SingularToTolerance


def stats(mean, cov):
    mu = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    C = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    return cm.SegmentStats(count=2, mean=mu, cov=C)


def glr_gaussian(X1, X2):
    """The Gaussian GLR of two segments: the window metric on their stack."""
    A1, A2 = cm.as_series(X1), cm.as_series(X2)
    M = len(A1)
    return float(cm.window_dissimilarity(np.vstack([A1, A2]), [0, M],
                                         [M, M + len(A2)], 0, 1, "glr_gaussian"))


class TestSeriesCoercion:
    def test_1d_becomes_column(self):
        assert cm.as_series([1.0, 2.0]).shape == (2, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cm.as_series([1.0, np.inf])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            cm.as_series(np.ones((2, 2, 2)))

    def test_events_must_increase(self):
        with pytest.raises(ValueError):
            cm.as_events([1.0, 1.0])

    @pytest.mark.parametrize("events", [[1.0, np.nan, 3.0], [1.0, 2.0, np.inf],
                                        [-np.inf, 1.0, 2.0], [np.nan]])
    def test_events_must_be_finite(self, events):
        # NaN passes a diff(t) <= 0 test, so it needs its own
        with pytest.raises(ValueError, match="non-finite"):
            cm.as_events(events)


class TestSegmentStats:
    def test_ml_denominator(self):
        X = np.array([[0.0], [2.0]])
        s = cm.segment_stats(X, 0, 2, delta_reg=0.0)
        assert s.mean[0] == 1.0
        assert s.cov[0, 0] == pytest.approx(1.0)  # ((−1)²+1²)/2, not /1

    def test_ridge_added(self):
        X = np.zeros((5, 2))
        s = cm.segment_stats(X, 0, 5, delta_reg=1e-6)
        assert np.allclose(s.cov, 1e-6 * np.eye(2))

    def test_too_short(self):
        with pytest.raises(ValueError):
            cm.segment_stats(np.zeros((5, 1)), 0, 1)


class TestSymkl:
    def test_identical_is_zero(self):
        s = stats([1.0, 2.0], np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert abs(cm.symkl(s, s)) <= 1e-10

    def test_symmetric(self):
        a = stats([0.0], [[1.0]])
        b = stats([1.5], [[2.5]])
        assert cm.symkl(a, b) == cm.symkl(b, a)

    def test_mean_shift_example(self):
        # unit variances, unit mean shift: 1 + 1 - 2 + (1 + 1) * 1 = 2
        assert cm.symkl(stats([0.0], [[1.0]]),
                        stats([1.0], [[1.0]])) == pytest.approx(2.0, abs=1e-10)

    def test_variance_ratio_example(self):
        # equal means, variances 1 and 2: 0.5 + 2 - 2 = 0.5
        assert cm.symkl(stats([0.0], [[1.0]]),
                        stats([0.0], [[2.0]])) == pytest.approx(0.5, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            B1 = rng.standard_normal((5, 2))
            B2 = rng.standard_normal((5, 2))
            a = stats(rng.standard_normal(2), B1.T @ B1 + 0.1 * np.eye(2))
            b = stats(rng.standard_normal(2), B2.T @ B2 + 0.1 * np.eye(2))
            assert cm.symkl(a, b) >= -1e-10

    def test_affine_invariance(self):
        # same affine map on both segments, delta_reg = 0, full rank
        rng = np.random.default_rng(1)
        X1 = rng.standard_normal((50, 2))
        X2 = rng.standard_normal((50, 2)) + np.array([2.0, -1.0])
        A = np.array([[1.3, 0.4], [-0.2, 0.8]])
        b = np.array([5.0, -3.0])
        s = lambda X: cm.segment_stats(X, 0, X.shape[0], delta_reg=0.0)
        before = cm.symkl(s(X1), s(X2))
        after = cm.symkl(s(X1 @ A.T + b), s(X2 @ A.T + b))
        assert after == pytest.approx(before, rel=1e-8)


class TestGlrGaussian:
    def test_identical_segments_near_zero(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal(400)
        v = glr_gaussian(X[:200], X[200:])
        assert -1e-9 <= v <= 5.0

    def test_mean_shift_strongly_positive(self):
        rng = np.random.default_rng(3)
        X1 = rng.standard_normal(100)
        X2 = rng.standard_normal(100) + 5.0
        assert glr_gaussian(X1, X2) > 100.0

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            X1 = rng.standard_normal(20)
            X2 = rng.standard_normal(25)
            assert glr_gaussian(X1, X2) >= -1e-9

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            glr_gaussian([1.0], [1.0, 2.0])


class TestGlrPoisson:
    def test_equal_rate_example(self):
        # unit-rate segments: (-10) + (-10) - (-21) = 1
        e1 = np.arange(0.0, 11.0)
        e2 = np.arange(11.0, 22.0)
        assert cm.glr_poisson(e1, e2) == pytest.approx(1.0, abs=1e-10)

    def test_double_rate_example(self):
        e1 = np.arange(0.0, 11.0)
        e2 = 10.5 + 0.5 * np.arange(21.0)
        lam2 = 20.0 / 10.0
        lam_p = 31.0 / 20.5
        expect = (10.0 * np.log(1.0) - 10.0) + (20.0 * np.log(lam2) - 10.0 * lam2) \
            - (31.0 * np.log(lam_p) - 20.5 * lam_p)
        assert cm.glr_poisson(e1, e2) == pytest.approx(expect, abs=1e-10)
        assert expect == pytest.approx(2.041, abs=5e-3)

    def test_single_event_rejected(self):
        with pytest.raises(ValueError):
            cm.glr_poisson([1.0], [2.0, 3.0])

    def test_zero_span_rejected(self):
        with pytest.raises(ValueError):
            cm.glr_poisson([1.0, 1.0], [2.0, 3.0])

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e1 = np.sort(rng.uniform(0, 10, 12))
            e2 = np.sort(rng.uniform(10, 30, 15))
            assert cm.glr_poisson(e1, e2) >= -1e-9


class TestProfiles:
    def test_constant_model_series_near_zero(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal(300)
        prof = cm.dissimilarity_profile(X, 40)
        assert np.all(prof.values < 1.0)
        assert np.array_equal(prof.times, np.arange(40, 261))

    def test_single_shift_peak_location(self):
        rng = np.random.default_rng(7)
        X = np.concatenate([rng.standard_normal(150),
                            rng.standard_normal(150) + 4.0])
        prof = cm.dissimilarity_profile(X, 40)
        tstar = prof.times[np.argmax(prof.values)]
        assert abs(tstar - 150) <= 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            cm.dissimilarity_profile(np.zeros(79), 40)  # T = 2w - 1

    def test_fractional_window_rejected(self):
        X = np.random.default_rng(14).standard_normal(60)
        with pytest.raises(ValueError, match="whole number"):
            cm.dissimilarity_profile(X, 10.7)
        whole = cm.dissimilarity_profile(X, 10.0)
        assert whole.window == 10 and np.array_equal(
            whole.values, cm.dissimilarity_profile(X, 10).values)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            cm.dissimilarity_profile(np.zeros(100), 10, metric="nope")

    def test_glr_metric_runs(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal(60)
        prof = cm.dissimilarity_profile(X, 10, metric="glr_gaussian")
        assert np.all(prof.values >= -1e-9)

    def test_poisson_profile_peak(self):
        rng = np.random.default_rng(9)
        e1 = np.cumsum(rng.exponential(1.0, 100))      # rate 1 until ~100
        e2 = e1[-1] + np.cumsum(rng.exponential(0.2, 100))  # then rate 5
        e = np.concatenate([e1, e2])
        prof = cm.poisson_profile(e, 20.0)
        tstar = prof.times[np.argmax(prof.values)]
        assert abs(tstar - e1[-1]) <= 20.0

    def test_poisson_profile_validation(self):
        with pytest.raises(ValueError):
            cm.poisson_profile([1.0], 5.0)
        with pytest.raises(ValueError):
            cm.poisson_profile([0.0, 1.0], 5.0)  # span too short
        with pytest.raises(ValueError):
            cm.poisson_profile([0.0, 100.0], -1.0)

    @pytest.mark.parametrize("window, step", [
        (np.nan, 1.0), (5.0, np.nan), (np.inf, 1.0), (5.0, np.inf), (5.0, 0.0),
    ])
    def test_poisson_profile_rejects_nan_and_inf(self, window, step):
        e = np.arange(100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # np.arange warns on step=inf
            with pytest.raises(ValueError, match="must be positive and finite"):
                cm.poisson_profile(e, window, step)

    def test_window_must_exceed_dimension(self):
        X = np.random.default_rng(10).standard_normal((300, 80))
        with pytest.raises(ValueError, match=r"w=50.*D=80"):
            cm.dissimilarity_profile(X, 50)
        with pytest.raises(ValueError, match=r"w=3.*D=3"):
            cm.dissimilarity_profile(X[:, :3], 3)

    def test_singular_window_raises(self):
        X = np.concatenate([np.zeros(20), np.random.default_rng(11).standard_normal(40)])
        with pytest.raises(SingularToTolerance):
            cm.dissimilarity_profile(X, 10, delta_reg=0.0)
        with pytest.raises(SingularToTolerance):
            cm.dissimilarity_profile(np.full(60, 3.0), 10, "glr_gaussian",
                                     delta_reg=0.0)


class TestEngineAgainstLoops:
    """The batched prefix-sum engine against the per-window loops."""

    @settings(deadline=None)
    @given(metric=st.sampled_from(["symkl", "glr_gaussian"]),
           D=st.integers(1, 4), extra_w=st.integers(1, 20),
           extra_t=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
           offset=st.sampled_from([0.0, 1e3, 1e5, 1e7]))
    def test_series_profile(self, metric, D, extra_w, extra_t, seed, offset):
        rng = np.random.default_rng(seed)
        w = D + extra_w
        T = 2 * w + extra_t
        X = rng.standard_normal((T, D)) * rng.uniform(0.5, 2.0, D)
        X[rng.integers(0, T):] += rng.normal(0.0, 2.0, D)
        X += offset
        fast = cm.dissimilarity_profile(X, w, metric)
        ts, slow = oracle.dissimilarity_profile(X, w, metric)
        assert np.array_equal(fast.times, ts)
        np.testing.assert_allclose(fast.values, slow, rtol=1e-7,
                                   atol=1e-7 * np.max(np.abs(slow)))

    def test_pair_functions_match_loops(self):
        rng = np.random.default_rng(12)
        for D in (1, 3):
            X1 = rng.standard_normal((15, D)) + 1e5
            X2 = 2.0 * rng.standard_normal((20, D)) + 1e5
            s = lambda X: cm.segment_stats(X, 0, X.shape[0])
            o = lambda X: oracle.segment_stats(X, cm.DEFAULT_DELTA_REG)
            assert cm.symkl(s(X1), s(X2)) == pytest.approx(
                oracle.symkl(o(X1), o(X2)), rel=1e-7)
            assert glr_gaussian(X1, X2) == pytest.approx(
                oracle.split_metric(np.vstack([X1, X2]), 0, 15, 35,
                                    "glr_gaussian", cm.DEFAULT_DELTA_REG),
                rel=1e-7)

    @pytest.mark.parametrize("window,step", [(20.0, 1.0), (7.5, 0.3)])
    def test_poisson_profile(self, window, step):
        rng = np.random.default_rng(13)
        e = np.cumsum(np.concatenate([rng.exponential(1.0, 150),
                                      rng.exponential(0.25, 300),
                                      rng.exponential(12.0, 40)]))
        fast = cm.poisson_profile(e, window, step)
        ts, slow = oracle.poisson_profile(e, window, step)
        assert np.array_equal(fast.times, ts)
        assert np.any(slow == 0.0) and np.any(slow > 0.0)
        np.testing.assert_allclose(fast.values, slow, rtol=1e-12, atol=1e-9)


def split_every_window(X, lo, mid, hi, metric, delta_reg=cm.DEFAULT_DELTA_REG):
    """The metric of the splits [lo, mid) | [mid, hi), inverting the left and
    the right window of every split, shared or not: the batched formula
    before each window was factored once."""
    _, S1, S2 = cm._prefix_moments(cm.as_series(X))
    left = cm._window_stats(S1, S2, lo, mid, delta_reg)
    right = cm._window_stats(S1, S2, mid, hi, delta_reg)
    if metric == "symkl":
        D = left.mean.shape[-1]
        inv1, _ = mc.inverse_logdet_spd(left.cov)
        inv2, _ = mc.inverse_logdet_spd(right.cov)
        dm = left.mean - right.mean
        return (np.einsum("...ij,...ji->...", left.cov, inv2)
                + np.einsum("...ij,...ji->...", right.cov, inv1) - 2.0 * D
                + np.einsum("...i,...ij,...j->...", dm, inv1 + inv2, dm))

    def loglik(s):
        D = s.cov.shape[-1]
        inv, logdet = mc.inverse_logdet_spd(s.cov)
        trace_inv = np.trace(inv, axis1=-2, axis2=-1)
        return -0.5 * s.count * (D * np.log(2.0 * np.pi) + logdet + D
                                 - delta_reg * trace_inv)

    pooled = cm._window_stats(S1, S2, lo, hi, delta_reg)
    return loglik(left) + loglik(right) - loglik(pooled)


class TestDistinctWindows:
    """Inverting each distinct window once changes no bit of the profile or
    of the candidate qualities."""

    @pytest.fixture(params=[1, 8])
    def series(self, request):
        D = request.param
        rng = np.random.default_rng(D)
        segs = [(150, rng.normal(0.0, 2.0, D), rng.uniform(0.5, 2.0))
                for _ in range(8)]
        X, _ = cp.generate_piecewise_gaussian(D, segs)
        return X + 1e5

    @pytest.mark.parametrize("metric", ["symkl", "glr_gaussian"])
    def test_profile_is_bit_identical(self, series, metric):
        w = 30
        prof = cm.dissimilarity_profile(series, w, metric)
        ts = prof.times
        assert np.array_equal(prof.values,
                              split_every_window(series, ts - w, ts, ts + w, metric))

    @pytest.mark.parametrize("metric", ["symkl", "glr_gaussian"])
    def test_candidate_quality_is_bit_identical(self, series, metric):
        cfg = cp.DetectionConfig(window=30, metric=metric)
        cand = cp.pick_candidates(cm.dissimilarity_profile(series, 30, metric))
        # a one-sample gap between two candidates takes the widened path too
        times = np.union1d(cand.times, cand.times[:1] + 1)
        cs = cp.CandidateSet(times=times, scores=np.ones(times.size),
                             profile=cand.profile)
        q, flags = cp.candidate_quality(series, cs, cfg)
        bounds = np.concatenate([[0], times, [series.shape[0]]])
        q_ref, flags_ref = cp._split_quality(
            bounds[:-2], times, bounds[2:], series.shape[0],
            lambda lo, mid, hi: split_every_window(series, lo, mid, hi, metric),
            cfg)
        assert np.array_equal(q, q_ref) and flags == flags_ref and flags

    def test_scalar_split(self, series):
        d = cm.window_dissimilarity(series, [0, 100], [100, 250], 0, 1,
                                    "glr_gaussian")
        assert d.shape == ()
        assert d == split_every_window(series, 0, 100, 250, "glr_gaussian")


class TestWindowDissimilarity:
    """The engine over caller-named windows and the pairs to compare."""

    SERIES = {D: cp.generate_piecewise_gaussian(
        D, [(40, np.zeros(D), 1.0), (40, np.full(D, 2.0), 0.5),
            (40, np.zeros(D), 2.0)])[0] + 1e5 for D in (1, 3)}

    @pytest.mark.parametrize("start, stop", [
        ([-95, 10], [10, 20]),     # S1[-95] would wrap to row 6
        ([0, 50], [50, 101]),      # past the end of a T=100 series
        ([[0, 50]], [[50, 100]]),  # not a 1-D list of windows
        ([0, 50], [50]),           # bounds of different lengths
    ])
    def test_window_outside_the_series_raises(self, start, stop):
        X = np.random.default_rng(14).standard_normal(100)
        with pytest.raises(ValueError, match="windows must be"):
            cm.window_dissimilarity(X, start, stop, 0, 1)

    @pytest.mark.parametrize("left, right", [(-1, 1), (0, 2), ([0, 1], [1, -2])])
    def test_pair_index_outside_the_window_list_raises(self, left, right):
        X = np.random.default_rng(15).standard_normal(100)
        with pytest.raises(ValueError, match="pair indices"):
            cm.window_dissimilarity(X, [0, 50], [50, 100], left, right)

    @pytest.mark.parametrize("start, stop, left, right, what", [
        ([0.9, 50.5], [50.7, 100.2], 0, 1, "window bounds"),  # not [0, 50) | [50, 100)
        ([0, 50.0], [50, 100.5], 0, 1, "window bounds"),
        ([0, 50], [50, 100], 0.5, 1, "pair indices"),
        ([0, 50], [50, 100], 0, [1.0, np.nan], "pair indices"),
        ([True, False], [50, 100], 0, 1, "window bounds"),
    ])
    def test_bound_or_pair_index_not_an_integer_raises(self, start, stop, left,
                                                       right, what):
        X = np.random.default_rng(16).standard_normal(100)
        with pytest.raises(ValueError, match=f"{what} must hold integers"):
            cm.window_dissimilarity(X, start, stop, left, right)

    def test_integral_float_bounds_are_the_integer_ones(self):
        X = np.random.default_rng(16).standard_normal(100)
        assert (cm.window_dissimilarity(X, [0.0, 50.0], [50.0, 100.0], 0, 1)
                == cm.window_dissimilarity(X, [0, 50], [50, 100], 0, 1))

    def test_each_profile_window_is_factored_once(self, monkeypatch):
        stacks = []
        factor = mc.inverse_logdet_spd

        def spy(C):
            stacks.append(np.shape(C)[:-2])
            return factor(C)
        monkeypatch.setattr(mc, "inverse_logdet_spd", spy)
        T, w = 120, 10
        cm.dissimilarity_profile(self.SERIES[3], w, "symkl")
        assert stacks == [(T - w + 1,)]

    @settings(max_examples=60, deadline=None)
    @given(D=st.sampled_from([1, 3]),
           metric=st.sampled_from(["symkl", "glr_gaussian"]),
           gaps=st.lists(st.integers(5, 20), min_size=3, max_size=6),
           shape=st.sampled_from(["scalar", "1-D", "2-D"]), data=st.data())
    def test_any_pairs_match_every_window(self, D, metric, gaps, shape, data):
        # window j is [b[j], b[j + 1]); split i compares windows i and i + 1,
        # so splits 0 and 1 share window 1
        b = np.cumsum([0] + gaps)
        k = len(gaps)
        order = np.array(data.draw(st.permutations(range(k))))
        pos = np.argsort(order)    # where window j sits in the list
        split = data.draw(st.lists(st.integers(0, k - 2), max_size=6)) + [0, 1]
        split = np.array(data.draw(st.permutations(split)))   # repeats stay
        split = {"scalar": split[0], "1-D": split, "2-D": split[:, None]}[shape]
        X = self.SERIES[D]
        got = cm.window_dissimilarity(X, b[:-1][order], b[1:][order],
                                      pos[split], pos[split + 1], metric)
        want = split_every_window(X, b[split], b[split + 1], b[split + 2], metric)
        assert np.shape(got) == np.shape(split)
        assert np.array_equal(got, want)
