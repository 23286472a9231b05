"""Tests for the Pilot-style statistics pipeline."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    analyze,
    autocorrelation,
    compare_measurements,
    detect_changepoint,
    mean_ci,
    percent_change,
    subsession_merge,
    trim_warmup_cooldown,
)


class TestAutocorrelation:
    def test_iid_noise_near_zero(self):
        x = np.random.default_rng(0).normal(size=5000)
        assert abs(autocorrelation(x)) < 0.05

    def test_alternating_is_negative(self):
        x = np.array([1.0, -1.0] * 50)
        assert autocorrelation(x) < -0.9

    def test_smooth_trend_is_positive(self):
        x = np.linspace(0, 1, 200)
        assert autocorrelation(x) > 0.9

    def test_constant_series_zero(self):
        assert autocorrelation(np.ones(50)) == 0.0

    def test_short_series_zero(self):
        assert autocorrelation(np.array([1.0, 2.0])) == 0.0

    def test_bad_lag(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(10), lag=0)

    def test_lag_parameter(self):
        # period-2 signal: lag-2 autocorrelation is positive
        x = np.array([1.0, -1.0] * 50)
        assert autocorrelation(x, lag=2) > 0.9


class TestSubsessionMerge:
    def test_correlated_series_gets_merged(self):
        rng = np.random.default_rng(1)
        # AR(1) with strong correlation
        x = np.zeros(4096)
        for i in range(1, x.size):
            x[i] = 0.95 * x[i - 1] + rng.normal()
        merged, rounds = subsession_merge(x, threshold=0.1)
        assert rounds >= 1
        assert abs(autocorrelation(merged)) <= 0.1 or merged.size <= 8

    def test_iid_series_untouched(self):
        x = np.random.default_rng(2).normal(size=1000)
        merged, rounds = subsession_merge(x)
        assert rounds == 0
        assert merged.size == 1000

    def test_never_below_min_samples(self):
        x = np.linspace(0, 1, 64)  # highly autocorrelated
        merged, _rounds = subsession_merge(x, min_samples=4)
        assert merged.size >= 4

    def test_merge_preserves_mean(self):
        x = np.sin(np.linspace(0, 20, 512)) + 5.0
        merged, _ = subsession_merge(x)
        assert merged.mean() == pytest.approx(x[: (x.size // 2) * 2].mean(), rel=0.05)


class TestMeanCI:
    def test_matches_scipy_t(self):
        x = np.random.default_rng(3).normal(10.0, 2.0, size=50)
        mean, half = mean_ci(x, 0.95)
        assert mean == pytest.approx(x.mean())
        from scipy import stats as sps

        sem = x.std(ddof=1) / np.sqrt(50)
        expect = sps.t.ppf(0.975, 49) * sem
        assert half == pytest.approx(expect)

    def test_halfwidth_is_scipy_t_to_the_bit(self):
        # ``==``, not approx: mean_ci imports scipy.stats at the call, and
        # where the import happens is the only thing allowed to differ.
        from scipy import stats as sps

        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 300))
            conf = float(rng.choice([0.8, 0.9, 0.95, 0.99]))
            x = rng.normal(rng.uniform(-5, 50), rng.uniform(0.1, 9), size=n)
            mean, half = mean_ci(x, conf)
            sem = float(x.std(ddof=1) / np.sqrt(n))
            assert mean == float(x.mean())
            assert half == float(sps.t.ppf(0.5 + conf / 2.0, df=n - 1)) * sem

    def test_single_sample_infinite(self):
        _m, half = mean_ci(np.array([1.0]))
        assert half == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci(np.array([]))

    def test_ci_shrinks_with_n(self):
        rng = np.random.default_rng(4)
        _m1, h1 = mean_ci(rng.normal(size=20))
        _m2, h2 = mean_ci(rng.normal(size=2000))
        assert h2 < h1

    @given(n=st.integers(min_value=2, max_value=200))
    @settings(deadline=None)
    def test_true_mean_usually_inside(self, n):
        # smoke property: CI contains the sample mean trivially
        x = np.random.default_rng(n).normal(size=n)
        mean, half = mean_ci(x)
        assert mean - half <= x.mean() <= mean + half


class TestChangepoint:
    def test_detects_obvious_shift(self):
        x = np.concatenate([np.zeros(100), np.ones(100)])
        x += np.random.default_rng(0).normal(0, 0.1, size=200)
        k, stat = detect_changepoint(x)
        assert k is not None
        assert 90 <= k <= 110

    def test_no_shift_detected_in_noise(self):
        x = np.random.default_rng(1).normal(size=400)
        k, _stat = detect_changepoint(x)
        assert k is None

    def test_constant_series_none(self):
        k, stat = detect_changepoint(np.ones(100))
        assert k is None and stat == 0.0

    def test_short_series_none(self):
        assert detect_changepoint(np.ones(4))[0] is None

    def test_trim_removes_warmup(self):
        rng = np.random.default_rng(2)
        warm = np.linspace(0, 10, 60) + rng.normal(0, 0.3, 60)
        steady = 10.0 + rng.normal(0, 0.3, 400)
        x = np.concatenate([warm, steady])
        core, lo, hi = trim_warmup_cooldown(x)
        assert lo >= 30  # most of the ramp removed
        assert hi == x.size
        assert core.mean() == pytest.approx(10.0, abs=0.5)

    def test_trim_removes_cooldown(self):
        rng = np.random.default_rng(3)
        steady = 5.0 + rng.normal(0, 0.2, 400)
        cool = np.linspace(5, 0, 60) + rng.normal(0, 0.2, 60)
        x = np.concatenate([steady, cool])
        core, lo, hi = trim_warmup_cooldown(x)
        assert lo == 0
        assert hi <= 430
        assert core.mean() == pytest.approx(5.0, abs=0.3)

    def test_interior_shift_left_alone(self):
        rng = np.random.default_rng(4)
        x = np.concatenate(
            [rng.normal(0, 0.1, 200), rng.normal(5, 0.1, 200)]
        )
        core, lo, hi = trim_warmup_cooldown(x)
        assert lo == 0 and hi == x.size  # 50/50 split is signal, not warm-up

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            trim_warmup_cooldown(np.ones(100), max_trim_fraction=0.6)


class TestAnalyze:
    def test_full_pipeline_on_noisy_plateau(self):
        rng = np.random.default_rng(5)
        x = np.concatenate(
            [np.linspace(0, 8, 50), 8.0 + rng.normal(0, 0.5, 600)]
        )
        s = analyze(x)
        assert s.mean == pytest.approx(8.0, abs=0.2)
        assert s.ci_halfwidth < 0.5
        assert s.trimmed_prefix > 20
        assert abs(s.autocorr_final) <= 0.1 or s.n_effective <= 8

    def test_summary_fields(self):
        s = analyze(np.random.default_rng(6).normal(3.0, 1.0, 200))
        assert s.n_raw == 200
        lo, hi = s.ci
        assert lo < s.mean < hi
        assert "95%" in str(s)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyze(np.array([]))


class TestComparisons:
    def test_percent_change(self):
        assert percent_change(100.0, 145.0) == pytest.approx(45.0)
        assert percent_change(200.0, 100.0) == pytest.approx(-50.0)
        with pytest.raises(ZeroDivisionError):
            percent_change(0.0, 1.0)

    def test_clear_improvement_significant(self):
        rng = np.random.default_rng(7)
        base = rng.normal(10.0, 1.0, 300)
        tuned = rng.normal(14.5, 1.0, 300)
        c = compare_measurements(base, tuned, trim=False)
        assert c.significant
        assert c.percent == pytest.approx(45.0, abs=5.0)

    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(8)
        base = rng.normal(10.0, 1.0, 200)
        tuned = rng.normal(10.0, 1.0, 200)
        c = compare_measurements(base, tuned, trim=False)
        assert not c.significant

    def test_zero_variance_equal(self):
        c = compare_measurements(np.ones(50), np.ones(50), trim=False)
        assert not c.significant

    def test_p_value_is_scipy_welch_to_the_bit(self):
        from scipy import stats as sps

        rng = np.random.default_rng(32)
        for _ in range(60):
            b = rng.normal(10.0, rng.uniform(0.2, 3), int(rng.integers(2, 250)))
            t = rng.normal(
                10.0 + rng.uniform(-1, 1), rng.uniform(0.2, 3),
                int(rng.integers(2, 250)),
            )
            c = compare_measurements(b, t, trim=False)
            assert c.p_value == float(sps.ttest_ind(t, b, equal_var=False).pvalue)
            assert c.significant == (c.p_value < 0.05)

    def test_welch_runs_on_the_trimmed_series(self):
        from scipy import stats as sps

        rng = np.random.default_rng(33)
        base = rng.normal(10.0, 1.0, 200)
        # 40 warm-up samples far below a plateau 3 % above the baseline.
        tuned = np.concatenate(
            [rng.normal(4.0, 1.0, 40), rng.normal(10.3, 1.0, 160)]
        )
        c = compare_measurements(base, tuned)
        assert c.tuned.trimmed_prefix >= 35 and c.baseline.trimmed_prefix == 0
        kept = trim_warmup_cooldown(tuned)[0]
        assert kept.size == 200 - c.tuned.trimmed_prefix
        assert c.p_value == float(sps.ttest_ind(kept, base, equal_var=False).pvalue)
        # The star agrees with the CIs beside it: a gain, and significant;
        # with the warm-up left in, the same test "finds" a loss.
        assert c.percent > 0 and c.significant
        raw = sps.ttest_ind(tuned, base, equal_var=False)
        assert raw.statistic < 0 and c.p_value != float(raw.pvalue)

    @pytest.mark.parametrize(
        "base, tuned", [([5.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [5.0])]
    )
    def test_fewer_than_two_samples_is_no_test(self, base, tuned):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "degrees of freedom <= 0"
            c = compare_measurements(np.array(base), np.array(tuned), trim=False)
        assert math.isnan(c.p_value) and c.significant is False
        assert c.percent == percent_change(np.mean(base), np.mean(tuned))
