"""Unit tests for repro.analysis.stats."""

import math

import numpy as np
import pytest

from repro.analysis.stats import (
    Ecdf,
    coefficient_of_variation,
    normalize_to_min,
    pearson_correlation,
    rolling_mean,
    summarize,
)


class TestPearsonCorrelation:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=5000)
        y = rng.normal(size=5000)
        assert abs(pearson_correlation(x, y)) < 0.05

    def test_constant_series_returns_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0
        assert pearson_correlation([1, 2, 3], [5, 5, 5]) == 0.0

    def test_affine_invariance(self):
        x = [1.0, 3.0, 2.0, 5.0]
        y = [10.0, 2.0, 7.0, 1.0]
        r1 = pearson_correlation(x, y)
        r2 = pearson_correlation([3 * v + 7 for v in x], y)
        assert r1 == pytest.approx(r2)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="lengths differ"):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError, match="at least 2"):
            pearson_correlation([1], [1])

    def test_tiny_deviations_do_not_underflow(self):
        # The sums of squares underflowed: into the subnormals (|r| > 1),
        # or to zero (a perfect anti-correlation reported as 0.0).
        assert pearson_correlation([0, 1.39e-79], [5e-79, 1e-79]) == -1.0
        assert pearson_correlation([0, 1e-300], [1, 0]) == -1.0

    def test_huge_deviations_do_not_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            r = pearson_correlation([1e300, -1e300], [1e300, -1e300])
        assert r == 1.0

    def test_one_ulp_apart_stays_in_range(self):
        # The mean rounds, so the two deviations are unequal and r is not
        # exactly 1; it must still be a valid correlation.
        r = pearson_correlation([1.0, 1.0 + 2**-52], [1.0, 2.0])
        assert -1.0 <= r <= 1.0

    def test_symmetry(self):
        x = [1.0, 4.0, 2.0]
        y = [3.0, 1.0, 5.0]
        assert pearson_correlation(x, y) == pytest.approx(pearson_correlation(y, x))

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            pearson_correlation(np.ones((2, 2)), np.ones((2, 2)))


class TestNormalizeToMin:
    def test_minimum_maps_to_one(self):
        out = normalize_to_min([2.0, 4.0, 8.0])
        assert out[0] == pytest.approx(1.0)
        assert out.tolist() == pytest.approx([1.0, 2.0, 4.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_to_min([])

    def test_nonpositive_min_raises(self):
        with pytest.raises(ValueError, match="positive"):
            normalize_to_min([0.0, 1.0])

    def test_preserves_length(self):
        assert len(normalize_to_min([3.0, 5.0, 4.0, 9.0])) == 4


class TestCoefficientOfVariation:
    def test_constant_series_is_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        # mean 2, population stddev 1 -> CV 0.5
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_zero_mean_raises(self):
        with pytest.raises(ValueError, match="zero-mean"):
            coefficient_of_variation([-1.0, 1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([])


class TestRollingMean:
    def test_window_one_is_identity(self):
        values = [1.0, 5.0, 3.0]
        assert rolling_mean(values, 1).tolist() == values

    def test_ramp_up_prefix(self):
        out = rolling_mean([2.0, 4.0, 6.0, 8.0], window=2)
        assert out.tolist() == pytest.approx([2.0, 3.0, 5.0, 7.0])

    def test_window_larger_than_series(self):
        out = rolling_mean([2.0, 4.0], window=10)
        assert out.tolist() == pytest.approx([2.0, 3.0])

    def test_empty_input(self):
        assert rolling_mean([], 3).size == 0

    def test_bad_window_raises(self):
        with pytest.raises(ValueError, match="window"):
            rolling_mean([1.0], 0)


class TestEcdf:
    def test_evaluation(self):
        ecdf = Ecdf([1.0, 2.0, 3.0, 4.0])
        assert ecdf(0.5) == 0.0
        assert ecdf(2.0) == 0.5
        assert ecdf(4.0) == 1.0
        assert ecdf(100.0) == 1.0

    def test_median_and_quantiles(self):
        ecdf = Ecdf(range(1, 102))  # 1..101
        assert ecdf.median() == pytest.approx(51.0)
        assert ecdf.quantile(0.0) == 1.0
        assert ecdf.quantile(1.0) == 101.0

    def test_quantile_bounds(self):
        ecdf = Ecdf([1.0])
        with pytest.raises(ValueError):
            ecdf.quantile(1.5)

    def test_points_monotone(self):
        ecdf = Ecdf(np.random.default_rng(1).normal(size=200))
        pts = ecdf.points(50)
        xs = [p[0] for p in pts]
        assert xs == sorted(xs)
        assert pts[0][1] == 0.0 and pts[-1][1] == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Ecdf([])

    def test_n(self):
        assert Ecdf([1, 2, 3]).n == 3


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)
        assert s.stddev == pytest.approx(math.sqrt(1.25))

    def test_cv(self):
        s = summarize([1.0, 3.0])
        assert s.cv == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSpearmanCorrelation:
    def test_monotone_nonlinear_is_one(self):
        from repro.analysis.stats import spearman_correlation
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [v ** 3 for v in x]  # nonlinear but monotone
        assert spearman_correlation(x, y) == pytest.approx(1.0)

    def test_reverse_is_minus_one(self):
        from repro.analysis.stats import spearman_correlation
        assert spearman_correlation([1, 2, 3], [9, 4, 1]) == pytest.approx(-1.0)

    def test_robust_to_outlier(self):
        from repro.analysis.stats import pearson_correlation, spearman_correlation
        x = list(range(20))
        y = list(range(20))
        y[-1] = 10_000  # one wild value
        assert spearman_correlation(x, y) == pytest.approx(1.0)
        assert pearson_correlation(x, y) < 0.9  # pearson gets dragged

    def test_ties_average_ranks(self):
        from repro.analysis.stats import spearman_correlation
        # Ties handled symmetrically: still a perfect monotone relation.
        assert spearman_correlation([1, 1, 2, 2], [3, 3, 5, 5]) == \
            pytest.approx(1.0)

    def test_matches_scipy(self):
        from scipy import stats as sps
        from repro.analysis.stats import spearman_correlation
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        y = x + rng.normal(scale=0.5, size=50)
        ours = spearman_correlation(x, y)
        theirs = sps.spearmanr(x, y).statistic
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_validation(self):
        from repro.analysis.stats import spearman_correlation
        with pytest.raises(ValueError, match="lengths"):
            spearman_correlation([1, 2], [1])
        with pytest.raises(ValueError, match="at least 2"):
            spearman_correlation([1], [1])
