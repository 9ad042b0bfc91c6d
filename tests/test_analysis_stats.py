"""Unit tests for repro.analysis.stats."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.analysis.stats import Ecdf, coefficient_of_variation, pearson_correlation


def test_importing_the_analyses_leaves_scipy_unloaded():
    """Only distribution fitting needs scipy: a fresh interpreter that
    imports the paper analyses (and with them ``repro.analysis``) must not
    load it."""
    code = ("import sys\n"
            "import repro.experiments.analyses\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Ecdf([])

    def test_n(self):
        assert Ecdf([1, 2, 3]).n == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda v: pearson_correlation([1.0, 2.0, v], [1.0, 2.0, 3.0]),
    lambda v: coefficient_of_variation([1.0, 2.0, v]),
    lambda v: Ecdf([1.0, 2.0, v]).quantile(0.5),
], ids=["pearson_correlation", "coefficient_of_variation", "Ecdf"])
def test_non_finite_values_raise(call, bad):
    with pytest.raises(ValueError, match="non-finite"):
        call(bad)
