"""Unit tests for repro.analysis.distributions (Figure 7's machinery)."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.analysis.distributions import (
    CANDIDATE_FAMILIES,
    fit_all_candidates,
    fit_distribution,
)
from repro.experiments.metric_validation import DistributionResult


@pytest.fixture(scope="module")
def gev_samples():
    """Samples from the paper's reported fit: GEV(1.73, 0.133, -0.0534)."""
    rng = np.random.default_rng(7)
    # scipy's c = -xi
    return sps.genextreme(0.0534, loc=1.73, scale=0.133).rvs(20000, random_state=rng)


@pytest.fixture(scope="module")
def normal_samples():
    rng = np.random.default_rng(8)
    return rng.normal(1.8, 0.16, size=20000)


class TestFitDistribution:
    def test_normal_recovers_parameters(self, normal_samples):
        fit = fit_distribution(normal_samples, "normal")
        assert fit.family == "normal"
        assert fit.location == pytest.approx(1.8, abs=0.01)
        assert fit.scale == pytest.approx(0.16, abs=0.01)
        assert fit.shape is None

    def test_gev_recovers_paper_parameters(self, gev_samples):
        fit = fit_distribution(gev_samples, "gev")
        assert fit.location == pytest.approx(1.73, abs=0.02)
        assert fit.scale == pytest.approx(0.133, abs=0.02)
        # Paper sign convention: xi = -0.0534 (bounded right tail).
        assert fit.shape == pytest.approx(-0.0534, abs=0.05)
        # The samples were drawn with scipy's c = +0.0534, so a tight match
        # on the negation pins the xi = -c conversion.
        assert fit.shape == pytest.approx(-0.0534, abs=0.01)

    def test_unknown_family_raises(self, normal_samples):
        with pytest.raises(ValueError, match="unknown family"):
            fit_distribution(normal_samples, "cauchy")

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError, match="at least 8"):
            fit_distribution([1.0, 2.0], "normal")

    def test_nonfinite_samples_raise(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_distribution([1.0] * 10 + [np.nan], "normal")

    def test_lognormal_rejects_nonpositive(self):
        samples = [-1.0] + [1.0] * 20
        with pytest.raises(ValueError, match="positive"):
            fit_distribution(samples, "lognormal")

    def test_gamma_rejects_nonpositive(self):
        samples = [0.0] + [1.0] * 20
        with pytest.raises(ValueError, match="positive"):
            fit_distribution(samples, "gamma")


class TestFitAllAndBest:
    def test_all_families_attempted(self, gev_samples):
        fits = fit_all_candidates(gev_samples)
        assert set(fits) == set(CANDIDATE_FAMILIES)

    def test_gev_wins_on_skewed_cpi_data(self, gev_samples):
        # The paper's headline claim for Figure 7: GEV fits the CPI
        # distribution better than normal, log-normal and gamma.
        fits = dict(fit_all_candidates(gev_samples))
        result = DistributionResult(num_samples=len(gev_samples), mean=0.0,
                                    stddev=0.0, fits=fits)
        assert result.best_family == "gev"

    def test_normal_wins_on_gaussian_data(self, normal_samples):
        fits = fit_all_candidates(normal_samples)
        # Normal should at least beat gamma and lognormal on symmetric data;
        # GEV nests near-normal shapes so it may tie, but must not win by a
        # meaningful margin.
        assert fits["normal"].ks_statistic <= fits["gamma"].ks_statistic + 1e-3
        assert fits["normal"].ks_statistic <= fits["lognormal"].ks_statistic + 1e-3

    def test_ks_statistic_small_for_true_family(self, gev_samples):
        fit = fit_distribution(gev_samples, "gev")
        assert fit.ks_statistic < 0.02
