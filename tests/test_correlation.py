"""Unit tests for repro.core.correlation (the Section 4.2 formula)."""

import numpy as np
import pytest

from repro.core.correlation import antagonist_correlation, SuspectScore
from repro.core.identify import rank_suspects_matrix


def rank(victim_cpi, cpi_threshold, suspects):
    """Rank ``taskname -> (jobname, usage_series)`` suspects."""
    return rank_suspects_matrix(
        victim_cpi, cpi_threshold,
        [(taskname, jobname) for taskname, (jobname, _) in suspects.items()],
        np.asarray([usage for _, usage in suspects.values()],
                   dtype=np.float64).reshape(len(suspects), len(victim_cpi)))


class TestFormula:
    def test_guilty_pattern_scores_positive(self):
        # Victim CPI spikes exactly when the suspect runs.
        victim = [2.0, 1.0, 2.0, 1.0]
        usage = [1.0, 0.0, 1.0, 0.0]
        score = antagonist_correlation(victim, usage, cpi_threshold=1.5)
        # All usage mass sits on c=2.0 > threshold: score = 1 - 1.5/2.0
        assert score == pytest.approx(0.25)

    def test_innocent_pattern_scores_negative(self):
        # Suspect runs only while the victim is fine.
        victim = [2.0, 1.0, 2.0, 1.0]
        usage = [0.0, 1.0, 0.0, 1.0]
        score = antagonist_correlation(victim, usage, cpi_threshold=1.5)
        # All mass on c=1.0 < threshold: score = 1.0/1.5 - 1
        assert score == pytest.approx(1.0 / 1.5 - 1.0)

    def test_exactly_at_threshold_contributes_nothing(self):
        score = antagonist_correlation([1.5, 1.5], [0.5, 0.5], 1.5)
        assert score == 0.0

    def test_idle_suspect_scores_zero(self):
        assert antagonist_correlation([2.0, 2.0], [0.0, 0.0], 1.5) == 0.0

    def test_range_bounds(self):
        # Victim CPI -> infinity with all suspect mass there: score -> 1.
        score = antagonist_correlation([1e9], [1.0], 1.5)
        assert 0.99 < score <= 1.0
        # Victim CPI -> 0 with all suspect mass there: score -> -1.
        score = antagonist_correlation([1e-9], [1.0], 1.5)
        assert -1.0 <= score < -0.99

    def test_usage_normalisation(self):
        # Scaling the usage series must not change the score.
        victim = [2.0, 1.0, 1.8, 0.9]
        usage = [1.0, 0.2, 0.8, 0.1]
        s1 = antagonist_correlation(victim, usage, 1.5)
        s2 = antagonist_correlation(victim, [10 * u for u in usage], 1.5)
        assert s1 == pytest.approx(s2)

    def test_mixed_evidence_cancels(self):
        # Equal usage mass on one guilty and one exonerating point.
        victim = [3.0, 0.75]
        usage = [0.5, 0.5]
        expected = 0.5 * (1 - 1.5 / 3.0) + 0.5 * (0.75 / 1.5 - 1)
        assert antagonist_correlation(victim, usage, 1.5) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError, match="lengths"):
            antagonist_correlation([1.0], [1.0, 2.0], 1.5)
        with pytest.raises(ValueError, match="empty"):
            antagonist_correlation([], [], 1.5)
        with pytest.raises(ValueError, match="threshold"):
            antagonist_correlation([1.0], [1.0], 0.0)
        with pytest.raises(ValueError, match="usage"):
            antagonist_correlation([1.0], [-1.0], 1.5)
        with pytest.raises(ValueError, match="CPI"):
            antagonist_correlation([-1.0], [1.0], 1.5)


class TestRanking:
    def test_rank_orders_by_correlation(self):
        victim = [2.0, 1.0, 2.0, 1.0]
        suspects = {
            "guilty/0": ("guilty", [1.0, 0.0, 1.0, 0.0]),
            "innocent/0": ("innocent", [0.0, 1.0, 0.0, 1.0]),
            "steady/0": ("steady", [0.5, 0.5, 0.5, 0.5]),
        }
        ranked = rank(victim, 1.5, suspects)
        assert [s.taskname for s in ranked] == ["guilty/0", "steady/0",
                                                "innocent/0"]
        assert ranked[0].jobname == "guilty"

    def test_deterministic_tie_break(self):
        victim = [2.0, 2.0]
        suspects = {
            "b/0": ("b", [1.0, 1.0]),
            "a/0": ("a", [1.0, 1.0]),
        }
        ranked = rank(victim, 1.5, suspects)
        assert [s.taskname for s in ranked] == ["a/0", "b/0"]

    def test_empty_suspects(self):
        assert rank([2.0], 1.5, {}) == []


class TestSuspectScore:
    def test_meets(self):
        assert SuspectScore("a", "j", 0.35).meets(0.35)
        assert not SuspectScore("a", "j", 0.349).meets(0.35)
