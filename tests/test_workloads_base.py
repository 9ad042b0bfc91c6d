"""Unit tests for repro.workloads.base."""

import numpy as np
import pytest

from repro.testing import QUIET_PROFILE
from repro.workloads.base import SyntheticWorkload, TransactionCounter
from repro.workloads.demand import constant


class TestSyntheticWorkload:
    def test_demand_clipped_at_zero(self):
        workload = SyntheticWorkload(1.0, QUIET_PROFILE, lambda t: -5.0)
        assert workload.cpu_demand(0) == 0.0

    def test_base_cpi_without_modulation(self):
        workload = SyntheticWorkload(1.7, QUIET_PROFILE, constant(1.0))
        assert workload.base_cpi() == 1.7

    def test_cpi_modulation_tracks_tick_time(self):
        workload = SyntheticWorkload(
            1.0, QUIET_PROFILE, constant(1.0),
            cpi_modulation=lambda t: 2.0 if t >= 100 else 1.0)
        assert workload.base_cpi() == 1.0
        workload.on_tick(100, 1.0, False)
        assert workload.base_cpi() == 2.0

    def test_thread_count_fixed_or_callable(self):
        fixed = SyntheticWorkload(1.0, QUIET_PROFILE, constant(1.0), threads=5)
        assert fixed.thread_count(0) == 5
        dynamic = SyntheticWorkload(1.0, QUIET_PROFILE, constant(1.0),
                                    threads=lambda t: t + 1)
        assert dynamic.thread_count(7) == 8

    def test_on_tick_accounting(self):
        workload = SyntheticWorkload(1.0, QUIET_PROFILE, constant(1.0))
        assert workload.on_tick(0, 0.5, False) is None
        workload.on_tick(1, 0.5, True)
        assert workload.granted_cpu_seconds == pytest.approx(1.0)

    def test_invalid_base_cpi(self):
        with pytest.raises(ValueError, match="base_cpi"):
            SyntheticWorkload(0.0, QUIET_PROFILE, constant(1.0))


class TestTransactionCounter:
    def test_mean_rate_matches_cost(self):
        rng = np.random.default_rng(1)
        counter = TransactionCounter(1e6, rng)
        readings = [counter.transactions_for(1e8) for _ in range(2000)]
        assert np.mean(readings) == pytest.approx(100.0, rel=0.05)

    def test_zero_instructions_zero_transactions(self):
        counter = TransactionCounter(1e6, np.random.default_rng(0))
        assert counter.transactions_for(0.0) == 0.0

    def test_noiseless_configuration_is_exact(self):
        counter = TransactionCounter(1e6, np.random.default_rng(0),
                                     cost_wander=0.0, measurement_noise=0.0)
        assert counter.transactions_for(5e6) == pytest.approx(5.0)

    def test_wander_decorations_correlation(self):
        # With wander, TPS from fixed IPS is noisy but strongly correlated
        # with varying IPS — the Figure 2 requirement (r ~ 0.97, not 1.0).
        rng = np.random.default_rng(2)
        counter = TransactionCounter(1e6, rng)
        ips = np.linspace(1e8, 2e8, 120)
        tps = [counter.transactions_for(i) for i in ips]
        r = np.corrcoef(ips, tps)[0, 1]
        assert 0.9 < r < 1.0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="positive"):
            TransactionCounter(0.0, rng)
        with pytest.raises(ValueError, match="noise"):
            TransactionCounter(1e6, rng, cost_wander=-0.1)
        counter = TransactionCounter(1e6, rng)
        with pytest.raises(ValueError, match=">= 0"):
            counter.transactions_for(-1.0)
