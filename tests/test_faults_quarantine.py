"""Tests for plausibility quarantine at every trust boundary.

Covers the shared validators, the transport corrupters (every kind of
damage they can inject must be caught by the validators — the loop the
chaos experiment relies on), and the three enforcement points: sampler,
agent, aggregator.
"""

import math

import numpy as np
import pytest

from repro.core.aggregator import CpiAggregator
from repro.core.agent import MachineAgent
from repro.core.config import CpiConfig
from repro.core.samplebatch import SampleColumns, WindowSamples
from repro.faults.quarantine import (
    corrupt_sample_batch,
    corrupt_spec_push,
    quarantine_reason,
    spec_is_plausible,
)
from repro.faults.retry import SampleBatch
from repro.faults.plane import SpecPush
from repro.obs import Observability
from repro.perf.counters import EVENT_ORDER, CounterBank
from repro.perf.events import CounterEvent
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import SpecKey
from repro.testing import make_quiet_machine, make_scripted_job
from tests.conftest import make_sample, make_spec
from tests.reference import aggregator as reference_aggregator


def reason_of(sample, cpi_bound):
    return quarantine_reason(sample.cpi, sample.cpu_usage, cpi_bound)

BOUND = 1000.0


class TestSampleValidator:
    def test_plausible_sample_passes(self):
        assert reason_of(make_sample(cpi=1.2), BOUND) is None

    @pytest.mark.parametrize("kwargs,reason", [
        ({"cpi": float("nan")}, "non_finite_cpi"),
        ({"cpi": float("inf")}, "non_finite_cpi"),
        ({"cpu_usage": float("nan")}, "non_finite_usage"),
        ({"cpi": 0.0}, "zero_cpi"),
        ({"cpi": BOUND * 2}, "absurd_cpi"),
    ])
    def test_each_quarantine_reason(self, kwargs, reason):
        assert reason_of(make_sample(**kwargs), BOUND) == reason


class TestSpecValidator:
    def test_plausible_spec_passes(self):
        assert spec_is_plausible(make_spec(), BOUND)

    @pytest.mark.parametrize("kwargs", [
        {"cpi_mean": float("nan")},
        {"cpi_mean": BOUND * 1e3},
        {"cpi_stddev": float("nan")},
        {"cpu_usage_mean": float("inf")},
    ])
    def test_implausible_specs_rejected(self, kwargs):
        assert not spec_is_plausible(make_spec(**kwargs), BOUND)


class TestCorrupters:
    def test_every_sample_corruption_is_caught_by_validator(self):
        batch = SampleBatch(batch_id="m0/0", machine="m0", sent_at=0,
                            samples=tuple(make_sample(t=60 * i, cpi=1.0)
                                          for i in range(1, 4)))
        for seed in range(50):
            damaged = corrupt_sample_batch(batch, np.random.default_rng(seed))
            reasons = [reason_of(s, BOUND)
                       for s in damaged.samples]
            assert sum(r is not None for r in reasons) == 1
            assert damaged.batch_id == batch.batch_id

    def test_every_spec_corruption_is_caught_by_validator(self):
        push = SpecPush(issued_at=0, specs={
            SpecKey("job-a", "p"): make_spec(jobname="job-a"),
            SpecKey("job-b", "p"): make_spec(jobname="job-b"),
        })
        for seed in range(50):
            damaged = corrupt_spec_push(push, np.random.default_rng(seed))
            bad = [k for k, s in damaged.specs.items()
                   if not spec_is_plausible(s, BOUND)]
            assert len(bad) == 1

    def test_empty_payloads_pass_through(self):
        rng = np.random.default_rng(0)
        empty_batch = SampleBatch("m0/0", "m0", 0, ())
        assert corrupt_sample_batch(empty_batch, rng) is empty_batch
        empty_push = SpecPush(issued_at=0, specs={})
        assert corrupt_spec_push(empty_push, rng) is empty_push


class TestAgentBoundary:
    def make_agent(self):
        obs = Observability()
        machine = make_quiet_machine()
        job = make_scripted_job("victim", [1.0])
        machine.place(job.tasks[0])
        agent = MachineAgent(machine, CpiConfig(), obs=obs)
        agent.update_specs({SpecKey("victim", machine.platform.name):
                            make_spec(jobname="victim")})
        return agent, obs

    def test_implausible_samples_never_reach_windows(self):
        agent, obs = self.make_agent()
        bad = make_sample(jobname="victim", taskname="victim/0",
                          cpi=float("nan"))
        agent.ingest_samples(60, [bad])
        assert agent._windows == {}
        assert obs.metrics.total("samples_quarantined") == 1

    def test_plausible_samples_still_flow(self):
        agent, obs = self.make_agent()
        good = make_sample(jobname="victim", taskname="victim/0", cpi=1.0)
        agent.ingest_samples(60, [good])
        assert "victim/0" in agent._windows
        assert obs.metrics.total("samples_quarantined") == 0

    @pytest.mark.parametrize("degraded", [False, True])
    def test_window_stays_columnar(self, degraded):
        """A quarantined row and stale-spec drops name their tasks from the
        window's columns: ingest builds no sample object."""
        agent, obs = self.make_agent()
        if degraded:
            config = agent.config
            ttl = config.spec_ttl_periods * config.spec_refresh_period
            agent.update_specs(agent._specs, now=-int(ttl) - 1)
        # Three victim samples, the middle one corrupt, as the sampler
        # ships a closed window.
        window = WindowSamples(SampleColumns.from_samples([
            make_sample(jobname="victim", taskname=f"victim/{i}", cpi=cpi)
            for i, cpi in enumerate([1.0, float("nan"), 1.0])]))
        agent.ingest_samples(60, window, columns=window.columns)
        assert agent.degraded == degraded
        assert window._samples is None
        assert obs.metrics.total("samples_quarantined") == 1
        assert sorted(agent._windows) == ["victim/0", "victim/2"]
        assert obs.metrics.total("analyses_dropped") == (2 if degraded
                                                         else 0)


#: One damaged field per quarantine reason, in the ladder's check order.
_DAMAGE = {
    "non_finite_cpi": {"cpi": float("inf")},
    "non_finite_usage": {"cpu_usage": float("nan")},
    "zero_cpi": {"cpi": 0.0},
    "absurd_cpi": {"cpi": BOUND * 2},
}


def _quarantine_via_agent(sample):
    obs = Observability()
    agent = MachineAgent(make_quiet_machine(), CpiConfig(), obs=obs)
    agent.ingest_samples(60, [sample])
    return obs, "samples_quarantined"


def _quarantine_via_ingest(sample):
    obs = Observability()
    reference_aggregator.ingest(CpiAggregator(CpiConfig(), obs=obs), sample)
    return obs, "aggregator_samples_rejected"


def _quarantine_via_ingest_batch(sample):
    obs = Observability()
    CpiAggregator(CpiConfig(), obs=obs).ingest_batch(
        SampleColumns.from_samples([sample]))
    return obs, "aggregator_samples_rejected"


@pytest.mark.parametrize("path", [_quarantine_via_agent,
                                  _quarantine_via_ingest,
                                  _quarantine_via_ingest_batch],
                         ids=["agent", "ingest", "ingest_batch"])
@pytest.mark.parametrize("reason", list(_DAMAGE))
def test_every_boundary_names_the_same_reason(reason, path):
    """Agent ingest, the per-sample reference aggregator and columnar
    aggregator ingest all count a damaged sample under the reason
    :func:`quarantine_reason` gives it."""
    kwargs = _DAMAGE[reason]
    assert quarantine_reason(kwargs.get("cpi", 1.0),
                             kwargs.get("cpu_usage", 1.0), BOUND) == reason
    obs, counter = path(make_sample(**kwargs))
    assert [(c.labels, c.value) for c in obs.metrics.counters(counter)] == \
        [((("reason", reason),), 1)]


class TestAggregatorBoundary:
    def test_rejects_non_finite_without_touching_stats(self):
        obs = Observability()
        aggregator = CpiAggregator(CpiConfig(), obs=obs)
        aggregator.ingest_batch(SampleColumns.from_samples([
            make_sample(cpi=float("nan")), make_sample(cpi=0.0),
            make_sample(cpi=1.1, t=120)]))
        assert aggregator.total_samples_rejected == 2
        assert aggregator.total_samples_ingested == 1
        assert obs.metrics.total("aggregator_samples_rejected") == 2

    def test_published_specs_stay_finite_under_garbage(self):
        config = CpiConfig(min_tasks_for_spec=1, min_samples_per_task=1)
        aggregator = CpiAggregator(config, obs=Observability())
        aggregator.ingest_batch(SampleColumns.from_samples([
            sample for i in range(20)
            for sample in (make_sample(t=60 * i, cpi=1.0 + 0.01 * i),
                           make_sample(t=60 * i, cpi=float("nan")))]))
        specs = aggregator.recompute(now=20 * 60)
        assert specs
        for spec in specs.values():
            assert math.isfinite(spec.cpi_mean)
            assert math.isfinite(spec.cpi_stddev)


class TestSamplerBoundary:
    def test_counterset_refuses_non_finite_increments(self):
        matrix = CounterBank().matrix_view(["a"])
        for event, poison in ((CounterEvent.INSTRUCTIONS_RETIRED, math.nan),
                              (CounterEvent.CPU_CLK_UNHALTED_REF, math.inf)):
            events = np.zeros_like(matrix)
            events[0, EVENT_ORDER.index(event)] = poison
            with pytest.raises(ValueError, match="finite"):
                CounterBank.burn_matrix(matrix, events)
        assert not matrix.any()

    def test_zero_instruction_window_discarded_with_count(self):
        obs = Observability()
        machine = make_quiet_machine()
        job = make_scripted_job("idle", [1.0])
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine, SamplerConfig(10, 60), obs=obs)
        # Open and close a window without ever executing the machine:
        # the task retires zero instructions, so CPI is undefined.
        sampler.tick(0)
        samples = sampler.tick(10)
        assert samples == []
        assert obs.metrics.total("sampler_windows_discarded") == 1
        labels = dict(obs.metrics.counters("sampler_windows_discarded")[0]
                      .labels)
        assert labels["reason"] == "zero_instructions"
