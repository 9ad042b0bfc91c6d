"""Tests for plausibility quarantine at every trust boundary.

Covers the shared validators, the transport corrupters (every kind of
damage they can inject must be caught by the validators — the loop the
chaos experiment relies on), and the three enforcement points: sampler,
agent, aggregator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import CpiAggregator
from repro.core.agent import MachineAgent
from repro.core.config import CpiConfig
from repro.core.samplebatch import SampleColumns
from repro.faults.quarantine import (
    corrupt_sample_batch,
    corrupt_spec_push,
    quarantine_reason,
    spec_is_plausible,
)
from repro.faults.plane import SpecPush
from repro.faults.profile import LinkFaults, RetryPolicy
from repro.faults.retry import SampleBatch, UploadClient
from repro.faults.transport import FaultyLink
from repro.obs import Observability
from repro.perf.counters import EVENT_ORDER, CounterBank
from repro.perf.events import CounterEvent
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import CpiSample, SpecKey
from repro.testing import make_quiet_machine, make_scripted_job
from tests.conftest import make_sample, make_spec
from tests.reference import aggregator as reference_aggregator
from tests.reference import wire as reference_wire


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
        batch = SampleBatch("m0/0", "m0", 0, SampleColumns.from_samples(
            [make_sample(t=60 * i, cpi=1.0) for i in range(1, 4)]))
        for seed in range(50):
            damaged = corrupt_sample_batch(batch, np.random.default_rng(seed))
            reasons = [reason_of(s, BOUND)
                       for s in damaged.columns.to_samples()]
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
        empty_batch = SampleBatch("m0/0", "m0", 0, SampleColumns.empty())
        assert corrupt_sample_batch(empty_batch, rng) is empty_batch
        empty_push = SpecPush(issued_at=0, specs={})
        assert corrupt_spec_push(empty_push, rng) is empty_push


#: Sample values the wire may carry, damaged ones included.
_wire_values = st.one_of(st.floats(min_value=0.0), st.just(float("nan")))
_names = st.text(max_size=6)
_wire_samples = st.builds(
    CpiSample, jobname=_names, platforminfo=_names,
    timestamp=st.integers(0, 2**62), cpu_usage=_wire_values,
    cpi=_wire_values, taskname=_names)


def _canon(samples):
    return [(s.jobname, s.platforminfo, s.timestamp, s.cpu_usage.hex(),
             s.cpi.hex(), s.taskname) for s in samples]


def _seed_for_damage(seed: int, rows: int, damage: int) -> int:
    """The first seed from ``seed`` on whose two draws pick ``damage``."""
    while True:
        rng = np.random.default_rng(seed)
        rng.integers(rows)
        if int(rng.integers(len(reference_wire.SAMPLE_DAMAGE))) == damage:
            return seed
        seed += 1


@pytest.mark.parametrize(
    "damage", range(len(reference_wire.SAMPLE_DAMAGE)),
    ids=[name for name, _ in reference_wire.SAMPLE_DAMAGE])
@settings(max_examples=40, deadline=None)
@given(samples=st.lists(_wire_samples, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_columnar_corrupter_matches_object_corrupter(damage, samples, seed):
    """The columnar corrupter damages the same row the same way as the
    object-level reference, and leaves its generator in the same state."""
    if samples:
        seed = _seed_for_damage(seed, len(samples), damage)
    expected_rng = np.random.default_rng(seed)
    expected = reference_wire.corrupt_sample_batch(
        reference_wire.SampleBatch("m0/0", "m0", 0, tuple(samples)),
        expected_rng)
    rng = np.random.default_rng(seed)
    batch = SampleBatch("m0/0", "m0", 0, SampleColumns.from_samples(samples))
    damaged = corrupt_sample_batch(batch, rng)
    assert _canon(damaged.columns.to_samples()) == _canon(expected.samples)
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    assert (damaged.batch_id, damaged.machine, damaged.sent_at) == \
        ("m0/0", "m0", 0)
    # The undamaged batch is untouched.
    assert _canon(batch.columns.to_samples()) == _canon(samples)


def test_corrupted_send_leaves_the_shared_window_alone():
    """The pipeline hands one window to the upload client (which keeps it
    for resends) and then to the agent; a corrupted send damages only the
    copy on the wire."""
    obs = Observability()
    machine = make_quiet_machine()
    agent = MachineAgent(machine, CpiConfig(), obs=obs)
    window = SampleColumns.from_samples([
        make_sample(jobname="victim", taskname=f"victim/{i}", cpi=1.0 + i)
        for i in range(4)])
    before = [getattr(window, c).tobytes() for c in ("cpu_usage", "cpi")]
    delivered = []
    link = FaultyLink("upload:m0", LinkFaults(corrupt_rate=1.0),
                      np.random.default_rng(3),
                      deliver=lambda t, batch: delivered.append(batch),
                      corrupter=corrupt_sample_batch)
    client = UploadClient("m0", link.send, RetryPolicy(),
                          np.random.default_rng(4))
    batch_id = client.upload(60, window)
    agent.ingest_samples(60, window)
    link.tick(61)
    (arrived,) = delivered
    assert link.fault_tallies["corrupt"] == 1
    assert sum(reason_of(s, BOUND) is not None
               for s in arrived.columns.to_samples()) == 1
    assert client._pending[batch_id].batch.columns is window
    assert [getattr(window, c).tobytes()
            for c in ("cpu_usage", "cpi")] == before
    assert obs.metrics.total("samples_quarantined") == 0
    assert sorted(agent._windows) == [f"victim/{i}" for i in range(4)]


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
        agent.ingest_samples(60, SampleColumns.from_samples([bad]))
        assert agent._windows == {}
        assert obs.metrics.total("samples_quarantined") == 1

    def test_plausible_samples_still_flow(self):
        agent, obs = self.make_agent()
        good = make_sample(jobname="victim", taskname="victim/0", cpi=1.0)
        agent.ingest_samples(60, SampleColumns.from_samples([good]))
        assert "victim/0" in agent._windows
        assert obs.metrics.total("samples_quarantined") == 0

    @pytest.mark.parametrize("degraded", [False, True])
    def test_window_stays_columnar(self, degraded, monkeypatch):
        """A quarantined row and stale-spec drops name their tasks from the
        window's columns: ingest builds no sample object."""
        agent, obs = self.make_agent()
        if degraded:
            config = agent.config
            ttl = config.spec_ttl_periods * config.spec_refresh_period
            agent.update_specs(agent._specs, now=-int(ttl) - 1)
        # Three victim samples, the middle one corrupt, as the sampler
        # ships a closed window.
        window = SampleColumns.from_samples([
            make_sample(jobname="victim", taskname=f"victim/{i}", cpi=cpi)
            for i, cpi in enumerate([1.0, float("nan"), 1.0])])

        def no_objects(sample):
            raise AssertionError("ingest built a CpiSample")

        monkeypatch.setattr(CpiSample, "__post_init__", no_objects)
        agent.ingest_samples(60, window)
        monkeypatch.undo()
        assert agent.degraded == degraded
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
    agent.ingest_samples(60, SampleColumns.from_samples([sample]))
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
        assert len(samples) == 0
        assert obs.metrics.total("sampler_windows_discarded") == 1
        labels = dict(obs.metrics.counters("sampler_windows_discarded")[0]
                      .labels)
        assert labels["reason"] == "zero_instructions"
