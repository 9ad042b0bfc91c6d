"""Unit tests for repro.core.aggregator (CPI spec learning)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import CpiAggregator
from repro.core.config import CpiConfig
from repro.core.samplebatch import SampleColumns
from repro.obs import Observability
from repro.records import CpiSample, SpecKey
from tests.conftest import make_sample, make_spec
from tests.reference import aggregator as reference_aggregator


def small_gate_config(**kwargs):
    """Gates low enough for small unit-test populations."""
    defaults = dict(min_tasks_for_spec=2, min_samples_per_task=3)
    defaults.update(kwargs)
    return CpiConfig(**defaults)


def ingest(aggregator, samples):
    """Feed samples through the aggregator's one ingest path."""
    aggregator.ingest_batch(SampleColumns.from_samples(samples))


def feed(aggregator, jobname="job", num_tasks=5, samples_per_task=10,
         cpi=1.5, usage=1.0, platform="westmere-2.6"):
    ingest(aggregator, [
        make_sample(jobname=jobname, platforminfo=platform, t=60 * (i + 1),
                    cpu_usage=usage, cpi=cpi,
                    taskname=f"{jobname}/{task_index}")
        for task_index in range(num_tasks)
        for i in range(samples_per_task)])


class TestIngestionAndStats:
    def test_mean_and_stddev(self):
        agg = CpiAggregator(small_gate_config())
        rng = np.random.default_rng(3)
        values = rng.normal(1.8, 0.16, size=600)
        ingest(agg, [make_sample(t=60 * i, cpi=max(0.01, float(cpi)),
                                 taskname=f"job/{i % 5}")
                     for i, cpi in enumerate(values)])
        specs = agg.recompute(now=0)
        spec = specs[SpecKey("job", "westmere-2.6")]
        assert spec.cpi_mean == pytest.approx(1.8, abs=0.03)
        assert spec.cpi_stddev == pytest.approx(0.16, abs=0.03)
        assert spec.num_samples == 600

    def test_cpu_usage_mean(self):
        agg = CpiAggregator(small_gate_config())
        feed(agg, usage=2.0)
        spec = agg.recompute(0)[SpecKey("job", "westmere-2.6")]
        assert spec.cpu_usage_mean == pytest.approx(2.0)

    def test_per_platform_separation(self):
        # "CPI2 does separate CPI calculations for each platform."
        agg = CpiAggregator(small_gate_config())
        feed(agg, cpi=1.0, platform="westmere-2.6")
        feed(agg, cpi=1.3, platform="nehalem-2.3")
        specs = agg.recompute(0)
        assert specs[SpecKey("job", "westmere-2.6")].cpi_mean == pytest.approx(1.0)
        assert specs[SpecKey("job", "nehalem-2.3")].cpi_mean == pytest.approx(1.3)

    def test_total_samples_counter(self):
        agg = CpiAggregator(small_gate_config())
        feed(agg, num_tasks=2, samples_per_task=4)
        assert agg.total_samples_ingested == 8


class TestRobustnessGates:
    def test_too_few_tasks_not_published(self):
        agg = CpiAggregator(CpiConfig(min_tasks_for_spec=5,
                                      min_samples_per_task=1))
        feed(agg, num_tasks=4, samples_per_task=10)
        assert agg.recompute(0) == {}

    def test_too_few_samples_not_published(self):
        agg = CpiAggregator(CpiConfig(min_tasks_for_spec=2,
                                      min_samples_per_task=100))
        feed(agg, num_tasks=5, samples_per_task=50)
        assert agg.recompute(0) == {}

    def test_gate_failure_keeps_previous_spec(self):
        agg = CpiAggregator(small_gate_config())
        previous = make_spec(cpi_mean=1.5)
        agg.set_spec(previous)
        feed(agg, num_tasks=1, samples_per_task=1)  # below the gates
        specs = agg.recompute(0)
        assert specs[previous.key()] == previous


class TestAgeWeighting:
    def test_blend_pulls_toward_fresh_data(self):
        agg = CpiAggregator(small_gate_config())
        agg.set_spec(make_spec(cpi_mean=1.0, cpi_stddev=0.1, num_samples=1000))
        feed(agg, cpi=2.0)
        spec = agg.recompute(0)[SpecKey("job", "westmere-2.6")]
        # (0.9 * 1.0 + 1.0 * 2.0) / 1.9
        assert spec.cpi_mean == pytest.approx((0.9 + 2.0) / 1.9)

    def test_history_decays_geometrically(self):
        agg = CpiAggregator(small_gate_config())
        agg.set_spec(make_spec(cpi_mean=1.0))
        mean = 1.0
        for day in range(5):
            feed(agg, cpi=2.0)
            mean = (0.9 * mean + 2.0) / 1.9
            spec = agg.recompute(day)[SpecKey("job", "westmere-2.6")]
            assert spec.cpi_mean == pytest.approx(mean)
        assert spec.cpi_mean > 1.9  # converging to the new level

    def test_zero_age_weight_forgets_history(self):
        agg = CpiAggregator(small_gate_config(history_age_weight=0.0))
        agg.set_spec(make_spec(cpi_mean=1.0))
        feed(agg, cpi=2.0)
        spec = agg.recompute(0)[SpecKey("job", "westmere-2.6")]
        assert spec.cpi_mean == pytest.approx(2.0)

    def test_num_samples_blends(self):
        agg = CpiAggregator(small_gate_config())
        agg.set_spec(make_spec(num_samples=1000))
        feed(agg, num_tasks=5, samples_per_task=10)  # 50 fresh
        spec = agg.recompute(0)[SpecKey("job", "westmere-2.6")]
        assert spec.num_samples == int(0.9 * 1000) + 50


class TestRefreshSchedule:
    def test_maybe_recompute_first_call_always_fires(self):
        agg = CpiAggregator(small_gate_config())
        assert agg.maybe_recompute(0) is not None

    def test_maybe_recompute_respects_period(self):
        agg = CpiAggregator(small_gate_config(spec_refresh_period=3600))
        agg.maybe_recompute(0)
        assert agg.maybe_recompute(3599) is None
        assert agg.maybe_recompute(3600) is not None

    def test_period_data_cleared_after_recompute(self):
        agg = CpiAggregator(small_gate_config())
        feed(agg, cpi=2.0)
        agg.recompute(0)
        # No new data: specs unchanged on next recompute.
        before = agg.specs()
        agg.recompute(1)
        assert agg.specs() == before


class TestSpecAccess:
    def test_spec_for(self):
        agg = CpiAggregator(small_gate_config())
        agg.set_spec(make_spec(jobname="search"))
        assert agg.spec_for("search", "westmere-2.6") is not None
        assert agg.spec_for("search", "unknown") is None
        assert agg.spec_for("nope", "westmere-2.6") is None

    def test_specs_returns_copy(self):
        agg = CpiAggregator(small_gate_config())
        agg.set_spec(make_spec())
        specs = agg.specs()
        specs.clear()
        assert agg.specs()  # unchanged


# -- ingest_batch vs the per-sample reference --------------------------------


def _quarantine_mix() -> list[CpiSample]:
    """Plausible samples interleaved with every quarantine reason."""
    bound = CpiConfig().quarantine_cpi_bound
    return [
        CpiSample("svc", "westmere-2.6", 1, 0.5, 1.25, "svc/0"),
        CpiSample("svc", "westmere-2.6", 2, 0.5, math.nan, "svc/0"),
        CpiSample("svc", "westmere-2.6", 3, math.inf, 1.0, "svc/1"),
        CpiSample("svc", "westmere-2.6", 4, 0.5, 0.0, "svc/1"),
        CpiSample("svc", "westmere-2.6", 5, 0.5, bound * 2, "svc/0"),
        CpiSample("svc", "westmere-2.6", 6, 0.7, 1.31, "svc/1"),
        CpiSample("batch", "clovertown-2.3", 7, 1.1, 2.25, None),
        CpiSample("svc", "clovertown-2.3", 8, 0.9, 1.75, "svc/2"),
    ]


def _assert_matches_reference(samples):
    """Columnar ingest == the per-sample reference: state, key order, and
    the rejection event sequence."""
    config = CpiConfig(min_tasks_for_spec=1, min_samples_per_task=1)
    runs = {}
    for engine in ("reference", "batch"):
        obs = Observability()
        events = []
        obs.events.add_sink(events.append)
        aggregator = CpiAggregator(config, obs=obs)
        if engine == "reference":
            reference_aggregator.ingest_many(aggregator, samples)
        else:
            aggregator.ingest_batch(SampleColumns.from_samples(samples))
        # Unsorted on purpose: recompute, export_state and the spec-push
        # order all follow the period's key insertion order.
        before = json.dumps(aggregator.export_state())
        aggregator.recompute(0)
        after = json.dumps(aggregator.export_state())
        rejected = [e for e in events
                    if e["event"] == "aggregator_sample_rejected"]
        counters = sorted((c.name, c.labels, c.value)
                          for c in obs.metrics.counters())
        runs[engine] = (before, after, rejected, counters)
    assert runs["batch"] == runs["reference"]
    return runs["batch"]


def test_ingest_batch_matches_scalar_ingest():
    """Same samples, same accumulators, same key order, same rejections."""
    before, _after, rejected, _counters = _assert_matches_reference(
        _quarantine_mix())
    state = json.loads(before)
    assert state["total_ingested"] == 4 and state["total_rejected"] == 4
    assert [(c["jobname"], c["platforminfo"]) for c in state["current"]] == [
        ("svc", "westmere-2.6"), ("batch", "clovertown-2.3"),
        ("svc", "clovertown-2.3")]
    assert [e["reason"] for e in rejected] == [
        "non_finite_cpi", "non_finite_usage", "zero_cpi", "absurd_cpi"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ingest_batch_matches_reference_on_random_mixes(data):
    bound = CpiConfig().quarantine_cpi_bound
    keys = [("svc", "westmere-2.6"), ("svc", "clovertown-2.3"),
            ("batch", "westmere-2.6")]
    samples = []
    for i in range(data.draw(st.integers(0, 30), label="n")):
        job, platform = data.draw(st.sampled_from(keys), label=f"key{i}")
        samples.append(CpiSample(
            job, platform, i,
            data.draw(st.sampled_from([0.1, 0.7, 1.0, math.nan, math.inf]),
                      label=f"usage{i}"),
            data.draw(st.one_of(
                st.floats(1e-6, bound),
                st.sampled_from([0.0, math.nan, math.inf, 2 * bound])),
                label=f"cpi{i}"),
            data.draw(st.sampled_from([f"{job}/0", f"{job}/1", None]),
                      label=f"task{i}")))
    _assert_matches_reference(samples)


#: Tolerances for Welford against a numpy two-pass.  Measured worst case
#: over 16,000 random draws (n <= 200; shapes from tightly clustered to
#: 1e-6/1000 spikes): 1.7e-15 relative for the mean and 2.0e-15 of E[x^2]
#: for the population variance.  1e-13 leaves ~50x headroom.
_WELFORD_RTOL = 1e-13


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-6, CpiConfig().quarantine_cpi_bound),
                min_size=1, max_size=200))
def test_welford_matches_numpy_two_pass(cpis):
    aggregator = CpiAggregator(CpiConfig())
    ingest(aggregator, [make_sample(t=i, cpi=cpi, taskname=f"job/{i % 3}")
                        for i, cpi in enumerate(cpis)])
    [entry] = aggregator.export_state()["current"]
    values = np.asarray(cpis)
    mean = float(np.mean(values))
    variance = float(np.mean((values - mean) ** 2))
    assert entry["count"] == len(cpis)
    assert abs(entry["mean"] - mean) <= _WELFORD_RTOL * mean
    second_moment = mean * mean + variance
    assert (abs(entry["m2"] / entry["count"] - variance)
            <= _WELFORD_RTOL * second_moment)
