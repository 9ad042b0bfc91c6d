"""The columnar sampling plane vs the scalar golden reference.

``REPRO_SAMPLER_ENGINE=vector`` closes sampling windows as array passes
over the machine's counter matrix and usage-ring matrix, emitting
``SampleColumns`` directly; ``scalar`` is the original per-task loop, kept
as the never-optimized reference.  Everything observable — samples,
incidents, specs, cap counters, discard counters, discard *events and their
order* — must match byte for byte (``float.hex()``), single-process and
sharded.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster.shards import run_sharded
from repro.cluster.task import TaskState
from repro.core.config import CpiConfig
from repro.core.samplebatch import SampleColumns, WindowSamples
from repro.experiments.chaos import chaos_scenario
from repro.experiments.scenarios import scale_scenario
from repro.obs import Observability
from repro.perf.sampler import (SAMPLER_ENGINE_ENV, SAMPLER_ENGINES,
                                CpiSampler, SamplerConfig,
                                default_sampler_engine)
from repro.testing import make_quiet_machine, make_scripted_job

# ---------------------------------------------------------------------------
# helpers


def _hex(x) -> str:
    return float(x).hex()


def _canon_samples(samples):
    return [(s.jobname, s.platforminfo, s.timestamp, _hex(s.cpu_usage),
             _hex(s.cpi), s.taskname) for s in samples]


def _drive(machine, sampler, seconds, skip_ticks=()):
    """Tick machine+sampler over ``seconds``; returns closed windows.

    ``skip_ticks`` seconds are skipped on the *machine* only (no charge
    arrives — the sampler still runs), which leaves gaps in usage rings.
    """
    collected = []
    for t in range(seconds):
        if t not in skip_ticks:
            machine.tick(t)
        samples = sampler.tick(t)
        if samples:
            collected.append((t, samples))
    return collected


def _discard_run(engine, seconds=11, skip_ticks=()):
    """One machine with an idle task among active ones: the idle task's
    windows discard as zero_instructions.  Returns everything observable."""
    obs = Observability()
    events = []
    obs.events.add_sink(events.append)
    machine = make_quiet_machine()
    machine.place(make_scripted_job("idle", [0.0], cpu_limit=4.0).tasks[0])
    machine.place(make_scripted_job("busy", [1.0], cpu_limit=4.0).tasks[0])
    machine.place(make_scripted_job("work", [2.0], cpu_limit=4.0).tasks[0])
    sampler = CpiSampler(machine, obs=obs, engine=engine)
    collected = _drive(machine, sampler, seconds, skip_ticks=skip_ticks)
    return {
        "windows": [(t, _canon_samples(samples)) for t, samples in collected],
        "discards": obs.metrics.total("sampler_windows_discarded"),
        "events": [e for e in events
                   if e["event"] == "sampler_window_discarded"],
    }


# ---------------------------------------------------------------------------
# engine selection


class TestEngineSelection:
    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(SAMPLER_ENGINE_ENV, raising=False)
        assert default_sampler_engine() == "vector"
        assert CpiSampler(make_quiet_machine()).engine == "vector"

    def test_env_selects_engine(self, monkeypatch):
        for engine in SAMPLER_ENGINES:
            monkeypatch.setenv(SAMPLER_ENGINE_ENV, engine)
            assert default_sampler_engine() == engine
            assert CpiSampler(make_quiet_machine()).engine == engine

    def test_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(SAMPLER_ENGINE_ENV, "turbo")
        with pytest.raises(ValueError, match="turbo"):
            default_sampler_engine()

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv(SAMPLER_ENGINE_ENV, "scalar")
        assert CpiSampler(make_quiet_machine(), engine="vector").engine == \
            "vector"

    def test_constructor_rejects_unknown(self):
        with pytest.raises(ValueError, match="warp"):
            CpiSampler(make_quiet_machine(), engine="warp")


# ---------------------------------------------------------------------------
# the vector window is columns-first


class TestWindowSamples:
    def _one_window(self, engine):
        machine = make_quiet_machine()
        machine.place(make_scripted_job("j", [1.0], cpu_limit=4.0).tasks[0])
        sampler = CpiSampler(machine, engine=engine)
        (_, samples), = _drive(machine, sampler, 11)
        return samples

    def test_vector_window_is_lazy_columns(self):
        samples = self._one_window("vector")
        assert isinstance(samples, WindowSamples)
        assert isinstance(samples.columns, SampleColumns)
        assert samples._samples is None          # len/bool didn't materialize
        assert len(samples) == 1 and bool(samples)
        assert samples._samples is None
        assert samples[0].taskname == "j/0"      # first element access does
        assert samples._samples is not None

    def test_scalar_window_is_a_list(self):
        assert isinstance(self._one_window("scalar"), list)

    def test_windows_compare_equal_across_engines(self):
        assert self._one_window("vector") == self._one_window("scalar")

    def test_empty_window_is_falsy(self):
        machine = make_quiet_machine()   # no tasks at all
        sampler = CpiSampler(machine, engine="vector")
        sampler.tick(0)
        assert not sampler.tick(10)


# ---------------------------------------------------------------------------
# unit-level parity: discards, churn, charge gaps


class TestUnitParity:
    def test_discard_counts_and_event_order_match(self):
        scalar = _discard_run("scalar")
        vector = _discard_run("vector")
        assert scalar["discards"] == vector["discards"] == 1.0
        assert scalar["events"] == vector["events"]
        assert vector["events"][0]["reason"] == "zero_instructions"
        assert scalar["windows"] == vector["windows"]

    def test_parity_with_machine_tick_gap(self):
        # Skipping machine seconds mid-window leaves charge gaps, which the
        # rings zero-fill, so the vector engine's matrix read still matches
        # the scalar engine.
        scalar = _discard_run("scalar", seconds=71, skip_ticks=(4, 63))
        vector = _discard_run("vector", seconds=71, skip_ticks=(4, 63))
        assert scalar == vector
        assert len(vector["windows"]) == 2
        # Skipping a window's last second leaves every ring charged only up
        # to the second before: the vector engine reads those rows through
        # usage_between instead of the matrix.
        scalar = _discard_run("scalar", seconds=71, skip_ticks=(4, 70))
        vector = _discard_run("vector", seconds=71, skip_ticks=(4, 70))
        assert scalar == vector
        assert len(vector["windows"]) == 2

    def test_mid_window_arrival_and_departure_parity(self):
        def run(engine):
            machine = make_quiet_machine()
            machine.place(
                make_scripted_job("a", [1.0], cpu_limit=4.0).tasks[0])
            late = make_scripted_job("b", [1.0], cpu_limit=4.0)
            sampler = CpiSampler(machine, engine=engine)
            collected = []
            for t in range(75):
                if t == 5:
                    machine.place(late.tasks[0])   # arrives mid-window
                machine.tick(t)
                if t == 64:
                    machine.remove("a/0", TaskState.KILLED)  # departs mid-window
                samples = sampler.tick(t)
                if samples:
                    collected.append((t, _canon_samples(samples)))
            return collected

        scalar = run("scalar")
        assert run("vector") == scalar
        # First window: only the resident-at-open task; second: only the
        # survivor of the kill.
        assert [sorted(s[-1] for s in w) for _, w in scalar] == \
            [["a/0"], ["b/0"]]

    def test_custom_duty_cycle_parity(self):
        def run(engine):
            machine = make_quiet_machine()
            machine.place(
                make_scripted_job("j", [1.0, 3.0], cpu_limit=4.0).tasks[0])
            sampler = CpiSampler(
                machine, SamplerConfig(duration_seconds=5, period_seconds=20),
                engine=engine)
            return [(t, _canon_samples(s))
                    for t, s in _drive(machine, sampler, 50)]

        assert run("vector") == run("scalar")

    def test_legacy_tick_engine_with_vector_sampler(self, monkeypatch):
        # The vector sampler builds the machine's task table even when the
        # tick engine never would (REPRO_TICK_ENGINE=legacy); building it
        # must not perturb anything observable.
        monkeypatch.setenv("REPRO_TICK_ENGINE", "legacy")

        def run(engine):
            monkeypatch.setenv(SAMPLER_ENGINE_ENV, engine)
            scenario = scale_scenario(num_machines=2, seed=3,
                                      num_service_jobs=1, num_batch_jobs=1,
                                      tasks_per_job=4)
            scenario.pipeline.log_samples = True
            scenario.simulation.run(300)
            return _canon_samples(scenario.pipeline.sample_log)

        baseline = run("scalar")
        assert len(baseline) > 0
        assert run("vector") == baseline


class TestDiscardCounterCache:
    def test_counter_handle_cached_per_reason(self):
        obs = Observability()
        machine = make_quiet_machine()
        sampler = CpiSampler(machine, obs=obs, engine="vector")
        sampler._discard_window("t/0", "zero_instructions")
        handle = sampler._discard_counters["zero_instructions"]
        sampler._discard_window("t/0", "zero_instructions")
        assert sampler._discard_counters["zero_instructions"] is handle
        assert obs.metrics.total("sampler_windows_discarded") == 2.0

    def test_cache_invalidated_when_obs_swapped(self):
        machine = make_quiet_machine()
        sampler = CpiSampler(machine, obs=Observability(), engine="vector")
        sampler._discard_window("t/0", "zero_instructions")
        assert sampler._discard_counters
        replacement = Observability()
        sampler.obs = replacement   # what set_observability does
        sampler._discard_window("t/0", "non_finite_usage")
        assert set(sampler._discard_counters) == {"non_finite_usage"}
        assert replacement.metrics.total("sampler_windows_discarded") == 1.0

    def test_no_obs_no_counting(self):
        sampler = CpiSampler(make_quiet_machine(), engine="vector")
        sampler._discard_window("t/0", "zero_instructions")   # must not raise
        assert not sampler._discard_counters


# ---------------------------------------------------------------------------
# end-to-end golden parity, scalar vs vector engine


_SCALE_KWARGS = dict(num_machines=6, seed=11, num_service_jobs=2,
                     num_batch_jobs=2, tasks_per_job=6,
                     config=CpiConfig(spec_refresh_period=600,
                                      min_samples_per_task=5))

_CHAOS_KWARGS = dict(seed=0, num_machines=4, fault_profile="moderate",
                     fault_seed=1)


def _canon_incidents(incidents):
    return [(i.machine, i.time_seconds, i.victim_taskname, i.victim_jobname,
             _hex(i.victim_cpi), _hex(i.cpi_threshold),
             tuple((s.taskname, s.jobname, _hex(s.correlation))
                   for s in i.suspects),
             i.decision.action.value,
             None if i.post_cpi is None else _hex(i.post_cpi), i.recovered)
            for i in incidents]


def _canon_specs(aggregator):
    return sorted(
        (key.jobname, key.platforminfo, spec.num_samples,
         _hex(spec.cpu_usage_mean), _hex(spec.cpi_mean), _hex(spec.cpi_stddev))
        for key, spec in aggregator.specs().items())


def _run_single(builder, kwargs, seconds):
    scenario = builder(**kwargs)
    pipeline = scenario.pipeline
    pipeline.log_samples = True
    scenario.simulation.run(seconds)
    return {
        "samples": _canon_samples(pipeline.sample_log),
        "incidents": _canon_incidents(pipeline.all_incidents()),
        "specs": _canon_specs(pipeline.aggregator),
        "caps": pipeline.obs.metrics.total("caps_applied"),
        "discards": pipeline.obs.metrics.total("sampler_windows_discarded"),
    }


def _run_sharded(builder, kwargs, seconds, jobs):
    result = run_sharded(builder, kwargs, seconds=seconds, jobs=jobs,
                         log_samples=True)
    return {
        "samples": _canon_samples(result.sample_log),
        "incidents": _canon_incidents(result.all_incidents()),
        "specs": _canon_specs(result.pipeline.aggregator),
        "caps": result.pipeline.obs.metrics.total("caps_applied"),
        "discards": result.pipeline.obs.metrics.total(
            "sampler_windows_discarded"),
    }


class TestGoldenEngineParity:
    def test_scale_clean_parity_across_jobs(self, monkeypatch):
        """Clean fleet: scalar reference == vector engine, single-process
        and sharded at 1/2/4 workers, byte for byte."""
        seconds = 1200
        monkeypatch.setenv(SAMPLER_ENGINE_ENV, "scalar")
        baseline = _run_single(scale_scenario, _SCALE_KWARGS, seconds)
        assert len(baseline["samples"]) > 300   # not vacuously equal
        monkeypatch.setenv(SAMPLER_ENGINE_ENV, "vector")
        assert _run_single(scale_scenario, _SCALE_KWARGS,
                           seconds) == baseline
        for jobs in (1, 2, 4):
            assert _run_sharded(scale_scenario, _SCALE_KWARGS, seconds,
                                jobs) == baseline, f"jobs={jobs}"

    def test_chaos_moderate_parity_across_jobs(self, monkeypatch):
        """Moderate chaos: caps fire and machines churn; sample, incident,
        spec, cap-counter, and discard-counter streams must stay
        byte-identical."""
        seconds = 2400
        monkeypatch.setenv(SAMPLER_ENGINE_ENV, "scalar")
        baseline = _run_single(chaos_scenario, _CHAOS_KWARGS, seconds)
        assert len(baseline["incidents"]) > 0   # detection fired
        assert baseline["caps"] > 0             # caps actually applied
        monkeypatch.setenv(SAMPLER_ENGINE_ENV, "vector")
        assert _run_single(chaos_scenario, _CHAOS_KWARGS,
                           seconds) == baseline
        for jobs in (1, 2, 4):
            assert _run_sharded(chaos_scenario, _CHAOS_KWARGS, seconds,
                                jobs) == baseline, f"jobs={jobs}"
