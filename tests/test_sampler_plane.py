"""The columnar sampling plane vs the scalar golden reference.

:class:`CpiSampler` closes sampling windows as array passes over the
machine's counter matrix and usage-ring matrix, emitting ``SampleColumns``
directly; ``tests/reference/sampler.py`` is the original per-task loop,
kept as the never-optimized reference.  Everything observable — samples,
incidents, specs, cap counters, discard counters, discard *events and their
order* — must match byte for byte (``float.hex()``), single-process and
sharded.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.cluster.shards import run_sharded
from repro.cluster.task import TaskState
from repro.core.config import CpiConfig
from repro.core.samplebatch import SampleColumns, WindowSamples
from repro.experiments.chaos import chaos_scenario
from repro.experiments.scenarios import scale_scenario
from repro.obs import Observability
from repro.perf.counters import EVENT_ORDER
from repro.perf.events import CounterEvent
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.testing import make_quiet_machine, make_scripted_job
from tests.reference import sampler as reference_sampler
from tests.reference import tick as reference_tick


# ---------------------------------------------------------------------------
# helpers


def _hex(x) -> str:
    return float(x).hex()


def _canon_samples(samples):
    return [(s.jobname, s.platforminfo, s.timestamp, _hex(s.cpu_usage),
             _hex(s.cpi), s.taskname) for s in samples]


@contextmanager
def _window_close(path):
    """Run the enclosed code with ``path``'s window close."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "reference":
            reference_sampler.install(patch)
        yield


def _drive(machine, sampler, seconds, skip_ticks=(), after_tick=None):
    """Tick machine+sampler over ``seconds``; returns closed windows.

    ``skip_ticks`` seconds are skipped on the *machine* only (no charge
    arrives — the sampler still runs), which leaves gaps in usage rings.
    ``after_tick(t)`` runs between the machine's and the sampler's tick.
    """
    collected = []
    for t in range(seconds):
        if t not in skip_ticks:
            machine.tick(t)
        if after_tick is not None:
            after_tick(t)
        samples = sampler.tick(t)
        if samples:
            collected.append((t, samples))
    return collected


def _discard_run(path, seconds=11, skip_ticks=(), corrupt=()):
    """One machine with an idle task among active ones: the idle task's
    windows discard as zero_instructions.  ``corrupt`` lists
    ``(taskname, event, value)`` counter reads overwritten at t=5, mid
    first window.  Returns everything observable."""
    obs = Observability()
    events = []
    obs.events.add_sink(events.append)
    machine = make_quiet_machine()
    machine.place(make_scripted_job("idle", [0.0], cpu_limit=4.0).tasks[0])
    machine.place(make_scripted_job("busy", [1.0], cpu_limit=4.0).tasks[0])
    machine.place(make_scripted_job("work", [2.0], cpu_limit=4.0).tasks[0])
    sampler = CpiSampler(machine, obs=obs)

    def corrupt_reads(t):
        if t != 5:
            return
        for taskname, event, value in corrupt:
            cgroup = machine.get_task(taskname).cgroup.name
            counters = machine.counters.counters_for(cgroup)
            counters._values[EVENT_ORDER.index(event)] = value

    with _window_close(path):
        collected = _drive(machine, sampler, seconds, skip_ticks=skip_ticks,
                           after_tick=corrupt_reads)
    return {
        "windows": [(t, _canon_samples(samples)) for t, samples in collected],
        "discards": obs.metrics.total("sampler_windows_discarded"),
        "events": [e for e in events
                   if e["event"] == "sampler_window_discarded"],
    }


# ---------------------------------------------------------------------------
# the window is columns-first


class TestWindowSamples:
    def _one_window(self, path="columnar"):
        machine = make_quiet_machine()
        machine.place(make_scripted_job("j", [1.0], cpu_limit=4.0).tasks[0])
        sampler = CpiSampler(machine)
        with _window_close(path):
            (_, samples), = _drive(machine, sampler, 11)
        return samples

    def test_vector_window_is_lazy_columns(self):
        samples = self._one_window()
        assert isinstance(samples, WindowSamples)
        assert isinstance(samples.columns, SampleColumns)
        assert samples._samples is None          # len/bool didn't materialize
        assert len(samples) == 1 and bool(samples)
        assert samples._samples is None
        assert samples[0].taskname == "j/0"      # first element access does
        assert samples._samples is not None

    def test_windows_compare_equal_across_engines(self):
        assert self._one_window() == self._one_window("reference")

    def test_empty_window_is_falsy(self):
        machine = make_quiet_machine()   # no tasks at all
        sampler = CpiSampler(machine)
        assert isinstance(sampler.tick(0), WindowSamples)   # opens only
        assert not sampler.tick(10)


# ---------------------------------------------------------------------------
# unit-level parity: discards, churn, charge gaps


class TestUnitParity:
    def test_discard_counts_and_event_order_match(self):
        scalar = _discard_run("reference")
        vector = _discard_run("columnar")
        assert scalar["discards"] == vector["discards"] == 1.0
        assert scalar["events"] == vector["events"]
        assert vector["events"][0]["reason"] == "zero_instructions"
        assert scalar["windows"] == vector["windows"]

    def test_corrupt_counter_discard_precedence(self):
        # A NaN instruction count fails the finiteness guard *and* the
        # positivity guard; the counters guard must win, as in the
        # reference loop.  An infinite cycle count fails finiteness only.
        corrupt = (("busy/0", CounterEvent.INSTRUCTIONS_RETIRED,
                    float("nan")),
                   ("work/0", CounterEvent.CPU_CLK_UNHALTED_REF,
                    float("inf")))
        scalar = _discard_run("reference", corrupt=corrupt)
        vector = _discard_run("columnar", corrupt=corrupt)
        assert scalar == vector
        assert [(e["task"], e["reason"]) for e in vector["events"]] == [
            ("busy/0", "non_finite_counters"),
            ("idle/0", "zero_instructions"),
            ("work/0", "non_finite_counters")]

    def test_parity_with_machine_tick_gap(self):
        # Skipping machine seconds mid-window leaves charge gaps, which the
        # rings zero-fill, so the columnar matrix read still matches the
        # reference.
        scalar = _discard_run("reference", seconds=71, skip_ticks=(4, 63))
        vector = _discard_run("columnar", seconds=71, skip_ticks=(4, 63))
        assert scalar == vector
        assert len(vector["windows"]) == 2
        # Skipping a window's last second leaves every ring charged only up
        # to the second before: the columnar close reads those rows through
        # usage_between instead of the matrix.
        scalar = _discard_run("reference", seconds=71, skip_ticks=(4, 70))
        vector = _discard_run("columnar", seconds=71, skip_ticks=(4, 70))
        assert scalar == vector
        assert len(vector["windows"]) == 2

    def test_skipped_window_end_after_ring_wrap_parity(self):
        # Past 900 s the skipped last second's ring slot still holds the
        # usage of 900 s before, so a close that read every row from the
        # matrix without checking the table's clock would report it.
        scalar = _discard_run("reference", seconds=971, skip_ticks=(970,))
        vector = _discard_run("columnar", seconds=971, skip_ticks=(970,))
        assert scalar == vector
        assert len(vector["windows"]) == 17

    def test_mid_window_arrival_and_departure_parity(self):
        def run(path):
            machine = make_quiet_machine()
            machine.place(
                make_scripted_job("a", [1.0], cpu_limit=4.0).tasks[0])
            late = make_scripted_job("b", [1.0], cpu_limit=4.0)
            sampler = CpiSampler(machine)
            collected = []
            with _window_close(path):
                for t in range(75):
                    if t == 5:
                        machine.place(late.tasks[0])   # arrives mid-window
                    machine.tick(t)
                    if t == 64:
                        # departs mid-window
                        machine.remove("a/0", TaskState.KILLED)
                    samples = sampler.tick(t)
                    if samples:
                        collected.append((t, _canon_samples(samples)))
            return collected

        scalar = run("reference")
        assert run("columnar") == scalar
        # First window: only the resident-at-open task; second: only the
        # survivor of the kill.
        assert [sorted(s[-1] for s in w) for _, w in scalar] == \
            [["a/0"], ["b/0"]]

    def test_custom_duty_cycle_parity(self):
        def run(path):
            machine = make_quiet_machine()
            machine.place(
                make_scripted_job("j", [1.0, 3.0], cpu_limit=4.0).tasks[0])
            sampler = CpiSampler(
                machine, SamplerConfig(duration_seconds=5, period_seconds=20))
            with _window_close(path):
                return [(t, _canon_samples(s))
                        for t, s in _drive(machine, sampler, 50)]

        assert run("columnar") == run("reference")

    def test_legacy_tick_engine_with_vector_sampler(self, monkeypatch):
        # The columnar sampler builds the machine's task table even when
        # the tick never would (the reference tick); building it must not
        # perturb anything observable.
        reference_tick.install(monkeypatch)

        def run(path):
            scenario = scale_scenario(num_machines=2, seed=3,
                                      num_service_jobs=1, num_batch_jobs=1,
                                      tasks_per_job=4)
            scenario.pipeline.log_samples = True
            with _window_close(path):
                scenario.simulation.run(300)
            return _canon_samples(scenario.pipeline.sample_log)

        baseline = run("reference")
        assert len(baseline) > 0
        assert run("columnar") == baseline


class TestDiscardCounterCache:
    def test_counter_handle_cached_per_reason(self):
        obs = Observability()
        machine = make_quiet_machine()
        sampler = CpiSampler(machine, obs=obs)
        sampler._discard_window("t/0", "zero_instructions")
        handle = sampler._discard_counters["zero_instructions"]
        sampler._discard_window("t/0", "zero_instructions")
        assert sampler._discard_counters["zero_instructions"] is handle
        assert obs.metrics.total("sampler_windows_discarded") == 2.0

    def test_cache_invalidated_when_obs_swapped(self):
        machine = make_quiet_machine()
        sampler = CpiSampler(machine, obs=Observability())
        sampler._discard_window("t/0", "zero_instructions")
        assert sampler._discard_counters
        replacement = Observability()
        sampler.obs = replacement   # what set_observability does
        sampler._discard_window("t/0", "non_finite_usage")
        assert set(sampler._discard_counters) == {"non_finite_usage"}
        assert replacement.metrics.total("sampler_windows_discarded") == 1.0

    def test_no_obs_no_counting(self):
        sampler = CpiSampler(make_quiet_machine())
        sampler._discard_window("t/0", "zero_instructions")   # must not raise
        assert not sampler._discard_counters


# ---------------------------------------------------------------------------
# end-to-end golden parity, reference vs columnar window close


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
    def test_scale_clean_parity_across_jobs(self):
        """Clean fleet: scalar reference == columnar close, single-process
        and sharded at 1/2/4 workers, byte for byte."""
        seconds = 1200
        with _window_close("reference"):
            baseline = _run_single(scale_scenario, _SCALE_KWARGS, seconds)
        assert len(baseline["samples"]) > 300   # not vacuously equal
        assert _run_single(scale_scenario, _SCALE_KWARGS,
                           seconds) == baseline
        for jobs in (1, 2, 4):
            assert _run_sharded(scale_scenario, _SCALE_KWARGS, seconds,
                                jobs) == baseline, f"jobs={jobs}"

    def test_chaos_moderate_parity_across_jobs(self):
        """Moderate chaos: caps fire and machines churn; sample, incident,
        spec, cap-counter, and discard-counter streams must stay
        byte-identical."""
        seconds = 2400
        with _window_close("reference"):
            baseline = _run_single(chaos_scenario, _CHAOS_KWARGS, seconds)
        assert len(baseline["incidents"]) > 0   # detection fired
        assert baseline["caps"] > 0             # caps actually applied
        assert _run_single(chaos_scenario, _CHAOS_KWARGS,
                           seconds) == baseline
        for jobs in (1, 2, 4):
            assert _run_sharded(chaos_scenario, _CHAOS_KWARGS, seconds,
                                jobs) == baseline, f"jobs={jobs}"
