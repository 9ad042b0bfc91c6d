"""Block stepping: ``ClusterSimulation.run`` between events.

:meth:`ClusterSimulation.run` ticks only the seconds at which something
besides the fleet must act (a sampler edge, a due agent, a rescheduling
second, a declared step-hook action) and runs the quiet seconds between
them as fleet blocks (:meth:`FusedFleet.block`).  These tests hold it to
``n`` calls of :meth:`ClusterSimulation.step`:

* :meth:`SamplerConfig.next_edge` is the first acting second of the
  ``acts_at`` scan, in closed form;
* over drawn small clean scenarios — 1 to 4 machines; service, batch,
  antagonist and web-search jobs; bootstrapped specs, so caps and
  follow-ups land inside runs; with and without a TSDB — ``run`` in drawn
  chunks writes the same events, incidents, aggregator state, metrics,
  usage rings, counters, grant totals, clocks and generator states as a
  loop of ``step``;
* a tick hook, a fault plane, and a duty cycle in force at a stretch's
  start each make ``run`` step every second they cover, with the same
  output, and a machine noise generator that a demand stream shares
  keeps its draw order;
* a web-search node's CPI drift declares itself pure and keeps its values,
  so web-search fleets block too.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.fused import FusedFleet
from repro.cluster.job import Job, JobSpec
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.core.config import CpiConfig
from repro.experiments.scenarios import build_cluster
from repro.obs import Observability
from repro.obs.metrics import export_state
from repro.perf.sampler import SamplerConfig
from repro.workloads.antagonists import AntagonistKind, make_antagonist_job_spec
from repro.testing import SENSITIVE_PROFILE
from repro.workloads.base import SyntheticWorkload
from repro.workloads.batch import make_batch_job_spec
from repro.workloads.demand import constant, demand_spec, with_noise
from repro.workloads.diurnal import DiurnalPattern
from repro.workloads.services import make_service_job_spec
from repro.workloads.websearch import (SearchTier, WebSearchWorkload,
                                       make_websearch_job_spec)

# -- next_edge ---------------------------------------------------------------


@settings(deadline=None)
@given(duration=st.integers(1, 90), extra=st.integers(0, 90),
       t=st.integers(0, 10_000))
@example(duration=60, extra=0, t=0)
@example(duration=60, extra=0, t=61)
@example(duration=10, extra=50, t=10)
def test_next_edge_is_the_first_acting_second(duration, extra, t):
    """The closed form equals scanning ``acts_at`` from ``t``, including
    a window that spans the whole period (``duration == period``)."""
    period = duration + extra
    config = SamplerConfig(duration_seconds=duration, period_seconds=period)
    first = next(s for s in range(t, t + period + 1) if config.acts_at(s))
    assert config.next_edge(t) == first


# -- run == a loop of step ---------------------------------------------------

#: Fast windows and caps, so a few simulated minutes see anomalies, caps
#: and follow-ups; a cap's follow-up falls between window edges.
_CONFIG = CpiConfig(sampling_duration=5, sampling_period=15,
                    anomaly_window=120, correlation_window=300,
                    hardcap_duration=97)

_JOBS = ("service", "batch", "antagonist", "websearch")


def _scenario(machines: int, jobs: tuple, telemetry: bool, seed: int,
              fault_profile=None, reschedule_period: int = 60):
    """A clean (or faulted) fleet of ``jobs``.  Its events land in the
    returned list, and so does a ``("reschedule", t)`` entry at every
    second the scheduler is asked to re-place pending tasks."""
    obs = Observability()
    events: list[dict] = []
    obs.events.add_sink(events.append)
    scenario = build_cluster(machines, seed=seed, config=_CONFIG, obs=obs,
                             telemetry=telemetry,
                             fault_profile=fault_profile, fault_seed=3)
    sim = scenario.simulation
    sim.config.reschedule_period = reschedule_period
    reschedule = sim.scheduler.reschedule_pending

    def recorded():
        events.append({"event": "reschedule", "t": sim.now})
        return reschedule()

    sim.scheduler.reschedule_pending = recorded
    for i, kind in enumerate(jobs):
        name = f"{kind}-{i}"
        if kind == "service":
            scenario.submit(make_service_job_spec(
                name, num_tasks=2 * machines, seed=seed + i, base_cpi=1.0,
                demand_level=0.5, cpu_limit_per_task=0.6))
            scenario.bootstrap_service_spec(name, 1.05, 0.08)
        elif kind == "batch":
            scenario.submit(make_batch_job_spec(
                name, num_tasks=machines, seed=seed + i, demand_level=0.3,
                cpu_limit_per_task=0.5))
        elif kind == "antagonist":
            scenario.submit(make_antagonist_job_spec(
                name, AntagonistKind.CACHE_THRASHER, num_tasks=machines,
                seed=seed + i, demand_scale=1.3, cpu_limit_per_task=5.0))
        else:
            scenario.submit(make_websearch_job_spec(
                name, SearchTier.LEAF, num_tasks=machines, seed=seed + i))
            scenario.bootstrap_service_spec(name, 1.45, 0.1)
    return scenario, events


def _generators(scenario) -> list:
    """Every generator a run can draw: the simulation's, each machine's,
    and each task's demand stream's."""
    sim = scenario.simulation
    rngs = [sim.rng] + [m.rng for _, m in sorted(sim.machines.items())]
    for _, m in sorted(sim.machines.items()):
        for task in m.resident_tasks():
            spec = demand_spec(task.workload._demand)
            while spec is not None and not hasattr(spec, "stream"):
                spec = getattr(spec, "base", None)
            if spec is not None:
                rngs.append(spec.stream.rng)
    return [rng.bit_generator.state for rng in rngs]


def _fingerprint(scenario, events: list[dict]) -> dict:
    sim, pipeline = scenario.simulation, scenario.pipeline
    ids: dict = {}
    lines = []
    for payload in events:
        if "incident_id" in payload:
            payload = dict(payload, incident_id=ids.setdefault(
                payload["incident_id"], len(ids)))
        lines.append(json.dumps(payload, sort_keys=True, default=str,
                                separators=(",", ":")))
    incidents = [dict(row, incident_id=ids.setdefault(row["incident_id"],
                                                      len(ids)))
                 for row in pipeline.forensics.to_dicts()]
    machines = {}
    for name, m in sorted(sim.machines.items()):
        table = m._table
        machines[name] = None if table is None else (
            table.names, table.charged_to,
            table.usage_matrix.tobytes(), table.counter_matrix.tobytes(),
            [w.granted_cpu_seconds.hex() for w in table.workloads])
    tsdb = pipeline.obs.timeseries
    return {
        "events": lines,
        "incidents": incidents,
        "aggregator": json.dumps(pipeline.aggregator.export_state(),
                                 sort_keys=True, default=str),
        "metrics": export_state(pipeline.obs.metrics),
        "scrapes": None if tsdb is None else tsdb.scrapes,
        "machines": machines,
        "machine_seconds": pipeline.machine_seconds,
        "now": sim.now,
        "generators": _generators(scenario),
    }


class _StepCounter:
    """Counts :meth:`FusedFleet.step` calls (one per ticked second)."""

    def __init__(self, monkeypatch) -> None:
        self.seconds: list[int] = []
        real = FusedFleet.step

        def step(fleet, t):
            self.seconds.append(t)
            return real(fleet, t)

        monkeypatch.setattr(FusedFleet, "step", step)


def _run_both(build, chunks: list[int]) -> tuple[dict, dict]:
    """The scenario from ``build()`` run in ``chunks`` and, rebuilt, as
    one ``step()`` per second."""
    scenario, events = build()
    for n in chunks:
        scenario.simulation.run(n)
    blocked = _fingerprint(scenario, events)
    scenario, events = build()
    for _ in range(sum(chunks)):
        scenario.simulation.step()
    return blocked, _fingerprint(scenario, events)


@settings(deadline=None, max_examples=40)
@given(machines=st.integers(1, 4),
       jobs=st.lists(st.sampled_from(_JOBS), min_size=1, max_size=4),
       telemetry=st.booleans(),
       seed=st.integers(0, 1000),
       reschedule_period=st.sampled_from((37, 60)),
       chunks=st.lists(st.integers(1, 200), min_size=1, max_size=5))
@example(machines=3, jobs=["antagonist", "service", "batch", "websearch"],
         telemetry=True, seed=7, reschedule_period=37,
         chunks=[200, 37, 123])
def test_run_equals_a_loop_of_step(machines, jobs, telemetry, seed,
                                   reschedule_period, chunks):
    """Events (rescheduling seconds included), incidents, aggregator
    state, metrics, rings, counters, grant totals, clocks and every
    generator's state are equal."""
    blocked, stepped = _run_both(
        lambda: _scenario(machines, tuple(jobs), telemetry, seed,
                          reschedule_period=reschedule_period), chunks)
    assert blocked == stepped


def test_the_example_run_blocks_and_caps(monkeypatch):
    """Not vacuous: the explicit example's run caps an antagonist and
    completes the cap's follow-up, takes every TSDB scrape, and ticks
    under a quarter of its seconds (two window edges per 15 s period,
    plus the due agents)."""
    counter = _StepCounter(monkeypatch)
    scenario, events = _scenario(
        3, ("antagonist", "service", "batch", "websearch"), True, 7)
    scenario.simulation.run(360)
    kinds = {e["event"] for e in events}
    assert {"cap_applied", "followup_completed"} <= kinds
    assert scenario.pipeline.obs.timeseries.scrapes == 360 // 15
    assert len(counter.seconds) < 0.25 * 360


# -- what forces per-second stepping --------------------------------------------


def _clean(seed: int = 3):
    return _scenario(2, ("antagonist", "service", "batch"), False, seed)


def test_a_tick_hook_steps_every_second(monkeypatch):
    seen: list[tuple] = []

    def build():
        scenario, events = _clean()
        scenario.simulation.add_tick_hook(
            lambda t, m, r: seen.append((t, m.name, sorted(r.grants.items()))))
        return scenario, events

    counter = _StepCounter(monkeypatch)
    blocked, stepped = _run_both(build, [50, 70])
    assert counter.seconds[:120] == list(range(120))
    assert blocked == stepped
    assert seen[:len(seen) // 2] == seen[len(seen) // 2:]


def test_a_fault_plane_steps_every_second(monkeypatch):
    counter = _StepCounter(monkeypatch)
    blocked, stepped = _run_both(
        lambda: _scenario(2, ("antagonist", "service"), False, 5,
                          fault_profile="moderate"), [90, 30])
    assert counter.seconds[:120] == list(range(120))
    assert blocked == stepped


def test_a_duty_cycle_in_force_steps_until_it_expires(monkeypatch):
    """A duty cycle applied at second 20 for 40 s: ``run`` ticks every
    second it is in force, blocks again once it expired, and matches the
    step loop."""

    def build():
        scenario, events = _clean()
        sim = scenario.simulation
        sim.run(20)
        machine = sim.machines["m0"]
        target = machine.resident_tasks()[0].name
        machine.apply_duty_cycle(target, level=0.5, core_share=0.5,
                                 now=20, duration=40)
        return scenario, events

    counter = _StepCounter(monkeypatch)
    scenario, events = build()
    start = len(counter.seconds)
    scenario.simulation.run(100)
    ticked = counter.seconds[start:]
    assert [t for t in ticked if t < 60] == list(range(20, 60))
    assert len([t for t in ticked if t >= 60]) < 20
    blocked = _fingerprint(scenario, events)
    scenario, events = build()
    for _ in range(100):
        scenario.simulation.step()
    assert blocked == _fingerprint(scenario, events)


def test_a_shared_machine_noise_generator_keeps_its_draw_order():
    """A machine whose noise generator also feeds a demand stream (so the
    fleet is not ``noise_private``): blocks end where the noise block
    refills, and the run matches the step loop, generators included."""

    def build():
        scenario, events = _clean()
        machine = scenario.simulation.machines["m1"]
        workload = SyntheticWorkload(
            base_cpi=1.0, profile=SENSITIVE_PROFILE,
            demand=with_noise(constant(1.0), 0.2, machine.rng))
        job = Job(JobSpec(
            name="shares-noise", num_tasks=1,
            scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=2.0,
            workload_factory=lambda _: workload))
        machine.place(job.tasks[0])
        return scenario, events

    blocked, stepped = _run_both(build, [150, 100])
    assert blocked == stepped
    scenario, _ = build()
    scenario.simulation.run(1)
    fleet = scenario.simulation._fleet
    assert fleet.blockable and not fleet.noise_private


# -- web-search CPI drift ----------------------------------------------------------


def test_websearch_cpi_drift_is_pure_and_unchanged():
    """The drift declares a spec and gives the closure's formula's values
    bit for bit, so a web-search fleet's program is blockable."""
    pattern = DiurnalPattern(amplitude=0.25)
    amplitude = 0.04
    workload = WebSearchWorkload(SearchTier.LEAF, np.random.default_rng(1),
                                 diurnal=pattern,
                                 cpi_diurnal_amplitude=amplitude)
    drift = workload._cpi_modulation
    assert drift.spec is not None
    for t in range(0, 86_400, 331):
        expected = 1.0 + amplitude * (pattern(t) - 1.0) / max(
            pattern.amplitude, 1e-9)
        assert drift(t).hex() == expected.hex()
    scenario, _ = _scenario(2, ("websearch",), False, 1)
    scenario.simulation.run(3)
    assert scenario.simulation._fleet.blockable
