"""The event-driven control plane against the every-second oracle.

:class:`~repro.core.pipeline.CpiPipeline` is the simulation's control
plane: once per tick it pumps the fault plane, then ticks only the agents
with something due (taken from a due-time heap) and forgets only the
departed tasks.  ``tests/reference/control.py`` keeps the original loop —
every machine's agent ticked every second, every sampler ticked every
second — and these tests hold the two to byte-identical JSONL events,
forensics, metrics and trace points on scenarios that exercise each thing
the heap must get right: departures on the first machine at seconds the
pump emits events, an outage longer than the spec TTL (agents enter and
leave degraded mode), follow-ups whose victim departs, agent crashes and
restores, and a ``TraceRecorder`` beside the pipeline.

The structural test at the bottom pins what the heap is for: a quiet tick
makes the same number of calls on 4 machines as on 40.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import Job, JobSpec
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.cluster.trace import TraceRecorder
from repro.core.agent import MachineAgent
from repro.core.config import CpiConfig
from repro.experiments.scenarios import build_cluster
from repro.faults.profile import resolve_fault_profile
from repro.obs import Observability
from repro.obs.metrics import export_state
from repro.records import CpiSpec
from repro.testing import (NOISY_NEIGHBOR_PROFILE, SENSITIVE_PROFILE,
                           make_quiet_machine, make_scripted_job)
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant
from tests.reference import control as reference_control

#: Fast windows, a one-minute spec refresh with a one-period TTL (so a
#: 100 s aggregator outage takes every agent through degraded mode), and a
#: cap that outlives the first victim.
_CONFIG = CpiConfig(sampling_duration=5, sampling_period=15,
                    anomaly_window=120, correlation_window=300,
                    spec_refresh_period=60, spec_ttl_periods=1.0,
                    hardcap_duration=120, checkpoint_interval=20)

#: The aggregator dies at these seconds and stays down 100 s.
_KILLS = (150, 450)
_OUTAGE = 100
_SECONDS = 720

#: Seconds the brief tasks on ``m0`` (the first machine) complete at: the
#: kill and restore seconds, when the host's pump emits events.
_M0_EXITS = (150, 250, 450, 550, 700)


def _scenario(faults: bool, trace: bool, seed: int = 5):
    """Four machines: brief tasks on ``m0``; a victim beside an antagonist
    on ``m1`` (the victim leaves at 300, mid-cap) and on ``m2``."""
    obs = Observability()
    events: list[dict] = []
    obs.events.add_sink(events.append)
    profile = None
    if faults:
        profile = resolve_fault_profile("moderate").with_overrides(
            agent_crash_rate=0.01, aggregator_kill_ticks=_KILLS,
            aggregator_outage_seconds=_OUTAGE)
    scenario = build_cluster(4, seed=seed, config=_CONFIG, obs=obs,
                             fault_profile=profile, fault_seed=3)
    sim, pipeline = scenario.simulation, scenario.pipeline
    for i, at in enumerate(_M0_EXITS):
        job = make_scripted_job(f"brief{i}", [0.5], complete_at=at)
        sim.machines["m0"].place(job.tasks[0])
    for name, leave in (("m1", 300), ("m2", None)):
        victim = make_scripted_job(f"victim-{name}", [1.0], cpu_limit=2.0,
                                   profile=SENSITIVE_PROFILE,
                                   complete_at=leave)
        antagonist = make_scripted_job(
            f"ant-{name}", [6.0], cpu_limit=8.0,
            scheduling_class=SchedulingClass.BATCH,
            profile=NOISY_NEIGHBOR_PROFILE)
        sim.machines[name].place(victim.tasks[0])
        sim.machines[name].place(antagonist.tasks[0])
    pipeline.bootstrap_specs([
        CpiSpec(f"victim-{name}", "westmere-2.6", 10_000, 1.0, 1.0, 0.1)
        for name in ("m1", "m2")])
    recorder = TraceRecorder(sim, interval=7) if trace else None
    return sim, pipeline, events, recorder


def _renumber(value, ids: dict):
    """Incident ids come from a process-wide counter: number them by
    first appearance so two runs in one process compare."""
    return ids.setdefault(value, len(ids))


def _run(faults: bool, trace: bool, reference: bool) -> dict:
    sim, pipeline, events, recorder = _scenario(faults, trace)
    if reference:
        reference_control.install(pipeline)
    sim.run(_SECONDS)
    ids: dict = {}
    lines = []
    for payload in events:
        if "incident_id" in payload:
            payload = dict(payload, incident_id=_renumber(
                payload["incident_id"], ids))
        lines.append(json.dumps(payload, sort_keys=True, default=str,
                                separators=(",", ":")))
    forensics = [dict(row, incident_id=_renumber(row["incident_id"], ids))
                 for row in pipeline.forensics.to_dicts()]
    return {
        "events": lines,
        "forensics": forensics,
        "metrics": export_state(pipeline.obs.metrics),
        "machine_seconds": pipeline.machine_seconds,
        "degraded": {n: a.degraded for n, a in pipeline.agents.items()},
        "trace": None if recorder is None else [
            (p.t, p.machine, p.taskname, p.grant.hex(), p.cpi.hex(),
             p.capped) for p in recorder.points],
    }


def _kinds(run: dict) -> list[tuple[int, str]]:
    return [(e["t"], e["event"]) for e in map(json.loads, run["events"])]


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_faulted_run_matches_every_second_oracle(trace):
    """Outage, crashes, departures at pump seconds, purged follow-ups:
    the event-driven plane writes the oracle's JSONL byte for byte."""
    change = _run(faults=True, trace=trace, reference=False)
    oracle = _run(faults=True, trace=trace, reference=True)
    kinds = _kinds(oracle)
    seen = {kind for _, kind in kinds}
    # Not vacuous: each case the heap must handle happens.
    assert {"degraded_mode_entered", "degraded_mode_exited",
            "agent_crashed", "agent_restored", "followup_purged",
            "cap_applied"} <= seen
    for kill in _KILLS:
        at_kill = [kind for t, kind in kinds if t == kill]
        assert "task_departed" in at_kill and "aggregator_crashed" in at_kill
    assert change == oracle


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_clean_run_matches_every_second_oracle(trace):
    """Without a fault plane: follow-ups complete and are purged, and
    departures reach forget_task, exactly as the oracle's."""
    change = _run(faults=False, trace=trace, reference=False)
    oracle = _run(faults=False, trace=trace, reference=True)
    seen = {kind for _, kind in _kinds(oracle)}
    assert {"followup_purged", "followup_completed", "task_departed"} <= seen
    assert change == oracle


def test_agents_tick_only_when_due(monkeypatch):
    """The heap is not a disguised every-second loop: over a clean run the
    agents tick at a handful of seconds, not once per machine-second."""
    calls = []
    real = MachineAgent.tick

    def counting(agent, t):
        calls.append((t, agent.machine.name))
        real(agent, t)

    monkeypatch.setattr(MachineAgent, "tick", counting)
    sim, pipeline, _, _ = _scenario(faults=False, trace=False)
    sim.run(_SECONDS)
    assert pipeline.machine_seconds == 4 * _SECONDS
    assert 0 < len(calls) < 0.05 * pipeline.machine_seconds
    assert len(set(calls)) == len(calls)


@settings(deadline=None)
@given(periods=st.floats(0.05, 4.0), refresh=st.integers(1, 40),
       anchor=st.integers(0, 100), t=st.integers(0, 300))
def test_next_due_is_the_first_stale_second(periods, refresh, anchor, t):
    """An anchored agent's next_due is exactly the first second >= t at
    which ``specs_too_stale`` turns true — the second its tick enters
    degraded mode — for fractional TTLs too."""
    config = CpiConfig(spec_refresh_period=refresh,
                       spec_ttl_periods=periods)
    agent = MachineAgent(make_quiet_machine(), config, obs=Observability())
    agent.update_specs({}, now=anchor)
    first = next(s for s in range(t, t + 1000) if agent.specs_too_stale(s))
    assert agent.next_due(t) == first


# -- a quiet tick makes no call per machine -----------------------------------


def _quiet_pipeline(machines: int):
    """A clean pipeline, every machine with the same two plain tasks and
    no cold-start profile, stepped past its first noise refill."""
    scenario = build_cluster(machines, seed=1, obs=Observability())
    sim = scenario.simulation
    for name, machine in sorted(sim.machines.items()):
        for i, level in enumerate((1.0, 2.5)):
            workload = SyntheticWorkload(base_cpi=1.0,
                                         profile=SENSITIVE_PROFILE,
                                         demand=constant(level))
            job = Job(JobSpec(
                name=f"{name}.j{i}", num_tasks=1,
                scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
                priority_band=PriorityBand.PRODUCTION,
                cpu_limit_per_task=4.0,
                workload_factory=lambda _, w=workload: w))
            machine.place(job.tasks[0])
    sim.run(3)
    return sim


def _calls_in_one_step(sim) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        sim.step()
    finally:
        sys.setprofile(None)
    return count


def test_quiet_tick_makes_no_call_per_machine():
    """On a quiet tick — no window edge, departure, follow-up, degraded
    transition or noise refill — 40 machines cost the same calls as 4."""
    small, large = _quiet_pipeline(4), _quiet_pipeline(40)
    assert small.now == large.now == 3
    assert not small.config.sampler.acts_at(3)
    counts = (_calls_in_one_step(small), _calls_in_one_step(large))
    assert counts[0] == counts[1]
