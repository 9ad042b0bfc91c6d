"""Golden-parity tests: the fused tick vs the scalar reference loop.

:class:`FusedFleet` is the only tick: the simulation steps one fleet over
all its machines and :meth:`Machine.tick` steps a one-machine fleet.  Both
must be *bit-identical* to the original scalar loop kept in
``tests/reference/tick.py`` — same CPI sample stream, same incidents, same
chaos precision/recall — for any seed.  These tests pin that contract on
the reference seeds and on Hypothesis-drawn machine mixes, comparing floats
by their hex representation so "close enough" can never creep in.

The micro-tests at the bottom pin the numpy identities the vectorization
leans on (documented in ``docs/performance.md``); if a numpy upgrade ever
broke one of them, these fail before the end-to-end streams drift.
"""

from __future__ import annotations

from types import MethodType
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CpiConfig
from repro.cluster.demandplane import DemandClosures, DemandColumns
from repro.cluster.fused import FusedFleet
from repro.cluster.interference import ResourceProfile
from repro.cluster.job import Job, JobSpec
from repro.cluster.machine import Machine
from repro.cluster.platform import PLATFORM_CATALOG, get_platform
from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.cluster.task import PriorityBand, SchedulingClass, TaskState
from repro.experiments.chaos import chaos_sweep
from repro.experiments.scenarios import (build_cluster, populated_fleet,
                                         victim_antagonist_machine)
from repro.perf.counters import EVENT_ORDER
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import CpiSpec
from repro.testing import NOISY_NEIGHBOR_PROFILE, SENSITIVE_PROFILE
from repro.workloads import AntagonistKind, make_antagonist_job_spec
from repro.workloads import make_batch_job_spec
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant, on_off, with_noise
from repro.workloads.services import make_service_job_spec
from tests.reference import demand as reference_demand
from tests.reference import tick as reference_tick


def _hex(x) -> str:
    return float(x).hex()


def _canon_samples(samples) -> list[tuple]:
    """Byte-faithful canonical form of a CpiSample stream."""
    return [(s.jobname, s.platforminfo, s.timestamp, _hex(s.cpu_usage),
             _hex(s.cpi), s.taskname) for s in samples]


def _canon_incidents(incidents) -> list[tuple]:
    """Canonical incidents, minus the (per-process) incident_id."""
    return [(
        i.machine, i.time_seconds, i.victim_taskname, i.victim_jobname,
        _hex(i.victim_cpi), _hex(i.cpi_threshold),
        tuple((s.taskname, s.jobname, _hex(s.correlation))
              for s in i.suspects),
        i.decision.action.value,
        None if i.decision.target is None else i.decision.target.name,
        None if i.post_cpi is None else _hex(i.post_cpi),
        i.recovered,
    ) for i in incidents]


def _reference_and_production(monkeypatch, run):
    """Run ``run()`` on the scalar reference tick, then on ``Machine.tick``."""
    with monkeypatch.context() as patch:
        reference_tick.install(patch)
        reference = run()
    return reference, run()


# -- end-to-end stream parity -------------------------------------------------


def test_fleet_sample_stream_parity(monkeypatch):
    """Same seed => byte-identical sample stream on a mixed fleet."""
    def run():
        scenario = populated_fleet(num_machines=4, seed=7)
        scenario.pipeline.log_samples = True
        scenario.simulation.run_minutes(20)
        return _canon_samples(scenario.pipeline.sample_log)

    reference, production = _reference_and_production(monkeypatch, run)
    assert len(reference) > 500  # not vacuously equal
    assert production == reference


def test_victim_antagonist_incident_parity(monkeypatch):
    """The canonical case study: identical samples AND incidents."""
    def run():
        scenario, _victim, _antagonist = victim_antagonist_machine(seed=5)
        scenario.pipeline.log_samples = True
        scenario.simulation.run_hours(2)
        return (_canon_samples(scenario.pipeline.sample_log),
                _canon_incidents(scenario.pipeline.all_incidents()))

    reference, production = _reference_and_production(monkeypatch, run)
    _samples, incidents = reference
    assert len(incidents) > 0  # the case study must actually fire
    assert production == reference


def test_moderate_fault_profile_parity(monkeypatch):
    """Parity holds under chaos: crashes, transport faults, quarantine."""
    def run():
        scenario = build_cluster(3, seed=9, config=CpiConfig(),
                                 fault_profile="moderate", fault_seed=7)
        scenario.submit(make_service_job_spec(
            "frontend", num_tasks=6, seed=21, base_cpi=1.0,
            cpu_limit_per_task=2.0))
        scenario.submit(make_batch_job_spec(
            "logs", num_tasks=3, seed=22, demand_level=0.5))
        scenario.submit(make_antagonist_job_spec(
            "video", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
            seed=23, demand_scale=1.4, cpu_limit_per_task=6.0))
        platform = next(
            iter(scenario.simulation.machines.values())).platform
        scenario.pipeline.bootstrap_specs([CpiSpec(
            jobname="frontend", platforminfo=platform.name,
            num_samples=10_000, cpu_usage_mean=1.0,
            cpi_mean=1.05, cpi_stddev=0.08)])
        scenario.pipeline.log_samples = True
        scenario.simulation.run_hours(1)
        return (_canon_samples(scenario.pipeline.sample_log),
                _canon_incidents(scenario.pipeline.all_incidents()),
                scenario.pipeline.faults.total_faults_injected)

    reference, production = _reference_and_production(monkeypatch, run)
    _samples, _incidents, faults = reference
    assert faults > 0  # the moderate profile must actually inject
    assert production == reference


def test_chaos_precision_recall_parity(monkeypatch):
    """The chaos experiment's headline numbers match the reference."""
    def run():
        result = chaos_sweep(profiles=("none", "moderate"),
                             num_machines=3, hours=1.0, seed=0,
                             fault_seed=1)
        return [(c.profile, _hex(c.precision), _hex(c.recall_vs_clean),
                 c.incidents, c.identified, c.true_identified,
                 c.faults_injected) for c in result.cells]

    reference, production = _reference_and_production(monkeypatch, run)
    assert any(cell[3] > 0 for cell in reference)  # incidents fired
    assert production == reference


def test_fused_path_matches_per_machine_vector(monkeypatch):
    """Ticking each machine on its own one-machine fleet, instead of one
    cluster-wide fleet, must not change the sample stream at all."""
    def run():
        scenario = populated_fleet(num_machines=3, seed=13)
        scenario.pipeline.log_samples = True
        scenario.simulation.run_minutes(15)
        return _canon_samples(scenario.pipeline.sample_log)

    fused = run()
    monkeypatch.setattr(FusedFleet, "build",
                        classmethod(lambda cls, order: None))
    unfused = run()
    assert len(fused) > 300
    assert fused == unfused


# -- tick-level parity: cluster fleet vs one-machine fleets -------------------

#: A service profile with the services' default cold-start penalty.
_COLD_SERVICE = ResourceProfile(
    cache_mib_per_cpu=0.5, membw_gbps_per_cpu=0.3, cache_sensitivity=1.0,
    membw_sensitivity=0.8, base_l3_mpki=2.0, cold_start_penalty=4.0)

#: Every task has exited by this second; the rest of the run is empty.
_LAST_EXIT = 60
_TICKS = 75


class _Leaving(SyntheticWorkload):
    """A compiled-demand workload that exits once ``t >= leave_at``."""

    def __init__(self, leave_at: int, **kwargs):
        super().__init__(**kwargs)
        self.leave_at = leave_at

    def on_tick(self, t, granted_usage, capped):
        super().on_tick(t, granted_usage, capped)
        return "exited" if t >= self.leave_at else None


def _mixed_fleet(demand: str) -> ClusterSimulation:
    """Five machines covering every branch of the fused tick.

    ``a-cold`` runs cold-start services at zero and near-zero grants (one
    in an idle best-effort tier) beside a hog that leaves at t=20, forcing
    an arena rebuild.  ``b-capped`` oversubscribes its batch tier and
    hard-caps one task; ``c-duty`` is duty-cycled; ``d-quiet`` has
    ``cpi_noise_sigma=0``; ``e-empty`` never hosts anything.  Tasks leave
    one by one until every machine is empty at ``_LAST_EXIT``.  With
    ``demand="scalar"`` every workload stays on its demand closure.
    """
    platform = get_platform("westmere-2.6")

    def machine(name, sigma=0.03):
        return Machine(name, platform, cpi_noise_sigma=sigma)

    sim = ClusterSimulation(
        [machine("a-cold"), machine("b-capped"), machine("c-duty"),
         machine("d-quiet", sigma=0.0), machine("e-empty")],
        SimConfig(seed=29))

    def job(name, scheduling_class, limit, workloads):
        return Job(JobSpec(
            name=name, num_tasks=len(workloads),
            scheduling_class=scheduling_class,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=limit,
            workload_factory=lambda i: workloads[i]))

    def leaving(leave_at, demand, profile=SENSITIVE_PROFILE):
        return _Leaving(leave_at, base_cpi=1.0, profile=profile,
                        demand=demand)

    def noisy(level, seed):
        return with_noise(constant(level), 0.3, np.random.default_rng(seed))

    ls = SchedulingClass.LATENCY_SENSITIVE
    batch = SchedulingClass.BATCH
    hog = NOISY_NEIGHBOR_PROFILE
    placements = {
        "a-cold": [
            job("idle", SchedulingClass.BEST_EFFORT, 2.0,
                [leaving(_LAST_EXIT, constant(0.0), _COLD_SERVICE)]),
            job("trickle", ls, 2.0,
                [leaving(45, constant(0.03), _COLD_SERVICE)]),
            job("hog", batch, 8.0, [leaving(20, noisy(6.0, 1), hog)]),
        ],
        "b-capped": [
            job("web", ls, 4.0, [leaving(50, noisy(2.0, 2)),
                                 leaving(55, noisy(1.5, 3))]),
            job("crunch", batch, 12.0,
                [leaving(40, noisy(10.0, 4 + i), hog) for i in range(3)]),
        ],
        "c-duty": [
            job("svc", ls, 4.0, [leaving(58, noisy(1.0, 8), _COLD_SERVICE),
                                 leaving(35, noisy(3.0, 9), hog)]),
        ],
        "d-quiet": [
            job("quiet", ls, 4.0, [leaving(52, constant(1.0)),
                                   leaving(30, on_off(3.0, 0.5, 10), hog)]),
        ],
    }
    for name, jobs in placements.items():
        for j in jobs:
            if demand == "scalar":
                reference_demand.pin_closures(t.workload for t in j.tasks)
            for task in j.tasks:
                sim.machines[name].place(task)
    sim.machines["b-capped"].get_task("crunch/0").cgroup.apply_cap(
        1.5, now=0, duration=30)
    sim.machines["c-duty"].apply_duty_cycle(
        "svc/1", level=0.5, core_share=0.5, now=0, duration=40)
    return sim


def _canon_pairs(mapping) -> list[tuple[str, str]]:
    return [(k, _hex(v)) for k, v in mapping.items()]


def _canon_result(result) -> tuple:
    return (result.t, _canon_pairs(result.grants), _canon_pairs(result.cpis),
            [(task.name, state.value) for task, state in result.departures])


def _machine_state(m: Machine) -> tuple:
    """A machine's resident CPU totals and every live counter, as hex."""
    granted = [(task.name, _hex(task.workload.granted_cpu_seconds))
               for task in m.resident_tasks()]
    return (granted,
            [(cg, [_hex(m.counters.counters_for(cg).read(e))
                   for e in EVENT_ORDER])
             for cg in m.counters.known_cgroups()])


def _run_ticks(sim: ClusterSimulation) -> tuple[list, list, int]:
    """Step ``sim`` ``_TICKS`` times.

    Returns each tick's canonical results — read only after the *next* tick
    has run, so results must not alias the fused scratch buffers — each
    tick's counter values and CPU totals, and how many ticks ran on the
    cluster-wide fleet.
    """
    results, states = [], []
    fused_ticks = 0
    pending = None
    for _ in range(_TICKS):
        step = sim.step()
        fused_ticks += sim._fleet is not None
        states.append([(name, *_machine_state(m))
                       for name, m in sorted(sim.machines.items())])
        if pending is not None:
            results.append({n: _canon_result(r) for n, r in pending.items()})
        pending = step
    results.append({n: _canon_result(r) for n, r in pending.items()})
    return results, states, fused_ticks


@pytest.mark.parametrize("demand", ["vector", "scalar"])
def test_fused_tick_results_match_per_machine(monkeypatch, demand):
    """The cluster-wide fleet, one-machine fleets (each machine's own
    ``Machine.tick``) and the scalar reference tick agree on every
    TickResult field, every counter and every CPU total, bit for bit,
    through rebuilds, an oversubscribed tier, a duty cycle and an emptied
    fleet — with compiled demand columns and with closures."""
    sim = _mixed_fleet(demand)
    compiled = FusedFleet(tuple(sim.machines.values())).demand_columns
    assert isinstance(compiled, DemandColumns) == (demand == "vector")
    fused, fused_states, fused_ticks = _run_ticks(sim)
    monkeypatch.setattr(FusedFleet, "build",
                        classmethod(lambda cls, order: None))
    unfused, unfused_states, unfused_ticks = _run_ticks(_mixed_fleet(demand))
    assert (fused_ticks, unfused_ticks) == (_TICKS, 0)
    reference_tick.install(monkeypatch)
    reference, reference_states, _ = _run_ticks(_mixed_fleet(demand))

    # Not vacuous: the run hits each case it is meant to cover.
    departures = [t for t, tick in enumerate(fused)
                  for r in tick.values() for _ in r[3]]
    assert 20 in departures and max(departures) == _LAST_EXIT
    capped = dict(fused[10]["b-capped"][1])
    assert float.fromhex(capped["crunch/0"]) <= 1.5
    idle_cpi = dict(fused[10]["a-cold"][2])["idle/0"]
    assert float.fromhex(idle_cpi) > 4.0        # full cold-start penalty
    assert fused[10]["e-empty"][1:3] == ([], [])
    assert all(r[1:3] == ([], [])
               for r in fused[_LAST_EXIT + 1].values())

    assert fused == unfused == reference
    assert fused_states == unfused_states == reference_states


def _opaque_fleet() -> ClusterSimulation:
    """``_mixed_fleet`` on compiled demand, plus a job on ``d-quiet``
    whose demand is a hand-written lambda the compiler cannot express."""
    sim = _mixed_fleet("vector")
    job = Job(JobSpec(
        name="opaque", num_tasks=2, scheduling_class=SchedulingClass.BATCH,
        priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=2.0,
        workload_factory=lambda i: _Leaving(
            _LAST_EXIT, base_cpi=1.0, profile=SENSITIVE_PROFILE,
            demand=lambda t: 0.5 + 0.25 * i + 0.1 * (t % 3))))
    for task in job.tasks:
        sim.machines["d-quiet"].place(task)
    return sim


def test_opaque_machine_puts_the_fleet_on_closures(monkeypatch):
    """One machine's opaque demand leaves the cluster fleet without a
    demand program, so every machine runs its closures; the results still
    match one-machine fleets and the reference tick bit for bit."""
    sim = _opaque_fleet()
    sim.step()
    assert sim._fleet is not None
    assert isinstance(sim._fleet.demand_columns, DemandClosures)
    for name, compiled in (("a-cold", True), ("d-quiet", False)):
        machine = _opaque_fleet().machines[name]
        machine.tick(0)
        assert isinstance(machine._fleet.demand_columns,
                          DemandColumns) == compiled

    fused, fused_states, fused_ticks = _run_ticks(_opaque_fleet())
    monkeypatch.setattr(FusedFleet, "build",
                        classmethod(lambda cls, order: None))
    unfused, unfused_states, _ = _run_ticks(_opaque_fleet())
    reference_tick.install(monkeypatch)
    reference, reference_states, _ = _run_ticks(_opaque_fleet())

    assert fused_ticks == _TICKS
    opaque = dict(fused[10]["d-quiet"][1])
    assert [opaque[f"opaque/{i}"] for i in range(2)] == [
        _hex(0.6), _hex(0.85)]
    assert fused == unfused == reference
    assert fused_states == unfused_states == reference_states


def _modulated_fleet() -> ClusterSimulation:
    """Two machines of plain ``SyntheticWorkload``s, whose ``on_tick`` the
    fleet batches; the base CPI of ``a``'s one (noise-free) task follows a
    modulation of the clock."""
    platform = get_platform("westmere-2.6")
    sim = ClusterSimulation(
        [Machine("a", platform, cpi_noise_sigma=0.0), Machine("b", platform)],
        SimConfig(seed=37))
    workloads = {
        "a": [SyntheticWorkload(base_cpi=1.0, profile=SENSITIVE_PROFILE,
                                demand=constant(1.0),
                                cpi_modulation=lambda t: 1.0 + 0.5 * (t % 3))],
        "b": [SyntheticWorkload(base_cpi=1.2, profile=_COLD_SERVICE,
                                demand=with_noise(constant(2.0), 0.2,
                                                  np.random.default_rng(5)))],
    }
    for name, ws in workloads.items():
        job = Job(JobSpec(
            name=f"job-{name}", num_tasks=len(ws),
            scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
            workload_factory=lambda i, ws=ws: ws[i]))
        for task in job.tasks:
            sim.machines[name].place(task)
    return sim


def test_batched_on_tick_advances_modulation_clock(monkeypatch):
    """The fleet's batched ``on_tick`` accounting skips the method, so the
    fleet itself must advance ``_now`` for a base CPI that reads it; the
    CPIs still match one-machine fleets and the reference tick."""
    sim = _modulated_fleet()
    sim.step()
    program = sim._fleet.demand_columns
    assert program.batch_on_tick and len(program.now_workloads) == 1
    fused, fused_states, _ = _run_ticks(_modulated_fleet())
    monkeypatch.setattr(FusedFleet, "build",
                        classmethod(lambda cls, order: None))
    unfused, unfused_states, _ = _run_ticks(_modulated_fleet())
    reference_tick.install(monkeypatch)
    reference, reference_states, _ = _run_ticks(_modulated_fleet())

    cpis = [float.fromhex(dict(tick["a"][2])["job-a/0"]) for tick in fused]
    # Tick t reads the clock the previous tick's on_tick left, t - 1.
    assert cpis[1:4] == [cpis[0], 1.5 * cpis[0], 2.0 * cpis[0]]
    assert fused == unfused == reference
    assert fused_states == unfused_states == reference_states


# -- resource profiles are fixed at placement ---------------------------------


def _profile_machine(hog_profile: ResourceProfile) -> tuple[Machine, list]:
    """A noiseless machine: a victim, a task with ``hog_profile`` and an
    idle companion, all on constant demand."""
    machine = Machine("a", get_platform("westmere-2.6"), cpi_noise_sigma=0.0)
    profiles = (SENSITIVE_PROFILE, hog_profile, SENSITIVE_PROFILE)
    job = Job(JobSpec(
        name="job", num_tasks=3,
        scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
        priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
        workload_factory=lambda i: SyntheticWorkload(
            base_cpi=1.0, profile=profiles[i],
            demand=constant((1.0, 3.0, 0.0)[i]))))
    for task in job.tasks:
        machine.place(task)
    return machine, job.tasks


@pytest.mark.parametrize("rebuild", ["place", "remove"])
def test_profile_change_is_seen_only_after_placement(rebuild):
    """The tick reads each profile once, when the task table is built: a
    change after placement is invisible until a ``place`` or ``remove``
    on that machine rebuilds the table."""
    machine, tasks = _profile_machine(SENSITIVE_PROFILE)
    before, _ = _profile_machine(SENSITIVE_PROFILE)
    after, _ = _profile_machine(NOISY_NEIGHBOR_PROFILE)

    def cpis(m, t):
        got = m.tick(t).cpis
        return [_hex(got[name]) for name in ("job/0", "job/1")]

    for t in range(10):
        assert cpis(machine, t) == cpis(before, t)
    tasks[1].workload._profile = NOISY_NEIGHBOR_PROFILE
    for t in range(10, 20):
        assert cpis(machine, t) == cpis(before, t)
    if rebuild == "place":
        machine.place(Job(JobSpec(
            name="idle", num_tasks=1,
            scheduling_class=SchedulingClass.BEST_EFFORT,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=1.0,
            workload_factory=lambda i: SyntheticWorkload(
                base_cpi=1.0, profile=SENSITIVE_PROFILE,
                demand=constant(0.0)))).tasks[0])
    else:
        machine.remove("job/2", TaskState.KILLED)
    for t in range(20, 30):
        assert cpis(machine, t) == cpis(after, t)
    # The change shows: the victim beside the new hog runs far slower.
    victim = float.fromhex(cpis(machine, 30)[0])
    assert victim > 1.5 * float.fromhex(cpis(before, 30)[0])


# -- counter-row ownership: one machine, two fleets ---------------------------


def _interleaved_run() -> tuple[list, list]:
    """Step ``_mixed_fleet`` for ``_TICKS`` seconds, ticking ``b-capped``
    on its own (``Machine.tick``) every third second instead of stepping
    the simulation.

    Each direct tick hands the machine's counter rows to its one-machine
    fleet and the next ``sim.step()`` takes them back, so a fleet that
    burned into rows it no longer owns would lose that second's counters.
    Returns every second's machine states and every task's usage history.
    """
    sim = _mixed_fleet("vector")
    tasks = [task for m in sim.machines.values()
             for task in m.resident_tasks()]
    machine = sim.machines["b-capped"]
    states = []
    for t in range(_TICKS):
        if t % 3 == 1:
            machine.tick(t)
            sim.now += 1    # the direct tick stands in for this second
        else:
            sim.step()
        states.append([(name, *_machine_state(m))
                       for name, m in sorted(sim.machines.items())])
    usage = [(task.name, [_hex(u) for u in
                          task.cgroup.usage_window_view(0, _TICKS).tolist()])
             for task in tasks]
    return states, usage


def test_direct_ticks_between_cluster_steps_keep_counters(monkeypatch):
    """A machine ticked directly between cluster steps ends every second
    with the counters and usage of the reference tick, bit for bit."""
    production = _interleaved_run()
    reference_tick.install(monkeypatch)
    reference = _interleaved_run()
    states, _ = reference
    burned = dict((name, counters) for name, _, counters in states[4])
    assert burned["b-capped"]    # the direct ticks burned something
    assert production == reference


# -- Machine.tick vs the reference on drawn machine mixes ---------------------

_PROPERTY_TICKS = 30

#: Either a shipped-style profile or a drawn one: appetites up to 1e6
#: MiB or GB/s per CPU (pressures far past any platform's capacity), and
#: sensitivities and cold-start penalties that are often exactly zero.
_PROFILE = st.one_of(
    st.sampled_from((SENSITIVE_PROFILE, NOISY_NEIGHBOR_PROFILE,
                     _COLD_SERVICE)),
    st.builds(
        ResourceProfile,
        cache_mib_per_cpu=st.floats(0.0, 1e6),
        membw_gbps_per_cpu=st.floats(0.0, 1e6),
        cache_sensitivity=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        membw_sensitivity=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        base_l3_mpki=st.floats(0.0, 50.0),
        cold_start_penalty=st.one_of(st.just(0.0), st.floats(0.0, 8.0))))

#: One task: (tier, demand level, noisy demand, profile, leave_at or None,
#: cgroup limit).
_TASKS = st.tuples(
    st.sampled_from(tuple(SchedulingClass)),
    st.sampled_from((0.0, 0.03, 0.4, 1.0, 2.5, 6.0)),
    st.booleans(),
    _PROFILE,
    st.one_of(st.none(), st.integers(0, _PROPERTY_TICKS - 1)),
    st.sampled_from((1.0, 2.0, 4.0, 8.0)),
)


@st.composite
def _machine_mixes(draw):
    tasks = draw(st.lists(_TASKS, min_size=1, max_size=12))
    last = len(tasks) - 1
    cap = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, last), st.sampled_from((0.0, 0.3, 1.5)),
        st.integers(1, _PROPERTY_TICKS))))
    duty = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, last), st.sampled_from((0.0, 0.5, 0.9)),
        st.sampled_from((0.25, 1.0)), st.integers(1, _PROPERTY_TICKS))))
    return dict(tasks=tasks, cap=cap, duty=duty,
                platform=draw(st.sampled_from(sorted(PLATFORM_CATALOG))),
                sigma=draw(st.sampled_from((0.0, 0.03))),
                closures=draw(st.booleans()), seed=draw(st.integers(0, 999)))


def _mix_machine(mix: dict, name: str = "m",
                 plain: bool = False) -> tuple[Machine, list]:
    """A fresh machine holding ``mix``, and its tasks.

    With ``plain`` every workload is a bare ``SyntheticWorkload`` (no
    departures), so a fleet of such machines batches its accounting.
    """
    seed = mix["seed"]
    machine = Machine(name, get_platform(mix["platform"]),
                      rng=np.random.default_rng(seed),
                      cpi_noise_sigma=mix["sigma"])
    tasks = []
    for i, (tier, level, noisy, profile, leave_at, limit) in enumerate(
            mix["tasks"]):
        demand = (with_noise(constant(level), 0.3,
                             np.random.default_rng([seed, i]))
                  if noisy else constant(level))
        if plain:
            workload = SyntheticWorkload(base_cpi=1.0, profile=profile,
                                         demand=demand)
        else:
            workload = _Leaving(
                _PROPERTY_TICKS if leave_at is None else leave_at,
                base_cpi=1.0, profile=profile, demand=demand)
        job = Job(JobSpec(
            name=f"{name}.j{i}", num_tasks=1, scheduling_class=tier,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=limit,
            workload_factory=lambda _, w=workload: w))
        tasks.extend(job.tasks)
    if mix["closures"]:
        reference_demand.pin_closures(task.workload for task in tasks)
    for task in tasks:
        machine.place(task)
    if mix["cap"] is not None:
        i, quota, duration = mix["cap"]
        tasks[i].cgroup.apply_cap(quota, now=0, duration=duration)
    if mix["duty"] is not None:
        i, level, share, duration = mix["duty"]
        machine.apply_duty_cycle(tasks[i].name, level=level,
                                 core_share=share, now=0, duration=duration)
    return machine, tasks


def _run_mix(mix: dict, reference: bool) -> tuple[list, list, list]:
    machine, tasks = _mix_machine(mix)
    if reference:
        machine.tick = MethodType(reference_tick.tick, machine)
    results, states = [], []
    for t in range(_PROPERTY_TICKS):
        results.append(machine.tick(t))
        states.append(_machine_state(machine))
    usage = [[_hex(u) for u in task.cgroup.usage_window_view(
        0, _PROPERTY_TICKS).tolist()] for task in tasks]
    # Canonicalized only now: no result may alias a later tick's buffers.
    return [_canon_result(r) for r in results], states, usage


@settings(deadline=None)
@given(mix=_machine_mixes())
def test_machine_tick_matches_reference_on_drawn_mixes(mix):
    """``Machine.tick`` equals the scalar reference tick on every
    TickResult field, counter and usage slot, by ``float.hex``, for any
    mix of tiers, caps, duty cycles, noise, cold starts and departures, on
    every platform and at extreme appetites."""
    assert _run_mix(mix, reference=False) == _run_mix(mix, reference=True)


# -- one FusedFleet over drawn machines vs the reference ----------------------


def _edge_tasks(kind: str, cores: float,
                inf_tier: Optional[SchedulingClass]) -> list[tuple]:
    """The tasks of one allocation-edge machine (``_TASKS`` tuples).

    ``exact`` fills the latency-sensitive tier to exactly ``cores`` (the
    tier fits, nothing remains and the loop breaks, so the batch tier gets
    0.0); ``over`` oversubscribes it; ``zero`` leaves it wanting nothing
    (the tier is skipped).  ``inf_tier`` adds a task of that tier with
    infinite demand and limit behind the exhausted tier: its grant must be
    0.0, where ``inf * 0.0`` would be NaN.  (An infinite demand does not
    compile, so a fleet holding one runs its closures.)
    """
    ls, batch = SchedulingClass.LATENCY_SENSITIVE, SchedulingClass.BATCH

    def task(tier, level, limit):
        return (tier, level, False, SENSITIVE_PROFILE, None, limit)

    half = cores / 2
    if kind == "exact":
        tasks = [task(ls, half, half), task(ls, half, half),
                 task(batch, 1.0, 2.0)]
    elif kind == "over":
        tasks = [task(ls, cores, cores), task(ls, 1.0, 1.0),
                 task(batch, 1.0, 2.0)]
    else:
        return [task(ls, 0.0, 1.0), task(batch, 2.0, 4.0),
                task(SchedulingClass.BEST_EFFORT, 0.0, 1.0)]
    if inf_tier is not None:
        tasks.append(task(inf_tier, float("inf"), float("inf")))
    return tasks


@st.composite
def _edge_mixes(draw):
    platform = draw(st.sampled_from(sorted(PLATFORM_CATALOG)))
    cores = float(get_platform(platform).num_cores)
    inf_tier = draw(st.sampled_from(
        (None, SchedulingClass.BATCH, SchedulingClass.BEST_EFFORT)))
    tasks = _edge_tasks(draw(st.sampled_from(("exact", "over", "zero"))),
                        cores, inf_tier)
    return dict(tasks=tasks, cap=None, duty=None, platform=platform,
                sigma=draw(st.sampled_from((0.0, 0.03))),
                seed=draw(st.integers(0, 999)))


@st.composite
def _fleet_mixes(draw):
    """2-6 machines: drawn mixes, then allocation-edge machines; one demand
    kind (compiled or closures) and one accounting kind for the fleet; a
    duty cycle applied (and maybe cleared) between ticks; a task killed."""
    mixes = draw(st.lists(_machine_mixes(), min_size=1, max_size=4))
    edges = draw(st.lists(_edge_mixes(), min_size=max(0, 2 - len(mixes)),
                          max_size=6 - len(mixes)))
    n = len(mixes) + len(edges)
    late_duty = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, n - 1), st.integers(0, 11),
        st.sampled_from((0.0, 0.5, 0.9)), st.sampled_from((0.25, 1.0)),
        st.integers(1, _PROPERTY_TICKS - 1), st.integers(1, _PROPERTY_TICKS),
        st.one_of(st.none(), st.integers(1, _PROPERTY_TICKS - 1)))))
    # Kills stay off the edge machines: emptying an exhausted tier would
    # hand the infinite task an infinite grant.
    kill = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, len(mixes) - 1), st.integers(0, 11),
        st.integers(1, _PROPERTY_TICKS - 1))))
    return dict(mixes=mixes + edges, late_duty=late_duty, kill=kill,
                closures=draw(st.booleans()), plain=draw(st.booleans()))


def _run_fleet(fleet_mix: dict, reference: bool) -> tuple:
    """Step ``fleet_mix`` as one FusedFleet, or each machine on the
    reference tick; every tick's results and machine states, then every
    task's usage history and grant total, and whether each departed
    task's total has left the fleet's column."""
    machines, tasks = [], []
    for k, mix in enumerate(fleet_mix["mixes"]):
        machine, ts = _mix_machine(
            dict(mix, closures=fleet_mix["closures"]), name=f"m{k}",
            plain=fleet_mix["plain"])
        machines.append(machine)
        tasks.append(ts)
    order = tuple((m.name, m) for m in machines)

    def task_at(k, i):
        return machines[k], tasks[k][i % len(tasks[k])].name

    fleet = None
    results, states = [], []
    for t in range(_PROPERTY_TICKS):
        if fleet_mix["late_duty"] is not None:
            k, i, level, share, at, duration, clear_at = \
                fleet_mix["late_duty"]
            machine, name = task_at(k, i)
            if t == at and machine.has_task(name):
                machine.apply_duty_cycle(name, level=level,
                                         core_share=share, now=t,
                                         duration=duration)
            if t == clear_at:
                machine.clear_duty_cycle()
        if fleet_mix["kill"] is not None:
            k, i, at = fleet_mix["kill"]
            machine, name = task_at(k, i)
            if t == at and machine.has_task(name):
                machine.remove(name, TaskState.KILLED)
        if reference:
            tick = {m.name: reference_tick.tick(m, t) for m in machines}
        else:
            if fleet is None or not fleet.matches(order):
                fleet = FusedFleet.build(order)
                assert len(fleet.machines) >= 2
                if fleet_mix["closures"]:
                    assert isinstance(fleet.demand_columns, DemandClosures)
            tick = fleet.step(t)
        results.append(tick)
        states.append([_machine_state(m) for m in machines])
    every = [task for ts in tasks for task in ts]
    usage = [[_hex(u) for u in task.cgroup.usage_window_view(
        0, _PROPERTY_TICKS).tolist()] for task in every]
    granted = [_hex(task.workload.granted_cpu_seconds) for task in every]
    unbound = [task.workload._granted_column is None for task in every
               if not any(m.has_task(task.name) for m in machines)]
    canon = [{name: _canon_result(r) for name, r in tick.items()}
             for tick in results]
    return canon, states, usage, granted, unbound


@settings(deadline=None)
@given(fleet_mix=_fleet_mixes())
def test_fused_fleet_matches_reference_on_drawn_fleets(fleet_mix):
    """One FusedFleet over 2-6 drawn machines (so tier allocation runs over
    the arena) equals each machine on the scalar reference tick on every
    TickResult field, counter, usage slot and ``granted_cpu_seconds``, by
    ``float.hex``: through exactly filled, oversubscribed and zero-want
    tiers, infinite allowances behind an exhausted tier, duty cycles
    applied, cleared and expired between ticks, and killed tasks, on
    compiled and closure demand, with batched and per-task accounting."""
    assert (_run_fleet(fleet_mix, reference=False)
            == _run_fleet(fleet_mix, reference=True))


def _three_machines() -> ClusterSimulation:
    """Three machines of plain workloads; ``b`` oversubscribes its batch
    tier, ``c`` has a noisy service beside a batch task."""
    platform = get_platform("westmere-2.6")
    sim = ClusterSimulation(
        [Machine(name, platform) for name in ("a", "b", "c")],
        SimConfig(seed=41))
    placements = {
        "a": [(SchedulingClass.LATENCY_SENSITIVE, constant(2.0))],
        "b": [(SchedulingClass.LATENCY_SENSITIVE, constant(3.0)),
              (SchedulingClass.BATCH, constant(9.0)),
              (SchedulingClass.BATCH, constant(7.5))],
        "c": [(SchedulingClass.LATENCY_SENSITIVE,
               with_noise(constant(1.5), 0.2, np.random.default_rng(3))),
              (SchedulingClass.BATCH, constant(4.0))],
    }
    for name, tasks in placements.items():
        for i, (tier, demand) in enumerate(tasks):
            job = Job(JobSpec(
                name=f"{name}{i}", num_tasks=1, scheduling_class=tier,
                priority_band=PriorityBand.PRODUCTION,
                cpu_limit_per_task=12.0,
                workload_factory=lambda _, d=demand: SyntheticWorkload(
                    base_cpi=1.0, profile=SENSITIVE_PROFILE, demand=d)))
            sim.machines[name].place(job.tasks[0])
    return sim


def _duty_run() -> tuple[list, list]:
    """Step ``_three_machines`` for 40 s: a duty cycle goes on ``b`` at
    t=5 and is cleared at t=15; one goes on ``c`` at t=10 and expires at
    t=20 without a call.  No placement changes, so the simulation keeps
    one fleet throughout."""
    sim = _three_machines()
    fleets = set()
    grants = []
    for t in range(40):
        if t == 5:
            sim.machines["b"].apply_duty_cycle(
                "b1/0", level=0.5, core_share=0.5, now=t, duration=30)
        if t == 10:
            sim.machines["c"].apply_duty_cycle(
                "c0/0", level=0.0, core_share=1.0, now=t, duration=10)
        if t == 15:
            sim.machines["b"].clear_duty_cycle()
        results = sim.step()
        fleets.add(id(sim._fleet))
        grants.append({name: _canon_pairs(r.grants)
                       for name, r in results.items()})
    return grants, fleets


def test_duty_cycles_between_ticks_reach_the_arena(monkeypatch):
    """A duty cycle applied, cleared or expired between ticks, with no
    placement change, shows in the next tick's grants exactly as on the
    reference tick."""
    fused, fleets = _duty_run()
    assert len(fleets) == 1             # one fleet: no rebuild to hide behind
    reference_tick.install(monkeypatch)
    reference, _ = _duty_run()
    b1 = [dict(tick["b"])["b1/0"] for tick in fused]
    assert b1[4] != b1[5] and b1[14] != b1[15] and b1[4] == b1[15]
    c0 = [dict(tick["c"])["c0/0"] for tick in fused]
    assert float.fromhex(c0[9]) > 0.0 and float.fromhex(c0[20]) > 0.0
    assert {float.fromhex(g) for g in c0[10:20]} == {0.0}
    assert fused == reference


def test_multi_machine_fleet_makes_no_per_machine_tick_call(monkeypatch):
    """A compiled, batch-accounting fleet of more than one machine
    computes demand, allocates, charges and accounts over its arena: it
    never calls the rows' closures or a machine's observations."""
    def forbidden(*args, **kwargs):
        raise AssertionError("per-machine tick phase called")

    monkeypatch.setattr(DemandClosures, "allowed_and_capped", forbidden)
    monkeypatch.setattr(Machine, "_observe", forbidden)
    sim = _three_machines()
    sim.machines["b"].apply_duty_cycle("b0/0", level=0.5, core_share=0.5,
                                       now=0, duration=10)
    sim.run(30)
    program = sim._fleet.demand_columns
    assert isinstance(program, DemandColumns) and program.batch_on_tick
    assert len(sim._fleet.machines) == 3


# -- measurement noise: buffered draws across fleets --------------------------

#: Past two refills of a fleet's noise block (64 rows).
_NOISE_TICKS = 150


@st.composite
def _noise_runs(draw):
    """2-6 machines mixing sigma = 0 and sigma > 0, and the events drawn
    between ticks: a task placed or removed (the fleet is rebuilt at a new
    task count), a machine ticked alone through ``Machine.tick`` (its draws
    move to a one-machine fleet and back), a reassigned ``machine.rng``."""
    sigmas = draw(st.lists(st.sampled_from((0.0, 0.03, 0.2)), min_size=2,
                           max_size=6).filter(
        lambda s: 0.0 in s and any(s)))
    n = len(sigmas)
    events = draw(st.lists(st.tuples(
        st.integers(1, _NOISE_TICKS - 1),
        st.sampled_from(("place", "remove", "alone", "rng")),
        st.integers(0, n - 1), st.integers(0, 999)), max_size=14))
    return dict(sigmas=sigmas, seed=draw(st.integers(0, 99)),
                tasks=draw(st.lists(st.integers(0, 5), min_size=n,
                                    max_size=n)),
                events=sorted(events))


def _noise_run(run: dict) -> tuple[list, list]:
    """Every tick of ``run``'s results by ``float.hex``, and the generator
    state of each machine with sigma = 0 (it must never be drawn from)."""
    platform = get_platform("westmere-2.6")
    machines = [Machine(f"m{k}", platform, cpi_noise_sigma=sigma)
                for k, sigma in enumerate(run["sigmas"])]
    sim = ClusterSimulation(machines, SimConfig(seed=run["seed"]))
    serial = iter(range(10_000))

    def place(machine, level):
        workload = SyntheticWorkload(base_cpi=1.0, profile=SENSITIVE_PROFILE,
                                     demand=constant(level))
        job = Job(JobSpec(
            name=f"{machine.name}.j{next(serial)}", num_tasks=1,
            scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
            workload_factory=lambda _, w=workload: w))
        machine.place(job.tasks[0])

    for machine, count in zip(machines, run["tasks"]):
        for i in range(count):
            place(machine, 0.5 + 0.25 * i)
    events: dict[int, list] = {}
    for t, kind, k, arg in run["events"]:
        events.setdefault(t, []).append((kind, machines[k], arg))
    ticks = []
    for t in range(_NOISE_TICKS):
        alone = None
        for kind, machine, arg in events.get(t, ()):
            if kind == "place":
                place(machine, 0.1 + arg / 500)
            elif kind == "remove" and machine.num_tasks:
                victim = machine.resident_tasks()[arg % machine.num_tasks]
                machine.remove(victim.name, TaskState.KILLED)
            elif kind == "rng":
                machine.rng = np.random.default_rng(arg)
            elif kind == "alone":
                alone = machine
        if alone is not None:
            ticks.append((alone.name, _canon_result(alone.tick(t))))
            sim.now += 1    # the machine's own tick stands in for t
        else:
            ticks.append(sorted((name, _canon_result(r))
                                for name, r in sim.step().items()))
    quiet = [m.rng.bit_generator.state for m in machines
             if m.cpi_noise_sigma == 0.0]
    return ticks, quiet


def _noise_reference(run: dict) -> tuple[list, list]:
    """:func:`_noise_run` with every machine on the scalar reference tick."""
    with pytest.MonkeyPatch.context() as patch:
        reference_tick.install(patch)
        return _noise_run(run)


@settings(deadline=None)
@given(run=_noise_runs())
def test_noise_stream_matches_reference_across_fleets(run):
    """Buffered noise draws belong to their machine: through fleet
    rebuilds at new task counts, one-machine ticks between cluster steps
    and reassigned generators, every tick equals the scalar reference by
    ``float.hex``, and a sigma = 0 machine's generator is never drawn."""
    assert _noise_run(run) == _noise_reference(run)


def test_noise_block_carries_over_across_rebuilds():
    """The property above is not vacuous: a rebuild hands a part-used
    block on, a shrunken machine keeps the draws that did not fit, an
    emptied machine keeps its draws without keeping the fleet (and drops
    them when its generator is reassigned), and a sigma = 0 machine's
    columns stay 0.0."""
    shrink = [(70, "remove", 1, 0)] * 5
    emptied = [(80, "remove", 1, 0)] * 6 + [(90, "place", 1, 7)]
    reseeded = ([(80, "remove", 1, 0)] * 6 + [(81, "rng", 1, 5)]
                + [(82, "place", 1, 7)])
    for events in (shrink, emptied, reseeded):
        run = dict(sigmas=[0.0, 0.03], seed=3, tasks=[2, 6], events=events)
        assert _noise_run(run) == _noise_reference(run)
    platform = get_platform("westmere-2.6")
    sim = ClusterSimulation(
        [Machine("a", platform, cpi_noise_sigma=0.0),
         Machine("b", platform, cpi_noise_sigma=0.03)], SimConfig(seed=3))
    for name, count in (("a", 2), ("b", 6)):
        for i in range(count):
            sim.machines[name].place(_plain_task(f"{name}.j{i}"))
    sim.run(70)
    fleet = sim._fleet
    assert fleet.noise_row == 70 - 64
    assert not fleet.noise_block[:, :2].any()
    b = sim.machines["b"]
    for task in b.resident_tasks()[1:]:
        b.remove(task.name, TaskState.KILLED)
    sim.step()
    owner, _, n, extra = b._noise_src
    assert owner is sim._fleet and n == 1
    # 58 rows of 6 draws were left; 64 fit in the new block.
    assert extra is not None and extra.size == 58 * 6 - 64
    b.remove(b.resident_tasks()[0].name, TaskState.KILLED)
    sim.step()
    # An emptied machine's draws are copied out of the fleet that held
    # them, so that fleet is not kept alive.
    assert b._noise_src[0] is None and b._noise_src[3].size == 63 + extra.size
    # Reassigning the generator of an emptied machine drops its copied-out
    # draws; there is no fleet to retire.
    b.rng = np.random.default_rng(2)
    assert b._noise_src is None and sim._fleet.valid
    sim.step()
    b.place(_plain_task("b.again"))
    sim.step()
    owner = b._noise_src[0]
    assert owner is sim._fleet
    b.rng = np.random.default_rng(1)
    assert b._noise_src is None and not owner.valid


def _plain_task(name: str):
    workload = SyntheticWorkload(base_cpi=1.0, profile=SENSITIVE_PROFILE,
                                 demand=constant(0.5))
    return Job(JobSpec(
        name=name, num_tasks=1,
        scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
        priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
        workload_factory=lambda _: workload)).tasks[0]


# -- the numpy identities the batched tick relies on --------------------------


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_bulk_standard_normal_matches_scalar_draws(seed):
    """One rng.standard_normal(n) call == n scalar draws, bit-for-bit.

    This is the batched-RNG-order contract: the tick replaces the reference's
    per-task scalar draw loop with one bulk draw per machine per noise
    block.
    """
    bulk = np.random.default_rng(seed).standard_normal(257)
    scalar_rng = np.random.default_rng(seed)
    scalars = [scalar_rng.standard_normal() for _ in range(257)]
    assert [v.hex() for v in bulk.tolist()] == [
        float(v).hex() for v in scalars]


@pytest.mark.parametrize("sigma", [0.03, 0.5, 1.7])
def test_sigma_times_standard_normal_matches_normal(sigma):
    """rng.normal(0, sigma) == sigma * rng.standard_normal(), bit-for-bit.

    numpy implements the former as exactly this product, which lets the
    noise path draw standard normals in bulk and scale afterwards.
    """
    a = np.random.default_rng(99)
    b = np.random.default_rng(99)
    for _ in range(1000):
        assert a.normal(0.0, sigma) == sigma * b.standard_normal()


def test_vector_exp_matches_scalar_exp():
    """np.exp over an array == np.exp per scalar (IEEE, same code path)."""
    values = np.random.default_rng(7).standard_normal(512) * 3.0
    batched = np.exp(values)
    assert [v.hex() for v in batched.tolist()] == [
        float(np.exp(v)).hex() for v in values.tolist()]


def test_bincount_matches_sequential_running_sums():
    """np.bincount(ids, weights=w) == a per-bin running sum from 0.0 in
    index order, bit-for-bit.

    The fused tick's per-machine pressures rely on this; numpy's pairwise
    ``.sum()`` and ``reduceat`` round differently.  Bins 7-8 stay empty,
    bin 6 only ever sees -0.0 (a running sum from 0.0 stays +0.0), and
    weights span 16 decades so the summation order shows in the result.
    """
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 6, 500)
    weights = rng.standard_normal(500) * 10.0 ** rng.integers(-8, 8, 500)
    weights[::7] = 0.0
    weights[3::11] = -0.0
    ids = np.concatenate([ids, [6, 6]])
    weights = np.concatenate([weights, [-0.0, -0.0]])
    expected = [0.0] * 9
    for i, w in zip(ids.tolist(), weights.tolist()):
        expected[i] += w
    got = np.bincount(ids, weights=weights, minlength=9)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]

    # With no weights at all numpy returns int64 zeros, not float64: the
    # fused tick casts the result so an emptied fleet still broadcasts
    # float pressures.
    empty = np.bincount(np.zeros(0, dtype=np.intp), weights=np.zeros(0),
                        minlength=3)
    assert empty.dtype == np.int64
    assert empty.tolist() == [0, 0, 0]


# -- Machine.advance: blocks of seconds vs one tick at a time -----------------

#: Two refills of a one-machine fleet's noise block (64 rows) and a few
#: sampling windows.
_BLOCK_TICKS = 150

#: One task: (tier, demand level, demand noise — none, a private generator
#: or one generator shared by every "shared" task — profile, modulated
#: base CPI, cgroup limit).
_BLOCK_TASKS = st.tuples(
    st.sampled_from(tuple(SchedulingClass)),
    st.sampled_from((0.0, 0.4, 1.0, 2.5, 6.0)),
    st.sampled_from((None, "private", "shared")),
    st.sampled_from((SENSITIVE_PROFILE, NOISY_NEIGHBOR_PROFILE,
                     _COLD_SERVICE)),
    st.booleans(),
    st.sampled_from((1.0, 2.0, 4.0, 8.0)),
)


@st.composite
def _block_runs(draw):
    """One machine's tasks, maybe a MapReduce worker that completes or
    exits (capped) at a drawn second, a cap and a duty cycle expiring at
    drawn seconds, and the cuts of the ``advance`` split."""
    tasks = draw(st.lists(_BLOCK_TASKS, min_size=1, max_size=8))
    last = len(tasks) - 1
    return dict(
        tasks=tasks,
        leaver=draw(st.one_of(st.none(), st.tuples(
            st.sampled_from(("completed", "exited")),
            st.integers(1, _BLOCK_TICKS - 1)))),
        cap=draw(st.one_of(st.none(), st.tuples(
            st.integers(0, last), st.sampled_from((0.0, 0.3, 1.5)),
            st.integers(1, _BLOCK_TICKS)))),
        duty=draw(st.one_of(st.none(), st.tuples(
            st.integers(0, last), st.sampled_from((0.0, 0.5, 0.9)),
            st.sampled_from((0.25, 1.0)), st.integers(1, _BLOCK_TICKS)))),
        cuts=sorted(set(draw(st.lists(
            st.integers(1, _BLOCK_TICKS - 1), max_size=8)))),
        sigma=draw(st.sampled_from((0.0, 0.03))),
        closures=draw(st.booleans()),
        seed=draw(st.integers(0, 999)))


def _block_machine(run: dict) -> tuple[Machine, list]:
    """A fresh machine holding ``run``'s tasks, and its tasks."""
    from repro.workloads.batch import MapReduceWorker

    seed = run["seed"]
    machine = Machine("m", get_platform("westmere-2.6"),
                      rng=np.random.default_rng(seed),
                      cpi_noise_sigma=run["sigma"])
    shared = np.random.default_rng([seed, 999])
    workloads = []
    for i, (tier, level, noise, profile, modulated, limit) in enumerate(
            run["tasks"]):
        demand = constant(level)
        if noise == "private":
            demand = with_noise(demand, 0.3, np.random.default_rng([seed, i]))
        elif noise == "shared":
            demand = with_noise(demand, 0.3, shared)
        modulation = ((lambda t: 1.0 + 0.05 * (t % 7)) if modulated
                      else None)
        workloads.append((tier, limit, SyntheticWorkload(
            base_cpi=1.0, profile=profile, demand=demand,
            cpi_modulation=modulation)))
    del shared
    if run["leaver"] is not None:
        outcome, at = run["leaver"]
        rng = np.random.default_rng([seed, 1000])
        if outcome == "completed":
            worker = MapReduceWorker(rng, demand=constant(2.0),
                                     work_cpu_seconds=at)
        else:
            worker = MapReduceWorker(rng, demand=constant(2.0),
                                     give_up_episode=1, exit_delay=at)
        workloads.append((SchedulingClass.BATCH, 4.0, worker))
    tasks = []
    for i, (tier, limit, workload) in enumerate(workloads):
        job = Job(JobSpec(
            name=f"j{i}", num_tasks=1, scheduling_class=tier,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=limit,
            workload_factory=lambda _, w=workload: w))
        tasks.extend(job.tasks)
    if run["closures"]:
        reference_demand.pin_closures(task.workload for task in tasks)
    for task in tasks:
        machine.place(task)
    if run["leaver"] is not None and run["leaver"][0] == "exited":
        tasks[-1].cgroup.apply_cap(0.5, now=0, duration=_BLOCK_TICKS)
    if run["cap"] is not None:
        i, quota, duration = run["cap"]
        tasks[i].cgroup.apply_cap(quota, now=0, duration=duration)
    if run["duty"] is not None:
        i, level, share, duration = run["duty"]
        machine.apply_duty_cycle(tasks[i].name, level=level,
                                 core_share=share, now=0, duration=duration)
    return machine, tasks


def _generators(machine: Machine, tasks: list) -> list:
    """Every generator the run can draw, found after the run (holding one
    during it would make a private demand stream look shared)."""
    from repro.workloads.demand import demand_spec

    seen: dict[int, np.random.Generator] = {id(machine.rng): machine.rng}
    for task in tasks:
        spec = demand_spec(task.workload._demand)
        rng = getattr(spec, "rng", None)
        if rng is not None:
            seen.setdefault(id(rng), rng)
    return [rng.bit_generator.state for rng in seen.values()]


def _block_state(machine: Machine, tasks: list) -> tuple:
    """Counters, usage rings and clocks, grant totals, task states and
    generator states, by ``float.hex``."""
    table = machine._table
    return (_machine_state(machine),
            [[_hex(u) for u in task.cgroup.usage_window_view(
                0, _BLOCK_TICKS).tolist()] for task in tasks],
            [task.cgroup._ring_last for task in tasks],
            None if table is None else table.charged_to,
            [_hex(task.workload.granted_cpu_seconds) for task in tasks],
            [task.state.value for task in tasks],
            _generators(machine, tasks))


def _block_run(run: dict, split: bool) -> tuple:
    """``run`` stepped by ``Machine.advance`` over its split (refined at
    every second the sampler acts), or by ``Machine.tick`` at every
    second; each second's grants, the samples, and the end state."""
    machine, tasks = _block_machine(run)
    sampler = CpiSampler(machine, SamplerConfig())
    acts_at = sampler.config.acts_at
    grants, samples = [], []
    if split:
        ends = set(run["cuts"]) | {_BLOCK_TICKS}
        ends |= {t + 1 for t in range(_BLOCK_TICKS) if acts_at(t)}
        t = 0
        for end in sorted(ends):
            grants += [[_hex(g) for g in row]
                       for row in machine.advance(t, end)]
            if acts_at(end - 1):
                samples += _canon_samples(sampler.tick(end - 1))
            t = end
    else:
        for t in range(_BLOCK_TICKS):
            grants.append([_hex(g) for g in machine.tick(t).grants.values()])
            samples += _canon_samples(sampler.tick(t))
    return grants, samples, _block_state(machine, tasks)


@settings(deadline=None)
@given(run=_block_runs())
def test_advance_matches_tick_by_tick_on_drawn_splits(run):
    """``Machine.advance`` over any split equals ``Machine.tick`` at every
    second, by ``float.hex``: each second's grants, the samples, every
    counter, usage slot and clock, grant totals, departures and the state
    of every generator — on closure and compiled demand, private and
    shared noise streams, modulated and cold-start tasks, caps and duty
    cycles expiring inside a block, noise refills inside a block, and a
    worker completing or exiting mid-block."""
    assert _block_run(run, split=True) == _block_run(run, split=False)


def _departure_second(run: dict) -> int:
    machine, tasks = _block_machine(run)
    for t in range(_BLOCK_TICKS):
        machine.tick(t)
        if not machine.has_task(tasks[-1].name):
            return t
    raise AssertionError("the worker never left")


@pytest.mark.parametrize("closures", [False, True])
@pytest.mark.parametrize("outcome", ["completed", "exited"])
def test_advance_departure_and_expiries_inside_one_block(outcome, closures):
    """The property is not vacuous: one block spans a worker's departure,
    a cap's and a duty cycle's expiry and a noise refill."""
    run = dict(
        tasks=[(SchedulingClass.LATENCY_SENSITIVE, 2.5, "private",
                _COLD_SERVICE, True, 4.0),
               (SchedulingClass.BATCH, 6.0, "shared", NOISY_NEIGHBOR_PROFILE,
                False, 8.0),
               (SchedulingClass.BEST_EFFORT, 1.0, "shared",
                SENSITIVE_PROFILE, True, 2.0)],
        leaver=(outcome, 180 if outcome == "completed" else 75),
        cap=(1, 0.3, 80), duty=(2, 0.5, 0.25, 85),
        cuts=[], sigma=0.03, closures=closures, seed=4)
    left = _departure_second(run)
    assert 71 < left < 119     # inside the block of seconds 71 .. 119
    assert _block_run(run, split=True) == _block_run(run, split=False)


class _FailingBase(SyntheticWorkload):
    """Base CPI turns non-positive once the workload has seen ``bad_at``."""

    def __init__(self, bad_at: int, **kwargs):
        super().__init__(**kwargs)
        self.bad_at = bad_at

    def base_cpi(self):
        return -1.0 if self._now >= self.bad_at else super().base_cpi()


def _failing_run(kind: str, advance: bool) -> tuple:
    """A machine whose tick raises at second 41; the error and the state
    it leaves, stepped by ``advance`` or by ``tick``."""
    machine = Machine("m", get_platform("westmere-2.6"),
                      rng=np.random.default_rng(3), cpi_noise_sigma=0.03)
    workloads = [SyntheticWorkload(
        base_cpi=1.0, profile=SENSITIVE_PROFILE,
        demand=with_noise(constant(1.0), 0.3, np.random.default_rng(5)))]
    if kind == "base_cpi":
        workloads.append(_FailingBase(40, base_cpi=1.0,
                                      profile=_COLD_SERVICE,
                                      demand=constant(0.5)))
    else:
        # An infinite demand under an infinite limit that does not fit
        # its tier is granted inf * 0.0 = NaN, which the burn rejects.
        workloads.append(SyntheticWorkload(
            base_cpi=1.0, profile=_COLD_SERVICE,
            demand=lambda t: float("inf") if t >= 41 else 0.5))
    tasks = []
    for i, w in enumerate(workloads):
        tasks += Job(JobSpec(
            name=f"j{i}", num_tasks=1,
            scheduling_class=SchedulingClass.BATCH,
            priority_band=PriorityBand.PRODUCTION,
            cpu_limit_per_task=float("inf") if i else 2.0,
            workload_factory=lambda _, w=w: w)).tasks
    for task in tasks:
        machine.place(task)
    with pytest.raises(ValueError) as error:
        if advance:
            machine.tick(0)
            machine.advance(1, 64)
        else:
            for t in range(64):
                machine.tick(t)
    state = (_machine_state(machine),
             [[_hex(u) for u in task.cgroup.usage_window_view(0, 64).tolist()]
              for task in tasks],
             [task.cgroup._ring_last for task in tasks],
             [_hex(task.workload.granted_cpu_seconds) for task in tasks],
             machine.rng.bit_generator.state, machine._fleet.noise_row)
    return str(error.value), state


@pytest.mark.parametrize("kind", ["base_cpi", "nan_grant"])
def test_advance_commits_before_an_error(kind):
    """An error inside a block leaves what ticking second by second
    leaves: the seconds before it committed, none after it run."""
    message, state = _failing_run(kind, advance=True)
    assert (message, state) == _failing_run(kind, advance=False)
    assert state[2][0] == 40


def _replay_run(advance: bool) -> tuple:
    """Ten ticks, then seconds 5 .. 19 again: the replayed charge raises."""
    machine = Machine("m", get_platform("westmere-2.6"),
                      rng=np.random.default_rng(2), cpi_noise_sigma=0.03)
    task = _plain_task("j")
    machine.place(task)
    for t in range(10):
        machine.tick(t)
    with pytest.raises(ValueError, match="does not follow") as error:
        if advance:
            machine.advance(5, 20)
        else:
            for t in range(5, 20):
                machine.tick(t)
    return (str(error.value), _machine_state(machine),
            task.cgroup._ring_last, machine._fleet.noise_row)


def test_advance_replayed_second_raises_like_tick():
    """A block whose table has not charged the second before it commits
    its first second alone, so a replayed second raises where a tick
    does: after that second's counter burn, before any later second."""
    assert _replay_run(advance=True) == _replay_run(advance=False)
