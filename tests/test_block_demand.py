"""Block demand: a block of seconds as one ``(seconds x tasks)`` pass.

* :func:`~repro.workloads.demand.gated` equals the instance-bound closure
  it replaced (``tests/reference/demand.py``), value for value and draw
  for draw, with one generator behind several streams.
* :meth:`DemandColumns.allowed_block` over any split of the seconds
  equals :meth:`DemandColumns.allowed_and_capped` at every second, by
  ``float.hex``, with the generators left in the same state: gates
  opening mid-block, shared and private streams mixed, private rows
  refilling, caps expiring mid-block.
* A fleet whose base-CPI modulation is not declared pure keeps stepping
  second by second, so a generator it draws stays interleaved with the
  demand draws exactly.
* A machine whose noise generator also feeds a demand stream advances
  exactly as it ticks: its blocks end where the noise block refills.
* A fleet whose demand does not compile is counted
  (``demand_program_fallbacks``); trials count none.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cgroup import Cgroup
from repro.cluster.demandplane import DemandClosures, DemandColumns
from repro.cluster.job import Job, JobSpec
from repro.cluster.machine import Machine
from repro.cluster.platform import get_platform
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.experiments.trials import run_trial
from repro.obs import default_observability
from repro.perf.counters import EVENT_ORDER
from repro.testing import QUIET_PROFILE
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant, gated, on_off, with_noise
from tests.reference import demand as reference_demand


def _hex(x) -> str:
    return float(x).hex()


def _workload(fn, modulation=None) -> SyntheticWorkload:
    return SyntheticWorkload(base_cpi=1.0, profile=QUIET_PROFILE, demand=fn,
                             cpi_modulation=modulation)


def _leaf(kind: str, i: int):
    if kind == "constant":
        return constant(1.5)
    return on_off(3.0, 0.2, period=13, duty=0.4, phase=i)


# -- gated vs the closure it replaces -------------------------------------------


@settings(deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(("constant", "on_off")),
                               st.one_of(st.none(), st.integers(0, 40))),
                     min_size=1, max_size=5),
       sigma=st.sampled_from((0.05, 0.3)),
       seed=st.integers(0, 2**16),
       ts=st.lists(st.integers(0, 60), min_size=1, max_size=80))
def test_gated_matches_the_closure_it_replaces(rows, sigma, seed, ts):
    """Every value by ``float.hex`` across the gate, and the shared
    generator's state after: a gated row draws nothing before ``start``."""

    def run(old: bool) -> tuple:
        rng = np.random.default_rng(seed)
        workloads = []
        for i, (kind, start) in enumerate(rows):
            w = _workload(with_noise(_leaf(kind, i), sigma, rng))
            if start is not None:
                if old:
                    reference_demand.gated_closure(w, start)
                else:
                    w._demand = gated(w._demand, start)
            workloads.append(w)
        values = [_hex(w.cpu_demand(t)) for t in ts for w in workloads]
        return values, rng.bit_generator.state

    new, state = run(old=False)
    assert (new, state) == run(old=True)
    draws = sum(1 for t in ts for _, start in rows
                if start is None or t >= start)
    expected = np.random.default_rng(seed)
    expected.standard_normal(draws)
    assert state == expected.bit_generator.state


# -- block demand vs per-second demand -------------------------------------------

_SECONDS = 300      # past one refill of a private row (256 draws)

_ROWS = st.tuples(
    st.sampled_from(("constant", "on_off")),
    st.sampled_from((None, "private", "shared")),
    st.one_of(st.none(), st.integers(0, _SECONDS + 9)),         # gate start
    st.one_of(st.none(), st.tuples(st.sampled_from((0.0, 0.3)),
                                   st.integers(1, _SECONDS))),  # cap
    st.sampled_from((1.0, 4.0)),                                # limit
)


def _program(rows: list, seed: int) -> tuple:
    """A compiled program over ``rows``, and its workloads."""
    shared = np.random.default_rng([seed, 999])
    workloads, cgroups = [], []
    for i, (kind, noise, start, cap, limit) in enumerate(rows):
        fn = _leaf(kind, i)
        if noise == "private":
            fn = with_noise(fn, 0.3, np.random.default_rng([seed, i]))
        elif noise == "shared":
            fn = with_noise(fn, 0.3, shared)
        if start is not None:
            fn = gated(fn, start)
        workloads.append(_workload(fn))
        cg = Cgroup(f"t/{i}", limit)
        if cap is not None:
            cg.apply_cap(cap[0], now=0, duration=cap[1])
        cgroups.append(cg)
    del shared      # a generator held here would look shared
    program = DemandColumns.compile(workloads, cgroups,
                                    [cg.cpu_limit for cg in cgroups])
    assert isinstance(program, DemandColumns)
    return program, workloads


def _generator_states(workloads: list) -> list:
    states = []
    for w in workloads:
        spec = w._demand.spec
        while spec is not None and not hasattr(spec, "rng"):
            spec = getattr(spec, "base", None)
        if spec is not None:
            states.append(spec.rng.bit_generator.state)
    return states


@settings(deadline=None, max_examples=60)
@given(rows=st.lists(_ROWS, min_size=1, max_size=6),
       cuts=st.lists(st.integers(1, _SECONDS - 1), max_size=10),
       seed=st.integers(0, 999))
# A private row gated shut throughout: it must never refill, however
# often the ungated row beside it does.
@example(rows=[("constant", "private", _SECONDS + 1, None, 1.0),
               ("on_off", "private", None, None, 4.0)],
         cuts=[100], seed=1)
def test_block_demand_matches_per_second_demand(rows, cuts, seed):
    per_second, first = _program(rows, seed)
    expected = [[_hex(a) for a in per_second.allowed_and_capped(t)[0]]
                for t in range(_SECONDS)]
    block, second = _program(rows, seed)
    assert block.block_ready()
    got = []
    t = 0
    for end in sorted(set(cuts) | {_SECONDS}):
        got += [[_hex(a) for a in row]
                for row in block.allowed_block(t, end - t).tolist()]
        t = end
    assert got == expected
    assert _generator_states(second) == _generator_states(first)


# -- an impure modulation keeps the per-second draws -----------------------------


class _Pure:
    """A modulation declared pure."""

    spec = ("pure-test",)

    def __call__(self, t: int) -> float:
        return 1.0 + 0.01 * (t % 5)


def _interleaved_run(advance: bool, pure: bool) -> tuple:
    """One machine whose demand and (when not ``pure``) base-CPI
    modulation draw the same generator; grants, counters and the
    generator's state after 120 seconds."""
    machine = Machine("m", get_platform("westmere-2.6"),
                      rng=np.random.default_rng(1), cpi_noise_sigma=0.03)
    shared = np.random.default_rng(7)
    draw = shared.standard_normal
    modulation = _Pure() if pure else (lambda t: 1.0 + 0.01 * draw())
    workloads = [
        _workload(with_noise(constant(1.0), 0.3, shared), modulation),
        _workload(with_noise(on_off(2.0, 0.5, period=9), 0.3, shared)),
    ]
    for i, w in enumerate(workloads):
        machine.place(Job(JobSpec(
            name=f"j{i}", num_tasks=1,
            scheduling_class=SchedulingClass.BATCH,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
            workload_factory=lambda _, w=w: w)).tasks[0])
    grants = [list(machine.tick(0).grants.values())]
    if advance:
        grants += machine.advance(1, 120)
        blockable = machine._fleet.blockable
    else:
        grants += [list(machine.tick(t).grants.values())
                   for t in range(1, 120)]
        blockable = None
    counters = [[_hex(machine.counters.counters_for(cg).read(e))
                 for e in EVENT_ORDER]
                for cg in machine.counters.known_cgroups()]
    return ([[_hex(g) for g in row] for row in grants], counters,
            shared.bit_generator.state), blockable


def test_impure_modulation_keeps_per_second_draws():
    """A generator drawn inside ``base_cpi`` stays interleaved exactly
    with the demand's draws: the fleet is not blockable, and advancing
    it equals ticking it."""
    stepped, blockable = _interleaved_run(advance=True, pure=False)
    assert blockable is False
    assert stepped == _interleaved_run(advance=False, pure=False)[0]


def test_pure_modulation_runs_the_block_pass():
    stepped, blockable = _interleaved_run(advance=True, pure=True)
    assert blockable is True
    assert stepped == _interleaved_run(advance=False, pure=True)[0]


# -- a machine noise generator that demand shares -------------------------------


def _shared_noise_run(advance: bool, closures: bool) -> tuple:
    """A machine whose CPI-noise generator also draws a task's demand
    noise, stepped over sampling-window blocks or tick by tick."""
    rng = np.random.default_rng(5)
    machine = Machine("m", get_platform("westmere-2.6"), rng=rng,
                      cpi_noise_sigma=0.03)
    workloads = [_workload(with_noise(constant(1.0), 0.3, rng)),
                 _workload(with_noise(on_off(2.0, 0.5, period=9), 0.3,
                                      np.random.default_rng(6)))]
    if closures:
        reference_demand.pin_closures(workloads)
    del rng
    for i, w in enumerate(workloads):
        machine.place(Job(JobSpec(
            name=f"j{i}", num_tasks=1,
            scheduling_class=SchedulingClass.BATCH,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
            workload_factory=lambda _, w=w: w)).tasks[0])
    grants = [list(machine.tick(0).grants.values())]
    if advance:
        t = 1
        for end in (11, 61, 71, 121, 131, 181, 191, 241):
            grants += machine.advance(t, end)
            t = end
    else:
        grants += [list(machine.tick(t).grants.values())
                   for t in range(1, 241)]
    counters = [[_hex(machine.counters.counters_for(cg).read(e))
                 for e in EVENT_ORDER]
                for cg in machine.counters.known_cgroups()]
    return ([[_hex(g) for g in row] for row in grants], counters,
            machine.rng.bit_generator.state)


@pytest.mark.parametrize("closures", [False, True])
def test_shared_machine_generator_advances_like_tick(closures):
    assert (_shared_noise_run(advance=True, closures=closures)
            == _shared_noise_run(advance=False, closures=closures))


# -- closure fallbacks are counted ------------------------------------------------


def _fallbacks() -> float:
    return default_observability().metrics.counter(
        "demand_program_fallbacks").value


def test_closure_fleet_counts_a_fallback():
    machine = Machine("m", get_platform("westmere-2.6"),
                      rng=np.random.default_rng(0))
    workloads = [_workload(constant(1.0)), _workload(constant(0.5))]
    reference_demand.pin_closures(workloads[1:])
    for i, w in enumerate(workloads):
        machine.place(Job(JobSpec(
            name=f"j{i}", num_tasks=1,
            scheduling_class=SchedulingClass.BATCH,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
            workload_factory=lambda _, w=w: w)).tasks[0])
    machine.tick(0)
    machine.tick(1)
    assert isinstance(machine._fleet.demand_columns, DemandClosures)
    assert _fallbacks() == 1


def test_trials_count_no_fallback():
    for seed in range(20):
        run_trial(seed)
    assert _fallbacks() == 0


# -- a released machine continues as if it had not been -------------------------


def _release_run(release: bool) -> tuple:
    """A trial-style machine advanced over 200 seconds, released (or not)
    after second 60; grants, counters, usage, grant totals and the demand
    generator's state, by ``float.hex``.  (The machine's own generator
    ends elsewhere: the new fleet consumes the draws the old one buffered
    before it draws more, so the same values are drawn later.)"""
    shared = np.random.default_rng(3)
    machine = Machine("m", get_platform("westmere-2.6"),
                      rng=np.random.default_rng(1), cpi_noise_sigma=0.03)
    workloads = [
        _workload(gated(with_noise(on_off(4.0, 0.5, period=90), 0.1,
                                   shared), 70)),
        _workload(with_noise(constant(1.0), 0.06, shared), _Pure()),
        _workload(with_noise(constant(0.8), 0.08,
                             np.random.default_rng(4))),
    ]
    tasks = []
    for i, w in enumerate(workloads):
        tasks += Job(JobSpec(
            name=f"j{i}", num_tasks=1,
            scheduling_class=SchedulingClass.BATCH,
            priority_band=PriorityBand.PRODUCTION, cpu_limit_per_task=4.0,
            workload_factory=lambda _, w=w: w)).tasks
    for task in tasks:
        machine.place(task)
    grants = [list(machine.tick(0).grants.values())]
    grants += machine.advance(1, 61)
    if release:
        machine.release()
        assert machine._fleet is None and machine._table is None
    grants += machine.advance(61, 200)
    counters = [[_hex(machine.counters.counters_for(cg).read(e))
                 for e in EVENT_ORDER]
                for cg in machine.counters.known_cgroups()]
    usage = [[_hex(u) for u in task.cgroup.usage_window_view(0, 200)]
             for task in tasks]
    totals = [_hex(w.granted_cpu_seconds) for w in workloads]
    return ([[_hex(g) for g in row] for row in grants], counters, usage,
            totals, shared.bit_generator.state)


def test_released_machine_continues_exactly():
    assert _release_run(release=True) == _release_run(release=False)
