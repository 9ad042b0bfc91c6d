"""Reference tick: the original scalar loop of :meth:`Machine.tick`.

This is how a machine executed one simulated second before the tick was
batched into numpy arrays: one Python pass per task for demand, cgroup
clipping, tier allocation, duty cycling, contention, CPI, noise and
counter burns, then one usage charge of the whole task table (a table
charges its rows, not each cgroup), then the workload observations.  It
draws measurement noise with one ``rng.normal(0, sigma)`` per task in
name-sorted order.

The physics and counter arithmetic are this module's own: the contention,
CPI, miss-rate and counter formulas below are transcribed operand for
operand from the per-task model the columnar tick
(:mod:`repro.cluster.fused`) vectorizes, and read the task's
:class:`~repro.cluster.interference.ResourceProfile`, the platform and the
machine's interference parameters only as data.  A parity test therefore
compares two independent programs.

Tests swap it in for every machine with :func:`install` (which also
points :meth:`Machine.advance` at it, a second at a time), or bind it to
one machine (``machine.tick = MethodType(tick, machine)``), which also
keeps that machine out of any fused fleet.
"""

import math

import numpy as np

from repro.cluster.fused import FusedFleet
from repro.cluster.machine import _TIER_ORDER, Machine, TickResult
from repro.cluster.task import Task, TaskState
from repro.perf.counters import EVENT_ORDER
from repro.perf.events import CounterEvent

#: The saturation knee of the contention response.
_KNEE = 0.35

_EVENT_SLOT = {event: i for i, event in enumerate(EVENT_ORDER)}


def install(monkeypatch) -> None:
    """Run every machine on this tick, one machine at a time, whether it is
    ticked or advanced.

    The class-level patch keeps ``type(m).tick is Machine.tick`` true, so
    cluster fusion must be switched off separately.
    """
    monkeypatch.setattr(Machine, "tick", tick)
    monkeypatch.setattr(Machine, "advance", advance)
    monkeypatch.setattr(FusedFleet, "build",
                        classmethod(lambda cls, order: None))


def advance(machine: Machine, t0: int, t1: int) -> list[list[float]]:
    """Seconds ``t0 .. t1-1`` on :func:`tick`, one at a time; each second's
    grants in table order, as :meth:`Machine.advance` returns them."""
    return [list(tick(machine, t).grants.values()) for t in range(t0, t1)]


def tick(machine: Machine, t: int) -> TickResult:
    """The original scalar tick loop, kept as the golden parity reference."""
    tasks = machine.resident_tasks()
    result = TickResult(t=t, departures=[])
    if not tasks:
        return result

    demands = {task.name: max(0.0, task.workload.cpu_demand(t)) for task in tasks}
    allowed = {
        task.name: task.cgroup.allowed_usage(demands[task.name], t)
        for task in tasks
    }
    grants = _allocate(machine, tasks, allowed)
    _apply_duty_cycle_to_grants(machine, t, grants)
    result.grants = grants

    platform = machine.platform
    model = machine.interference
    profiles = {task.name: task.workload.resource_profile() for task in tasks}
    cache_contrib, membw_contrib = _contention(platform, tasks, grants,
                                               profiles)
    cache_pressure = _running_sum(cache_contrib.values())
    membw_pressure = _running_sum(membw_contrib.values())

    for task in tasks:
        grant = grants[task.name]
        profile = profiles[task.name]
        base_cpi = task.workload.base_cpi()
        if base_cpi <= 0:
            raise ValueError(f"base_cpi must be positive, got {base_cpi}")
        others_cache = max(0.0, cache_pressure - cache_contrib[task.name])
        others_membw = max(0.0, membw_pressure - membw_contrib[task.name])
        inflation = (profile.cache_sensitivity * _saturate(others_cache)
                     + profile.membw_sensitivity * _saturate(others_membw))
        if profile.cold_start_penalty == 0.0:
            cold = 1.0
        else:
            cold = 1.0 + profile.cold_start_penalty * math.exp(
                -grant / model.cold_start_scale)
        cpi = base_cpi * platform.cpi_scale * (1.0 + inflation) * cold
        if machine.cpi_noise_sigma > 0.0:
            cpi *= float(np.exp(machine.rng.normal(0.0, machine.cpi_noise_sigma)))
        result.cpis[task.name] = cpi

        cycles = grant * platform.cycles_per_cpu_second
        instructions = cycles / cpi if cpi > 0 else 0.0
        l3_mpki = profile.base_l3_mpki * (
            1.0 + model.miss_rate_coupling * inflation)
        l2_mpki = 3.0 * profile.base_l3_mpki * (
            1.0 + 0.25 * model.miss_rate_coupling * inflation)
        l3_misses = instructions / 1000.0 * l3_mpki
        values = machine.counters.counters_for(task.cgroup.name)._values
        _add(values, CounterEvent.CPU_CLK_UNHALTED_REF, cycles)
        _add(values, CounterEvent.INSTRUCTIONS_RETIRED, instructions)
        _add(values, CounterEvent.L3_MISSES, l3_misses)
        _add(values, CounterEvent.L2_MISSES, instructions / 1000.0 * l2_mpki)
        _add(values, CounterEvent.MEMORY_REQUESTS, l3_misses * 1.1)

    # The usage charge: one column of the task table's history, in table
    # (name-sorted) order, after the same check Cgroup.charge makes.
    usage = [grants[task.name] for task in tasks]
    for grant in usage:
        if not grant >= 0:
            raise ValueError(f"usage must be >= 0, got {grant}")
    machine._task_table().usage.charge(t, np.array(usage))

    # Workload observations may trigger departures (lame-duck exits etc.).
    for task in tasks:
        outcome = task.workload.on_tick(
            t, grants[task.name], task.cgroup.is_capped(t))
        if outcome is None:
            continue
        if outcome == "completed":
            state = TaskState.COMPLETED
        elif outcome == "exited":
            state = TaskState.EXITED
        else:
            raise ValueError(
                f"workload for {task.name} returned unknown outcome {outcome!r}")
        machine.remove(task.name, state, reason=f"workload said {outcome}")
        result.departures.append((task, state))
    return result


def _contention(platform, tasks: list[Task], grants: dict[str, float],
                profiles: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Each task's cache and memory-bandwidth pressure, as a share of the
    platform's capacity."""
    cache_contrib: dict[str, float] = {}
    membw_contrib: dict[str, float] = {}
    for task in tasks:
        usage = grants[task.name]
        if usage < 0:
            raise ValueError(
                f"usage must be >= 0, got {usage} for {task.name}")
        profile = profiles[task.name]
        cache_contrib[task.name] = (usage * profile.cache_mib_per_cpu
                                    / platform.llc_mib)
        membw_contrib[task.name] = (usage * profile.membw_gbps_per_cpu
                                    / platform.membw_gbps)
    return cache_contrib, membw_contrib


def _running_sum(values) -> float:
    """Left-to-right sum from 0.0 (a machine's pressure, in table order)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _saturate(pressure: float) -> float:
    """Soft-saturating response: linear for small pressure, sub-linear as
    it grows."""
    if pressure <= 0.0:
        return 0.0
    return pressure / (1.0 + _KNEE * pressure)


def _add(values: np.ndarray, event: CounterEvent, amount: float) -> None:
    """Accumulate one finite, non-negative increment onto a counter slot."""
    if not math.isfinite(amount):
        raise ValueError(f"counter increments must be finite, got {amount}")
    if amount < 0:
        raise ValueError(f"counter increments must be >= 0, got {amount}")
    values[_EVENT_SLOT[event]] += amount


def _allocate(machine: Machine, tasks: list[Task], allowed: dict[str, float]
              ) -> dict[str, float]:
    """Split core capacity across tiers; pro-rata within a saturated tier."""
    grants = {name: 0.0 for name in allowed}
    remaining = machine.cpu_capacity
    for tier in _TIER_ORDER:
        tier_tasks = [task for task in tasks if task.scheduling_class is tier]
        want = sum(allowed[task.name] for task in tier_tasks)
        if want <= 0.0:
            continue
        if want <= remaining:
            for task in tier_tasks:
                grants[task.name] = allowed[task.name]
            remaining -= want
        else:
            scale = remaining / want
            for task in tier_tasks:
                grants[task.name] = allowed[task.name] * scale
            remaining = 0.0
        if remaining <= 0.0:
            break
    return grants


def _apply_duty_cycle_to_grants(machine: Machine, t: int,
                                grants: dict[str, float]) -> None:
    state = machine.duty_cycle_at(t)
    if state is None:
        return
    collateral = state.core_share * (1.0 - state.level)
    for name in grants:
        if name == state.target_task:
            grants[name] *= state.level
        else:
            grants[name] *= max(0.0, 1.0 - collateral)
