"""Reference tick: the original scalar loop of :meth:`Machine.tick`.

This is how a machine executed one simulated second before the tick was
batched into numpy arrays: one Python pass per task for demand, cgroup
clipping, tier allocation, duty cycling, contention, CPI, noise, counter
burns and charging, then the workload observations.  It draws measurement
noise with one ``rng.normal(0, sigma)`` per task in name-sorted order.

Tests swap it in for every machine with :func:`install`, or bind it to one
machine (``machine.tick = MethodType(tick, machine)``), which also keeps
that machine out of any fused fleet.
"""

import numpy as np

from repro.cluster.fused import FusedFleet
from repro.cluster.machine import (_SWITCHES_PER_TASK_SECOND, _TIER_ORDER,
                                   Machine, TickResult)
from repro.cluster.task import Task, TaskState
from repro.perf.events import CounterEvent


def install(monkeypatch) -> None:
    """Run every machine on this tick, one machine at a time.

    The class-level patch keeps ``type(m).tick is Machine.tick`` true, so
    cluster fusion must be switched off separately.
    """
    monkeypatch.setattr(Machine, "tick", tick)
    monkeypatch.setattr(FusedFleet, "build",
                        classmethod(lambda cls, order: None))


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

    contention = machine.interference.contention(
        machine.platform,
        [(task.name, grants[task.name], task.workload.resource_profile())
         for task in tasks],
    )
    result.contention = contention

    for task in tasks:
        grant = grants[task.name]
        profile = task.workload.resource_profile()
        cpi = machine.interference.effective_cpi(
            task.name, task.workload.base_cpi(), profile, contention,
            machine.platform, grant)
        if machine.cpi_noise_sigma > 0.0:
            cpi *= float(np.exp(machine.rng.normal(0.0, machine.cpi_noise_sigma)))
        result.cpis[task.name] = cpi

        cycles = grant * machine.platform.cycles_per_cpu_second
        instructions = cycles / cpi if cpi > 0 else 0.0
        l3_mpki = machine.interference.l3_mpki(task.name, profile, contention)
        l2_mpki = machine.interference.l2_mpki(task.name, profile, contention)
        l3_misses = instructions / 1000.0 * l3_mpki
        counters = machine.counters.counters_for(task.cgroup.name)
        counters.add(CounterEvent.CPU_CLK_UNHALTED_REF, cycles)
        counters.add(CounterEvent.INSTRUCTIONS_RETIRED, instructions)
        counters.add(CounterEvent.L3_MISSES, l3_misses)
        counters.add(CounterEvent.L2_MISSES, instructions / 1000.0 * l2_mpki)
        counters.add(CounterEvent.MEMORY_REQUESTS, l3_misses * 1.1)

        task.cgroup.charge(t, grant)
        machine.total_cpu_seconds += grant

    runnable = sum(1 for g in grants.values() if g > 0.0)
    oversubscribed = max(0, runnable - machine.platform.num_cores)
    machine.counters.record_context_switches(
        runnable * _SWITCHES_PER_TASK_SECOND + oversubscribed * 100)

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
