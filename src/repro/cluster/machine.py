"""A machine: cores, resident tasks, CPU allocation, and counter generation.

Each simulated second the machine:

1. asks every resident workload for its CPU demand,
2. clips each demand by its cgroup (limit and any hard-cap),
3. allocates cores by scheduling-class tier — latency-sensitive tasks first,
   then batch, then best-effort, pro-rata within a tier when oversubscribed
   (a simplification of CFS shares that preserves the property CPI2 needs:
   hard-capping an antagonist frees cycles and, more importantly, removes its
   shared-resource pressure),
4. computes the contention the resident mix generates and each task's
   effective CPI under it,
5. burns the granted CPU into per-cgroup performance counters
   (cycles, instructions, cache misses), and
6. lets each workload observe the tick (so MapReduce workers can enter
   lame-duck mode or give up when capped).

This module holds the per-machine half of the tick: the stable task-index
table (rebuilt only when placement changes), phases 1-3 (demand, clipping,
tier allocation, duty cycling) and phases 5b-6 (charging and
observations).  Phases 4-5 — the contention, CPI, noise and counter
physics — have one implementation, :class:`~repro.cluster.fused.FusedFleet`:
:meth:`Machine.tick` steps a one-machine fleet, the simulation one fleet
over all its machines.  Demand, cgroup clipping and base-CPI reads run
columnar when the fleet's workloads compile into one
:class:`~repro.cluster.demandplane.DemandColumns` program over its arena;
a fleet the compiler cannot express runs this module's per-task closure
loop on every machine.

The test oracle ``tests/reference/tick.py`` is the original per-task
scalar loop, with its own transcription of the physics formulas;
``tests/test_tick_parity.py`` proves both produce byte-identical CPI sample
streams and incidents for the same seed.  The invariants that make this
possible are documented in ``docs/performance.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.cluster.cgroup import USAGE_HISTORY_SECONDS
from repro.cluster.interference import (InterferenceModel, ProfileTable,
                                        ResourceProfile)
from repro.cluster.platform import Platform
from repro.cluster.task import SchedulingClass, Task, TaskState
from repro.perf.counters import CounterBank

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.scheduler import ClusterScheduler

__all__ = ["Machine", "TickResult"]

#: Allocation order when cores are oversubscribed.
_TIER_ORDER = (
    SchedulingClass.LATENCY_SENSITIVE,
    SchedulingClass.BATCH,
    SchedulingClass.BEST_EFFORT,
)


@dataclass(frozen=True)
class DutyCycleState:
    """An active hardware duty-cycle modulation (paper Section 8).

    Duty-cycle modulation gates cores, not cgroups: the target task's cores
    run at ``level`` duty, and because cores are time-shared (and
    hyper-thread siblings are forced to the same level), every co-resident
    task loses a share of its CPU proportional to how many of the machine's
    cores are affected.  "It is Intel-specific and operates on a per-core
    basis ... so we chose not to use it."
    """

    target_task: str
    level: float        # duty fraction the target's cores run at (0..1)
    core_share: float   # fraction of the machine's cores affected
    expires_at: int

    def active_at(self, t: int) -> bool:
        return t < self.expires_at


@dataclass
class TickResult:
    """What happened on a machine during one simulated second."""

    t: int
    #: CPU actually granted per task name (CPU-sec/sec).
    grants: dict[str, float] = field(default_factory=dict)
    #: Effective CPI experienced per task name (after noise).
    cpis: dict[str, float] = field(default_factory=dict)
    #: Tasks that left the machine this tick, with their departure state.
    departures: list[tuple[Task, TaskState]] = field(default_factory=list)


class _TaskTable:
    """The tick's stable task-index table.

    One instance per resident-task-set; rebuilt whenever placement changes
    (:meth:`Machine.place` / :meth:`Machine.remove` invalidate it).  Rows are
    in task-name-sorted order — the same order the scalar reference iterates
    and draws noise in, which is what makes the bulk RNG draw bit-compatible.

    Besides the identity columns it holds everything per-tick work would
    otherwise look up per task: prebound workload methods, cgroup limits,
    the columnized profiles, the shared counter matrix the tick burns into
    (re-pointed into the arena of whichever fleet steps the machine), and
    the shared usage matrix it charges with a single column write.
    """

    __slots__ = ("tasks", "names", "cgroups", "cgroup_names", "workloads",
                 "demand_fns", "on_tick_fns", "base_cpi_fns", "profile_fns",
                 "cpu_limits", "tier_indices", "profiles", "profile_table",
                 "counter_matrix", "usage_matrix",
                 "charged_to")

    def __init__(self, tasks: Sequence[Task], counters: CounterBank):
        self.tasks: tuple[Task, ...] = tuple(tasks)
        self.names: tuple[str, ...] = tuple(t.name for t in tasks)
        self.cgroups = tuple(t.cgroup for t in tasks)
        self.cgroup_names: tuple[str, ...] = tuple(
            cg.name for cg in self.cgroups)
        self.workloads = tuple(t.workload for t in tasks)
        self.demand_fns = tuple(w.cpu_demand for w in self.workloads)
        self.on_tick_fns = tuple(w.on_tick for w in self.workloads)
        self.base_cpi_fns = tuple(w.base_cpi for w in self.workloads)
        self.profile_fns = tuple(w.resource_profile for w in self.workloads)
        self.cpu_limits = tuple(cg.cpu_limit for cg in self.cgroups)
        self.tier_indices: tuple[tuple[int, ...], ...] = tuple(
            tuple(i for i, t in enumerate(tasks)
                  if t.scheduling_class is tier)
            for tier in _TIER_ORDER
        )
        self.counter_matrix = (counters.matrix_view(self.cgroup_names)
                               if tasks else None)
        # Every cgroup's usage ring, as row i of one matrix (rebind_ring):
        # charge writes a tick as one column, and the sampler slices window
        # usage out of it.
        self.usage_matrix = np.zeros((len(tasks), USAGE_HISTORY_SECONDS))
        for cg, row in zip(self.cgroups, self.usage_matrix):
            cg.rebind_ring(row)
        # The last second charged through this table (None before any).
        self.charged_to: Optional[int] = None
        self.refresh_profiles([fn() for fn in self.profile_fns])

    def charge(self, t: int, grants: list[float]) -> None:
        """Record one tick's grants as column ``t % 900`` of the usage matrix.

        A tick that does not follow this table's last charge (its first
        tick, or one after skipped seconds) first opens every cgroup's ring
        at ``t``: skipped seconds are zero-filled, and a replayed second
        raises before anything is written.  The grants need no check here:
        the tick's counter burn has already rejected negative and NaN ones.
        """
        cgroups = self.cgroups
        if t - 1 != self.charged_to:
            for cg in cgroups:
                cg._advance(t)
        self.usage_matrix[:, t % USAGE_HISTORY_SECONDS] = grants
        for cg in cgroups:
            cg._ring_last = t
        self.charged_to = t

    def refresh_profiles(self, profiles: Sequence[ResourceProfile]) -> None:
        """(Re)columnize resource profiles (rare: profiles are static in
        every shipped workload; the identity guard in
        :meth:`FusedFleet.step` keeps dynamic ones correct anyway)."""
        self.profiles: tuple[ResourceProfile, ...] = tuple(profiles)
        self.profile_table = ProfileTable.from_profiles(self.profiles)


class Machine:
    """One machine in the cluster."""

    def __init__(
        self,
        name: str,
        platform: Platform,
        interference: InterferenceModel | None = None,
        rng: np.random.Generator | None = None,
        cpi_noise_sigma: float = 0.03,
    ):
        """Args:
            name: cluster-unique machine name.
            platform: hardware type; fixes clock speed, cores, cache, membw.
            interference: contention model (a default one if omitted).
            rng: random generator for measurement noise (seeded default).
            cpi_noise_sigma: sigma of the multiplicative log-normal noise on
                per-tick CPI, modelling run-to-run microarchitectural jitter.
        """
        if not (math.isfinite(cpi_noise_sigma) and cpi_noise_sigma >= 0):
            raise ValueError(f"cpi_noise_sigma must be finite and >= 0, "
                             f"got {cpi_noise_sigma}")
        self.name = name
        self.platform = platform
        self.interference = interference or InterferenceModel()
        self.rng = rng or np.random.default_rng(0)
        self.cpi_noise_sigma = cpi_noise_sigma
        self.counters = CounterBank()
        self._tasks: dict[str, Task] = {}
        self._table: Optional[_TaskTable] = None
        #: The one-machine fleet :meth:`tick` steps (built on first use).
        self._fleet: Optional[FusedFleet] = None
        self.total_cpu_seconds = 0.0
        self._duty_cycle: Optional[DutyCycleState] = None
        #: The scheduler whose reservation columns hold this machine's row;
        #: told of every resident change (see :meth:`place`/:meth:`remove`).
        self._scheduler: Optional[ClusterScheduler] = None

    # -- placement ------------------------------------------------------------

    def place(self, task: Task) -> None:
        """Install a task on this machine.

        The machine itself accepts any placement — admission control is the
        scheduler's job (and overcommitting batch is deliberate policy).
        """
        if task.name in self._tasks:
            raise ValueError(f"task {task.name} already on machine {self.name}")
        task.mark_running(self.name)
        self._tasks[task.name] = task
        self._table = None
        if self._scheduler is not None:
            self._scheduler._resident_changed(self, task.name)

    def remove(self, task_name: str, state: TaskState,
               reason: Optional[str] = None) -> Task:
        """Remove a task, marking it with its departure state."""
        try:
            task = self._tasks.pop(task_name)
        except KeyError:
            raise KeyError(f"no task {task_name!r} on machine {self.name}") from None
        task.mark_stopped(state, reason)
        self.counters.drop(task.cgroup.name)
        self._table = None
        if self._scheduler is not None:
            self._scheduler._resident_changed(self, task_name)
        return task

    def get_task(self, task_name: str) -> Task:
        """Look up a resident task by name."""
        try:
            return self._tasks[task_name]
        except KeyError:
            raise KeyError(f"no task {task_name!r} on machine {self.name}") from None

    def has_task(self, task_name: str) -> bool:
        """Whether ``task_name`` is resident here."""
        return task_name in self._tasks

    def resident_tasks(self) -> list[Task]:
        """All resident tasks (stable order by name)."""
        return [self._tasks[k] for k in sorted(self._tasks)]

    def resident_cgroup_names(self) -> list[str]:
        """Cgroup names of all resident tasks."""
        return [t.cgroup.name for t in self.resident_tasks()]

    def _task_table(self) -> _TaskTable:
        """The cached task-index table, rebuilt after placement changes."""
        table = self._table
        if table is None:
            table = _TaskTable(self.resident_tasks(), self.counters)
            self._table = table
        return table

    @property
    def num_tasks(self) -> int:
        """Count of resident tasks (Figure 1a's x-axis)."""
        return len(self._tasks)

    def thread_count(self, t: int) -> int:
        """Total threads across resident tasks at time ``t`` (Figure 1b)."""
        return sum(task.workload.thread_count(t) for task in self._tasks.values())

    # -- capacity views (used by the scheduler) --------------------------------

    @property
    def cpu_capacity(self) -> float:
        """Cores available for task execution."""
        return float(self.platform.num_cores)

    def reserved_cpu(self, scheduling_class: SchedulingClass | None = None) -> float:
        """Sum of resident cgroup limits, optionally for one class only."""
        return sum(
            (task.cgroup.cpu_limit for task in self._tasks.values()
             if scheduling_class is None
             or task.scheduling_class is scheduling_class),
            0.0)

    # -- duty-cycle modulation (the Section 8 alternative) ----------------------

    def apply_duty_cycle(self, target_task: str, level: float,
                         core_share: float, now: int,
                         duration: int) -> DutyCycleState:
        """Gate the target's cores to ``level`` duty for ``duration`` seconds.

        Collateral is inherent: every other resident task loses
        ``core_share * (1 - level)`` of its grant while the modulation is in
        force (its threads land on gated cores that often).
        """
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {level}")
        if not 0.0 < core_share <= 1.0:
            raise ValueError(f"core_share must be in (0, 1], got {core_share}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not self.has_task(target_task):
            raise KeyError(f"no task {target_task!r} on machine {self.name}")
        state = DutyCycleState(target_task=target_task, level=level,
                               core_share=core_share,
                               expires_at=now + duration)
        self._duty_cycle = state
        return state

    def clear_duty_cycle(self) -> None:
        """Remove any active duty-cycle modulation."""
        self._duty_cycle = None

    def duty_cycle_at(self, t: int) -> Optional[DutyCycleState]:
        """The modulation in force at ``t``, dropped lazily once expired."""
        if self._duty_cycle is not None and not self._duty_cycle.active_at(t):
            self._duty_cycle = None
        return self._duty_cycle

    # -- the tick --------------------------------------------------------------

    def _tick_inputs(self, t: int, table: _TaskTable
                     ) -> tuple[list[float], list[bool], list[float]]:
        """Tick phases 1-3 on the per-task closures: demand, cgroup
        clipping, tier allocation, duty cycling, plus the base-CPI reads.

        Called by :meth:`FusedFleet.step` for each machine when the fleet
        has no compiled demand program (some workload or cgroup in it is
        beyond :meth:`DemandColumns.compile`).

        Returns:
            ``(grants, capped, base_cpi)`` as plain Python lists in table
            order.  ``capped`` remembers the hard-cap state for phase 6 (it
            cannot change within the tick, so the scalar reference's second
            ``is_capped`` lookup is redundant).
        """
        cgroups = table.cgroups
        cpu_limits = table.cpu_limits
        n = len(cgroups)

        # 1-2. demand, clipped by cgroup limit and any hard-cap.
        allowed = [0.0] * n
        capped = [False] * n
        for i, fn in enumerate(table.demand_fns):
            d = fn(t)
            if not d > 0.0:     # matches max(0.0, d), including d = NaN
                d = 0.0
            limit = cpu_limits[i]
            a = d if d < limit else limit
            cap = cgroups[i].cap_at(t)
            if cap is not None:
                capped[i] = True
                if cap.quota < a:
                    a = cap.quota
            allowed[i] = a

        grants = self._tick_alloc(t, table, allowed, capped)
        base_cpi = [fn() for fn in table.base_cpi_fns]
        if not min(base_cpi) > 0:
            bad = min(base_cpi)
            raise ValueError(f"base_cpi must be positive, got {bad}")
        return grants, capped, base_cpi

    def _tick_alloc(self, t: int, table: _TaskTable, allowed: list[float],
                    capped: list[bool]) -> list[float]:
        """Tick phase 3: tier allocation (pro-rata within a saturated tier)
        and duty cycling — plain Python on purpose.

        Tier membership is a handful of index tuples and the sums must stay
        sequential left-to-right for bit-parity with the scalar reference,
        so numpy would buy nothing here; the compiled demand program and
        the closures share this exact loop.
        """
        n = len(allowed)
        grants = [0.0] * n
        remaining = self.cpu_capacity
        for indices in table.tier_indices:
            if not indices:
                continue
            want = 0.0
            for i in indices:
                want += allowed[i]
            if want <= 0.0:
                continue
            if want <= remaining:
                for i in indices:
                    grants[i] = allowed[i]
                remaining -= want
            else:
                scale = remaining / want
                for i in indices:
                    grants[i] = allowed[i] * scale
                remaining = 0.0
            if remaining <= 0.0:
                break

        duty = self.duty_cycle_at(t)
        if duty is not None:
            factor = max(0.0, 1.0 - duty.core_share * (1.0 - duty.level))
            for i, name in enumerate(table.names):
                grants[i] *= duty.level if name == duty.target_task else factor
        return grants

    def _tick_finish(self, t: int, table: _TaskTable, result: TickResult,
                     grants: list[float], capped: list[bool],
                     batch: bool) -> None:
        """Tick phases 5b-6: cgroup charging and workload tick observations
        (which may trigger departures).

        Called by :meth:`FusedFleet.step` for each machine after the
        physics; mutates ``result.departures`` in place.  ``batch`` says
        every workload uses ``SyntheticWorkload.on_tick`` verbatim, so its
        accounting runs inline here; the fleet then advances the ``_now``
        of the workloads that read it.
        """
        total = self.total_cpu_seconds
        if batch:
            # Every workload uses SyntheticWorkload.on_tick verbatim: plain
            # accounting, never a departure — fold it into the totals loop
            # without the per-task method dispatch.
            for w, grant in zip(table.workloads, grants):
                total += grant
                w.granted_cpu_seconds += grant
        else:
            for grant in grants:
                total += grant
        table.charge(t, grants)
        self.total_cpu_seconds = total

        if batch:
            if True in capped:
                for i, w in enumerate(table.workloads):
                    if capped[i]:
                        w.capped_seconds += 1
            return
        tasks = table.tasks
        for i, fn in enumerate(table.on_tick_fns):
            outcome = fn(t, grants[i], capped[i])
            if outcome is None:
                continue
            task = tasks[i]
            if outcome == "completed":
                state = TaskState.COMPLETED
            elif outcome == "exited":
                state = TaskState.EXITED
            else:
                raise ValueError(
                    f"workload for {task.name} returned unknown outcome {outcome!r}")
            self.remove(task.name, state, reason=f"workload said {outcome}")
            result.departures.append((task, state))

    def tick(self, t: int) -> TickResult:
        """Execute one simulated second; returns grants, CPIs and departures.

        Steps a one-machine :class:`~repro.cluster.fused.FusedFleet`, cached
        until placement changes or another fleet steps this machine.
        """
        if not self._tasks:
            return TickResult(t=t, departures=[])
        fleet = self._fleet
        order = ((self.name, self),)
        if fleet is None or not fleet.matches(order):
            fleet = self._fleet = FusedFleet((self,))
        return fleet.step(t)[self.name]

    def __repr__(self) -> str:
        return (f"Machine({self.name}, {self.platform.name}, "
                f"tasks={self.num_tasks})")


# The tick engine subclasses TickResult and checks Machine.tick, so it
# imports this module: bind it once both classes exist.
from repro.cluster.fused import FusedFleet  # noqa: E402
