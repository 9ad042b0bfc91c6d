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
table (rebuilt only when placement changes), duty-cycle state, and the
workloads' observations (phase 6).  Everything else has one
implementation, :class:`~repro.cluster.fused.FusedFleet`, over the arena
of every machine it steps: the demand program of phases 1-2 (compiled
:class:`~repro.cluster.demandplane.DemandColumns`, or the rows' own
closures when some workload or cgroup does not compile), the tier
allocation and duty cycling of phase 3, the contention, CPI, noise and
counter physics of phases 4-5, and the usage charge.
:meth:`Machine.tick` steps a one-machine fleet a second at a time,
:meth:`Machine.advance` the same fleet a block of seconds at a time where
it takes one, the simulation one fleet over all its machines.

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

from repro.cluster.cgroup import UsageHistory
from repro.cluster.interference import InterferenceModel, ProfileTable
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
    the resource profiles (read once, here: a profile change after
    placement is seen only once a ``place`` or ``remove`` rebuilds the
    table), the shared counter matrix the tick burns into (re-pointed into
    the arena of whichever fleet steps the machine), and the usage history
    (:class:`~repro.cluster.cgroup.UsageHistory`) whose row ``i`` is
    cgroup ``i``'s, on one clock: a fleet charges a second as one column,
    and the sampler and the ranking read every row at once.
    """

    __slots__ = ("tasks", "names", "cgroups", "cgroup_names", "workloads",
                 "on_tick_fns", "cpu_limits", "tier_indices", "profile_table",
                 "counter_matrix", "usage")

    def __init__(self, tasks: Sequence[Task], counters: CounterBank):
        self.tasks: tuple[Task, ...] = tuple(tasks)
        self.names: tuple[str, ...] = tuple(t.name for t in tasks)
        self.cgroups = tuple(t.cgroup for t in tasks)
        self.cgroup_names: tuple[str, ...] = tuple(
            cg.name for cg in self.cgroups)
        self.workloads = tuple(t.workload for t in tasks)
        self.on_tick_fns = tuple(w.on_tick for w in self.workloads)
        self.profile_table = ProfileTable.from_profiles(
            [w.resource_profile() for w in self.workloads])
        self.cpu_limits = tuple(cg.cpu_limit for cg in self.cgroups)
        self.tier_indices: tuple[tuple[int, ...], ...] = tuple(
            tuple(i for i, t in enumerate(tasks)
                  if t.scheduling_class is tier)
            for tier in _TIER_ORDER
        )
        self.counter_matrix = (counters.matrix_view(self.cgroup_names)
                               if tasks else None)
        # Every cgroup's usage history, copied into row i of one history
        # on the latest of their clocks.
        self.usage = UsageHistory.of_rows(
            [(cg.usage, cg.usage_row) for cg in self.cgroups])
        for row, cg in enumerate(self.cgroups):
            cg.usage, cg.usage_row = self.usage, row


class Machine:
    """One machine in the cluster."""

    #: Class-wide duty-cycle epoch.  Every :meth:`apply_duty_cycle` /
    #: :meth:`clear_duty_cycle` anywhere bumps it, so a fleet re-lists the
    #: machines that carry a modulation only when it moves (as
    #: :attr:`Cgroup._cap_mutations` does for caps).  The lazy expiry drop
    #: in :meth:`duty_cycle_at` does not bump it: an expired modulation and
    #: none are indistinguishable through ``t < expires_at``.
    _duty_mutations = 0

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
        #: Where this machine's buffered noise draws live:
        #: ``(fleet, offset, n, extra)`` — the rows of ``fleet``'s noise
        #: block it has not reached (none when ``fleet`` is ``None``), then
        #: ``extra`` — or ``None``.
        self._noise_src: Optional[tuple] = None
        self.rng = rng or np.random.default_rng(0)
        self.cpi_noise_sigma = cpi_noise_sigma
        self.counters = CounterBank()
        self._tasks: dict[str, Task] = {}
        self._table: Optional[_TaskTable] = None
        #: The one-machine fleet :meth:`tick` steps (built on first use).
        self._fleet: Optional[FusedFleet] = None
        self._duty_cycle: Optional[DutyCycleState] = None
        #: The scheduler whose reservation columns hold this machine's row;
        #: told of every resident change (see :meth:`place`/:meth:`remove`).
        self._scheduler: Optional[ClusterScheduler] = None

    @property
    def rng(self) -> np.random.Generator:
        """The generator of this machine's CPI measurement noise."""
        return self._rng

    @rng.setter
    def rng(self, rng: np.random.Generator) -> None:
        # Draws buffered from the old generator are dropped, and the fleet
        # holding them (none for a copied-out carry) is retired so none of
        # them is used.
        self._rng = rng
        src = self._noise_src
        if src is not None:
            self._noise_src = None
            if src[0] is not None:
                src[0].valid = False

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
        task.cgroup.leave_table()
        if getattr(task.workload, "_granted_column", None) is not None:
            task.workload._unbind_granted()
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
        Machine._duty_mutations += 1
        return state

    def clear_duty_cycle(self) -> None:
        """Remove any active duty-cycle modulation."""
        self._duty_cycle = None
        Machine._duty_mutations += 1

    def duty_cycle_at(self, t: int) -> Optional[DutyCycleState]:
        """The modulation in force at ``t``, dropped lazily once expired."""
        if self._duty_cycle is not None and not self._duty_cycle.active_at(t):
            self._duty_cycle = None
        return self._duty_cycle

    # -- the tick --------------------------------------------------------------

    def _observe(self, t: int, table: _TaskTable, grants: list[float],
                 capped: list[bool]) -> list[tuple[Task, TaskState]]:
        """Tick phase 6: every workload's ``on_tick``, in table order;
        returns the departures they asked for."""
        departures: list[tuple[Task, TaskState]] = []
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
            departures.append((task, state))
        return departures

    def _own_fleet(self) -> FusedFleet:
        """The one-machine fleet :meth:`tick` and :meth:`advance` step,
        rebuilt when placement changes or another fleet stepped this
        machine."""
        fleet = self._fleet
        if fleet is None or not fleet.matches(((self.name, self),)):
            fleet = self._fleet = FusedFleet((self,))
        return fleet

    def tick(self, t: int) -> TickResult:
        """Execute one simulated second; returns grants, CPIs and departures.

        Steps a one-machine :class:`~repro.cluster.fused.FusedFleet`, cached
        until placement changes or another fleet steps this machine.
        """
        if not self._tasks:
            return TickResult(t=t, departures=[])
        return self._own_fleet().step(t)[self.name]

    def advance(self, t0: int, t1: int) -> list[list[float]]:
        """Execute seconds ``t0 .. t1-1``, exactly as :meth:`tick` at each.

        Returns each second's grants in table order (the values of
        :attr:`TickResult.grants`; none for a second with no resident
        task).  The seconds run on the machine's own fleet, as blocks
        (:meth:`FusedFleet.block`) where the fleet takes them and one
        :meth:`FusedFleet.step` at any other second; counters, usage and
        grant totals are committed when each returns.  It never calls
        :meth:`tick`, so a ``tick`` patched on the instance or overridden
        by a subclass does not apply here.
        """
        rows: list[list[float]] = []
        t = t0
        while t < t1:
            if not self._tasks:
                rows += [[] for _ in range(t1 - t)]
                break
            fleet = self._own_fleet()
            end = fleet.block(t, t1)
            if end == t:
                fleet.step(t)
                end = t + 1
            rows += fleet.grants[:end - t].tolist()
            t = end
        return rows

    def release(self) -> None:
        """Let go of this machine's fleet and task table.

        A fleet and its machine refer to each other, and a task table's
        cgroups hold its usage history; this breaks the cycle and copies
        every row out (:meth:`~repro.cluster.cgroup.Cgroup.leave_table`),
        so that once the caller drops the machine, reference counting
        frees the fleet (its counter arena, noise and block buffers) and
        the table's history, however long its tasks' jobs live, without
        waiting for the cyclic collector.  The machine stays usable: its
        next step builds both again, continuing its buffered noise draws,
        usage history and grant totals.
        """
        self._fleet = None
        src = self._noise_src
        if src is not None and src[0] is not None:
            self._noise_src = (None, 0, 0, _leftover(src))
        table = self._table
        if table is not None:
            for cg, w in zip(table.cgroups, table.workloads):
                if cg.usage is table.usage:
                    cg.leave_table()
                if getattr(w, "_granted_column", None) is not None:
                    w._unbind_granted()
            self._table = None

    def __repr__(self) -> str:
        return (f"Machine({self.name}, {self.platform.name}, "
                f"tasks={self.num_tasks})")


# The tick engine subclasses TickResult and checks Machine.tick, so it
# imports this module: bind it once both classes exist.
from repro.cluster.fused import FusedFleet, _leftover  # noqa: E402
