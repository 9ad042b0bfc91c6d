"""Central cluster scheduler and admission controller.

Per Section 2: "Each of our clusters runs a central scheduler and admission
controller that ensures that resources are not oversubscribed among the
latency-sensitive jobs, although it speculatively over-commits resources
allocated to batch ones. ... If the scheduler guesses wrong, it may need to
preempt a batch task and move it to another machine."

The scheduler here implements exactly that contract:

* latency-sensitive reservations are never oversubscribed on a machine;
* batch and best-effort reservations may overcommit a machine up to a
  configurable factor (statistical multiplexing);
* a latency-sensitive placement that fits nowhere may preempt batch tasks;
* anti-affinity constraints ("do not co-locate job A with its known
  antagonist job B") are honoured — the hook CPI2's forensics store feeds
  (Sections 5 and 9).

Placement scoring is worst-fit (most free reservation first), which spreads
load and matches the paper's observation that machines run many tasks each.

The scheduler keeps three fleet-wide float64 columns, one row per machine:
capacity, reserved CPU and latency-sensitive reserved CPU.  Admission is one
numpy mask per task and worst-fit a stable descending sort of the survivors'
free reservation.  A machine's row is recomputed from its residents (the
same left-to-right sum as :meth:`Machine.reserved_cpu`) every time
:meth:`Machine.place` or :meth:`Machine.remove` changes them, so departures
the scheduler did not make (completions, kills) are seen too.  That is why a
machine has exactly one owning scheduler.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.cluster.job import Job
from repro.cluster.machine import Machine
from repro.cluster.task import SchedulingClass, Task, TaskState

__all__ = ["PlacementError", "ClusterScheduler"]


class PlacementError(RuntimeError):
    """Raised when a task cannot be placed anywhere, even with preemption."""


class ClusterScheduler:
    """Places job tasks onto machines; the cluster's admission controller."""

    def __init__(
        self,
        machines: Iterable[Machine],
        batch_overcommit: float = 1.5,
        best_effort_overcommit: float = 2.5,
        rng: np.random.Generator | None = None,
    ):
        """Args:
            machines: the machines under management.  A machine may belong
                to one scheduler only.
            batch_overcommit: total reservations (all classes) on a machine
                may reach this multiple of capacity when placing batch work.
            best_effort_overcommit: ditto for best-effort work (higher: these
                are the first to be squeezed, so speculation is cheaper).
            rng: tie-breaking randomness source (seeded default).

        Raises:
            ValueError: on no machines, duplicate names, bad overcommit
                factors, or a machine another scheduler already manages.
        """
        self.machines: dict[str, Machine] = {}
        for machine in machines:
            if machine.name in self.machines:
                raise ValueError(f"duplicate machine name {machine.name!r}")
            if machine._scheduler is not None:
                raise ValueError(
                    f"machine {machine.name!r} is already managed by another "
                    "ClusterScheduler")
            self.machines[machine.name] = machine
        if not self.machines:
            raise ValueError("scheduler needs at least one machine")
        if batch_overcommit < 1.0:
            raise ValueError(f"batch_overcommit must be >= 1, got {batch_overcommit}")
        if best_effort_overcommit < batch_overcommit:
            raise ValueError("best_effort_overcommit must be >= batch_overcommit")
        self.batch_overcommit = batch_overcommit
        self.best_effort_overcommit = best_effort_overcommit
        self.rng = rng or np.random.default_rng(0)
        self.jobs: dict[str, Job] = {}
        #: Pairs of job names that must not share a machine.
        self._anti_affinity: set[frozenset[str]] = set()
        self.preemption_count = 0
        # The reservation columns: one row per machine, in insertion order.
        self._fleet: tuple[Machine, ...] = tuple(self.machines.values())
        self._rows = {m.name: row for row, m in enumerate(self._fleet)}
        self._capacity = np.array([m.cpu_capacity for m in self._fleet])
        self._reserved = np.zeros(len(self._fleet))
        self._ls_reserved = np.zeros(len(self._fleet))
        #: Rows of the machines hosting a task of each resident task name.
        self._hosts: dict[str, set[int]] = {}
        for machine in self._fleet:
            machine._scheduler = self
            for task in machine.resident_tasks():
                self._resident_changed(machine, task.name)

    def _resident_changed(self, machine: Machine, task_name: str) -> None:
        """Recompute ``machine``'s row after ``task_name`` arrived or left.

        :meth:`Machine.place` and :meth:`Machine.remove` call this.  The row
        is re-summed, never adjusted with ``+=``/``-=``: float addition does
        not undo exactly, and admission compares these sums directly.
        """
        row = self._rows[machine.name]
        self._reserved[row] = machine.reserved_cpu()
        self._ls_reserved[row] = machine.reserved_cpu(
            SchedulingClass.LATENCY_SENSITIVE)
        if machine.has_task(task_name):
            self._hosts.setdefault(task_name, set()).add(row)
        else:
            hosts = self._hosts[task_name]
            hosts.discard(row)
            if not hosts:
                del self._hosts[task_name]

    # -- anti-affinity (fed by CPI2 forensics) ---------------------------------

    def avoid_colocation(self, job_a: str, job_b: str) -> None:
        """Never place tasks of ``job_a`` and ``job_b`` on the same machine."""
        if job_a == job_b:
            raise ValueError("cannot anti-affinitise a job with itself")
        self._anti_affinity.add(frozenset((job_a, job_b)))

    def colocation_allowed(self, machine: Machine, jobname: str) -> bool:
        """Whether ``jobname`` may land on ``machine`` given anti-affinity rules."""
        resident_jobs = {task.job.name for task in machine.resident_tasks()}
        return not any(
            frozenset((jobname, other)) in self._anti_affinity
            for other in resident_jobs
        )

    # -- admission -------------------------------------------------------------

    def _overcommit_limit(self, scheduling_class: SchedulingClass) -> float:
        if scheduling_class is SchedulingClass.LATENCY_SENSITIVE:
            return 1.0
        if scheduling_class is SchedulingClass.BATCH:
            return self.batch_overcommit
        return self.best_effort_overcommit

    def _admissible(self, task: Task,
                    exclude: Optional[set[str]] = None) -> np.ndarray:
        """Row mask of the machines that may take ``task`` right now."""
        need = task.cgroup.cpu_limit
        capacity = self._capacity
        if task.scheduling_class is SchedulingClass.LATENCY_SENSITIVE:
            # LS reservations are never oversubscribed among themselves, and
            # an LS arrival may not push total reservations past the machine's
            # overcommit ceiling without preempting batch work first.
            fits = ~(self._ls_reserved + need > capacity)
            fits &= self._reserved + need <= capacity * self.batch_overcommit
        else:
            limit = self._overcommit_limit(task.scheduling_class)
            fits = self._reserved + need <= capacity * limit
        for row in self._hosts.get(task.name, ()):
            fits[row] = False
        if exclude:
            for name in exclude:
                row = self._rows.get(name)
                if row is not None:
                    fits[row] = False
        if self._anti_affinity:
            for row in np.flatnonzero(fits):
                if not self.colocation_allowed(self._fleet[row], task.job.name):
                    fits[row] = False
        return fits

    # -- placement ---------------------------------------------------------------

    def place_task(self, task: Task,
                   exclude_machines: Optional[set[str]] = None) -> Machine:
        """Place one task, preempting batch work for latency-sensitive tasks.

        Returns the machine chosen.

        Raises:
            PlacementError: if no machine can take the task.
        """
        rows = np.flatnonzero(self._admissible(task, exclude_machines))
        if rows.size:
            # Worst-fit: most free reservation first.  Randomise among the
            # near-best to avoid herding every placement onto one machine
            # when scores tie; the band is ordered by descending score, ties
            # by machine order, as a stable sort of all survivors would be.
            free = self._capacity[rows] - self._reserved[rows]
            band = free >= free.max() - 1e-9
            near_best = rows[band][np.argsort(-free[band], kind="stable")]
            pick = int(self.rng.integers(len(near_best)))
            machine = self._fleet[near_best[pick]]
            machine.place(task)
            return machine
        if task.scheduling_class is SchedulingClass.LATENCY_SENSITIVE:
            machine = self._preempt_for(task, exclude_machines)
            if machine is not None:
                machine.place(task)
                return machine
        raise PlacementError(
            f"no machine can host {task.name} "
            f"({task.scheduling_class.value}, limit={task.cgroup.cpu_limit})")

    def _preempt_for(self, task: Task,
                     exclude: Optional[set[str]] = None) -> Optional[Machine]:
        """Evict batch work from some machine to make room for an LS task.

        Chooses the machine where the fewest batch reservations must move.
        Preempted tasks go back to pending; callers re-place them via
        :meth:`reschedule_pending`.
        """
        need = task.cgroup.cpu_limit
        best_machine: Optional[Machine] = None
        best_victims: list[Task] = []
        for row, machine in enumerate(self._fleet):
            if exclude is not None and machine.name in exclude:
                continue
            if not self.colocation_allowed(machine, task.job.name):
                continue
            capacity = machine.cpu_capacity
            if float(self._ls_reserved[row]) + need > capacity:
                continue  # preemption cannot create LS headroom
            batch_tasks = sorted(
                (t for t in machine.resident_tasks() if t.scheduling_class.is_batch),
                key=lambda t: (t.scheduling_class is SchedulingClass.BATCH,
                               t.cgroup.cpu_limit),
            )  # best-effort first, then small batch
            overshoot = (float(self._reserved[row]) + need
                         - capacity * self.batch_overcommit)
            victims: list[Task] = []
            freed = 0.0
            for victim in batch_tasks:
                if freed >= overshoot:
                    break
                victims.append(victim)
                freed += victim.cgroup.cpu_limit
            if freed < overshoot:
                continue
            if best_machine is None or len(victims) < len(best_victims):
                best_machine, best_victims = machine, victims
        if best_machine is None:
            return None
        for victim in best_victims:
            best_machine.remove(victim.name, TaskState.PREEMPTED,
                                reason=f"preempted for {task.name}")
            self.preemption_count += 1
        return best_machine

    def submit(self, job: Job) -> None:
        """Register a job and place its tasks.

        Latency-sensitive tasks must all fit (they are provisioned for peak),
        so an unplaceable LS task raises :class:`PlacementError`.  Batch and
        best-effort tasks that fit nowhere right now simply stay pending —
        overcommitted clusters make batch work wait; that is the point.
        """
        if job.name in self.jobs:
            raise ValueError(f"job {job.name!r} already submitted")
        self.jobs[job.name] = job
        for task in job.pending_tasks():
            try:
                self.place_task(task)
            except PlacementError:
                if task.scheduling_class is SchedulingClass.LATENCY_SENSITIVE:
                    raise

    def reschedule_pending(self) -> int:
        """Re-place every preempted/pending task of every known job.

        Returns the number of tasks placed.  Tasks that still fit nowhere stay
        pending (batch work waits; that is the point of overcommit).
        """
        placed = 0
        for job in self.jobs.values():
            for task in job.pending_tasks():
                try:
                    self.place_task(task)
                    placed += 1
                except PlacementError:
                    continue
        return placed

    def migrate_task(self, task: Task) -> Machine:
        """Kill-and-restart a task on a different machine.

        This is the paper's "version of task migration": the task loses its
        state (it would recompute from a checkpoint) and restarts elsewhere.

        Raises:
            PlacementError: if no other machine can take it; in that case the
                task is left where it was.
        """
        if task.machine_name is None:
            raise ValueError(f"task {task.name} is not placed")
        origin = self.machines[task.machine_name]
        origin.remove(task.name, TaskState.KILLED, reason="migrated")
        try:
            return self.place_task(task, exclude_machines={origin.name})
        except PlacementError:
            # Nowhere else can take it (even with preemption); put it back
            # where it was rather than stranding it.
            origin.place(task)
            raise

    # -- fleet views -------------------------------------------------------------

    def utilization(self) -> dict[str, float]:
        """Reserved-over-capacity fraction per machine."""
        return {
            name: machine.reserved_cpu() / machine.cpu_capacity
            for name, machine in self.machines.items()
        }

    def tasks_per_machine(self) -> list[int]:
        """Resident task counts across the fleet (Figure 1a's sample)."""
        return [m.num_tasks for m in self.machines.values()]
