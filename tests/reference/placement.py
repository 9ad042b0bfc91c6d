"""Reference placement: the per-machine admission scan.

This is how :class:`repro.cluster.scheduler.ClusterScheduler` placed tasks
before it kept fleet-wide reservation columns.  Every placement re-sums
every machine's residents (``Machine.reserved_cpu``), keeps the machines
that pass admission, sorts them worst-fit with Python's stable sort, and
draws one index among those within ``1e-9`` of the best score.
:class:`ReferenceScheduler` swaps that scan back in for ``place_task`` and
``_preempt_for``; submission, rescheduling and migration are inherited, so
they call the reference placement.
"""

from typing import Optional

from repro.cluster.machine import Machine
from repro.cluster.scheduler import ClusterScheduler, PlacementError
from repro.cluster.task import SchedulingClass, Task, TaskState


class ReferenceScheduler(ClusterScheduler):
    def _fits(self, machine: Machine, task: Task) -> bool:
        """Admission test for one task on one machine."""
        if machine.has_task(task.name):
            return False
        if not self.colocation_allowed(machine, task.job.name):
            return False
        need = task.cgroup.cpu_limit
        if task.scheduling_class is SchedulingClass.LATENCY_SENSITIVE:
            # LS reservations are never oversubscribed among themselves, and
            # an LS arrival may not push total reservations past the machine's
            # overcommit ceiling without preempting batch work first.
            ls_reserved = machine.reserved_cpu(SchedulingClass.LATENCY_SENSITIVE)
            if ls_reserved + need > machine.cpu_capacity:
                return False
            return (machine.reserved_cpu() + need
                    <= machine.cpu_capacity * self.batch_overcommit)
        limit = self._overcommit_limit(task.scheduling_class)
        return machine.reserved_cpu() + need <= machine.cpu_capacity * limit

    def _score(self, machine: Machine) -> float:
        """Worst-fit score: prefer machines with the most free reservation."""
        return machine.cpu_capacity - machine.reserved_cpu()

    def _candidates(self, task: Task,
                    exclude: Optional[set[str]] = None) -> list[Machine]:
        machines = [
            m for m in self.machines.values()
            if (exclude is None or m.name not in exclude) and self._fits(m, task)
        ]
        machines.sort(key=self._score, reverse=True)
        return machines

    def place_task(self, task: Task,
                   exclude_machines: Optional[set[str]] = None) -> Machine:
        candidates = self._candidates(task, exclude_machines)
        if candidates:
            # Randomise among the near-best to avoid herding every placement
            # onto one machine when scores tie.
            best_score = self._score(candidates[0])
            near_best = [m for m in candidates
                         if self._score(m) >= best_score - 1e-9]
            machine = near_best[int(self.rng.integers(len(near_best)))]
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
        need = task.cgroup.cpu_limit
        best_machine: Optional[Machine] = None
        best_victims: list[Task] = []
        for machine in self.machines.values():
            if exclude is not None and machine.name in exclude:
                continue
            if not self.colocation_allowed(machine, task.job.name):
                continue
            ls_reserved = machine.reserved_cpu(SchedulingClass.LATENCY_SENSITIVE)
            if ls_reserved + need > machine.cpu_capacity:
                continue  # preemption cannot create LS headroom
            batch_tasks = sorted(
                (t for t in machine.resident_tasks() if t.scheduling_class.is_batch),
                key=lambda t: (t.scheduling_class is SchedulingClass.BATCH,
                               t.cgroup.cpu_limit),
            )  # best-effort first, then small batch
            overshoot = (machine.reserved_cpu() + need
                         - machine.cpu_capacity * self.batch_overcommit)
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
