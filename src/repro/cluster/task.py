"""Tasks: the unit of placement, accounting and throttling.

In the paper's cluster manager, "both latency-sensitive and batch jobs are
comprised of multiple tasks, each of which is mapped to a Linux process tree
on a machine.  All the threads of a task run inside the same
resource-management container (a cgroup)".  A :class:`Task` here is exactly
that: an instance of a job bound to a machine, owning a cgroup, and driven by
a workload model that says how much CPU it wants and how it behaves under
contention and under hard-capping.

Priority structure follows Section 2: jobs are classified into *production*
and *non-production* bands, and orthogonally into scheduling classes
(latency-sensitive vs. batch, with best-effort as the lowest batch tier).
CPI2's amelioration policy keys off both.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.cluster.cgroup import Cgroup

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.interference import ResourceProfile
    from repro.cluster.job import Job


__all__ = ["SchedulingClass", "PriorityBand", "TaskState", "WorkloadModel", "Task"]


class SchedulingClass(enum.Enum):
    """How the scheduler and CPI2 treat a job's tasks.

    LATENCY_SENSITIVE tasks are provisioned for peak and protected by CPI2.
    BATCH tasks fill spare capacity and may be throttled to 0.1 CPU-sec/sec.
    BEST_EFFORT is the lowest batch tier; the paper throttles these harder
    (0.01 CPU-sec/sec).
    """

    LATENCY_SENSITIVE = "latency-sensitive"
    BATCH = "batch"
    BEST_EFFORT = "best-effort"

    @property
    def is_batch(self) -> bool:
        """True for both batch tiers (throttle-eligible by default policy)."""
        return self in (SchedulingClass.BATCH, SchedulingClass.BEST_EFFORT)


class PriorityBand(enum.Enum):
    """The paper's two priority bands (Section 7.2)."""

    PRODUCTION = "production"
    NONPRODUCTION = "non-production"


class TaskState(enum.Enum):
    """Task lifecycle."""

    PENDING = "pending"       # created, not yet placed
    RUNNING = "running"       # placed on a machine and executing
    COMPLETED = "completed"   # finished its work normally
    EXITED = "exited"         # self-terminated (e.g. gave up under capping)
    KILLED = "killed"         # killed by operator/policy (migration)
    PREEMPTED = "preempted"   # evicted by the scheduler


@runtime_checkable
class WorkloadModel(Protocol):
    """What a task's workload must provide to the simulator.

    Implementations live in :mod:`repro.workloads`; the cluster substrate only
    depends on this protocol so the dependency arrow points one way.
    """

    def cpu_demand(self, t: int) -> float:
        """Desired CPU usage (CPU-sec/sec) at simulation time ``t`` seconds."""
        ...

    def base_cpi(self) -> float:
        """Contention-free CPI of this workload on the reference platform."""
        ...

    def resource_profile(self) -> "ResourceProfile":
        """Shared-resource pressure exerted and sensitivity experienced.

        Read once per placement, when the machine's task table is built: a
        profile that changes afterwards is seen only once a ``place`` or
        ``remove`` on that machine rebuilds the table.
        """
        ...

    def thread_count(self, t: int) -> int:
        """Threads alive at time ``t`` (Figure 1b, case 5's lame-duck mode)."""
        ...

    def on_tick(self, t: int, granted_usage: float, capped: bool) -> Optional[str]:
        """Observe one second of execution.

        Args:
            t: simulation time in seconds.
            granted_usage: CPU actually received this second (CPU-sec/sec).
            capped: whether a hard-cap was active on the task's cgroup.

        Returns:
            ``None`` to keep running, or one of ``"completed"`` / ``"exited"``
            to leave the machine (case 6's MapReduce worker returns
            ``"exited"`` when it gives up under repeated capping).
        """
        ...


class Task:
    """One task of a job, bound to (at most) one machine at a time.

    The task owns its cgroup: CPU accounting and hard-capping both go through
    it, mirroring how CPI2's agent actuates CFS bandwidth control on the
    task's container.
    """

    def __init__(
        self,
        job: "Job",
        index: int,
        workload: WorkloadModel,
        cpu_limit: float,
    ):
        """Args:
            job: owning job (gives name, class, band).
            index: task index within the job (0-based).
            workload: behaviour model driving demand and contention.
            cpu_limit: the cgroup CPU reservation/limit in CPU-sec/sec.
        """
        if index < 0:
            raise ValueError(f"task index must be >= 0, got {index}")
        self.job = job
        self.index = index
        self.workload = workload
        self.state = TaskState.PENDING
        self.machine_name: Optional[str] = None
        self.cgroup = Cgroup(name=f"{job.name}/{index}", cpu_limit=cpu_limit)
        #: Set while the task is the subject of an exit/kill this tick.
        self.exit_reason: Optional[str] = None
        # Job names are fixed at submission, so the task name never changes;
        # computing it once keeps it off the per-tick hot path (it is read
        # several times per task per simulated second).
        self._name = f"{job.name}/{index}"

    # -- identity -----------------------------------------------------------

    @property
    def name(self) -> str:
        """Cluster-unique task name, ``<jobname>/<index>``."""
        return self._name

    @property
    def scheduling_class(self) -> SchedulingClass:
        """Scheduling class inherited from the owning job."""
        return self.job.scheduling_class

    @property
    def priority_band(self) -> PriorityBand:
        """Priority band inherited from the owning job."""
        return self.job.priority_band

    @property
    def is_latency_sensitive(self) -> bool:
        """Convenience: LS tasks are CPI2 protection-eligible by default."""
        return self.scheduling_class is SchedulingClass.LATENCY_SENSITIVE

    # -- lifecycle ----------------------------------------------------------

    def mark_running(self, machine_name: str) -> None:
        """Record placement on a machine."""
        if self.state not in (TaskState.PENDING, TaskState.PREEMPTED,
                              TaskState.KILLED, TaskState.EXITED):
            raise ValueError(f"cannot place task in state {self.state}")
        self.state = TaskState.RUNNING
        self.machine_name = machine_name

    def mark_stopped(self, state: TaskState, reason: Optional[str] = None) -> None:
        """Record departure from its machine with a terminal/evicted state."""
        if state is TaskState.RUNNING or state is TaskState.PENDING:
            raise ValueError(f"{state} is not a stopped state")
        self.state = state
        self.machine_name = None
        self.exit_reason = reason

    def __repr__(self) -> str:
        return (f"Task({self.name}, {self.scheduling_class.value}, "
                f"{self.state.value}, machine={self.machine_name})")
