"""Batch workloads: throughput jobs, MapReduce workers, lame-duck behaviour.

The paper's batch tier supplies both the antagonists and two specific
behaviours its case studies document:

* **Case 5 (lame-duck mode):** "During normal execution, it has about 8
  active threads.  When it is hard-capped, the number of threads rapidly
  grows to around 80 [offloading work to others].  After the hard-capping
  stops, the thread count drops to 2 (a self-induced 'lame-duck mode') for
  tens of minutes before reverting to its normal 8 threads."
* **Case 6 (give-up-and-exit):** a MapReduce worker "survived the first
  hard-capping ... but during the second one it either quit or was terminated
  by the MapReduce master", preferring rescheduling over crawling.

Plus the Figure 2 substrate: a batch job whose measured transactions/second
tracks instructions/second with r ≈ 0.97.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.cluster.interference import ResourceProfile
from repro.cluster.job import Job, JobSpec
from repro.cluster.task import PriorityBand, SchedulingClass, Task
from repro.workloads.base import SyntheticWorkload, TransactionCounter
from repro.workloads.demand import DemandFn, constant, noise_stream, with_noise

__all__ = [
    "BatchWorkload",
    "LameDuckBehavior",
    "MapReduceWorker",
    "MapReduceCoordinator",
    "make_batch_job_spec",
    "make_mapreduce_job_spec",
]

#: Default shared-resource profile for a generic throughput batch task.
#: Deliberately moderate: ordinary batch work co-exists with services most
#: of the time (the paper: "severe resource interference between tasks is
#: relatively rare"); the heavy-pressure profiles live in
#: :mod:`repro.workloads.antagonists`.
_BATCH_PROFILE = ResourceProfile(
    cache_mib_per_cpu=1.2, membw_gbps_per_cpu=0.7,
    cache_sensitivity=0.5, membw_sensitivity=0.4, base_l3_mpki=2.5)


class BatchWorkload(SyntheticWorkload):
    """A throughput-oriented batch task with a transaction counter."""

    def __init__(
        self,
        rng: np.random.Generator,
        demand: DemandFn | None = None,
        base_cpi: float = 1.2,
        profile: ResourceProfile = _BATCH_PROFILE,
        instructions_per_transaction: float = 2.0e7,
        threads: int = 8,
    ):
        demand = demand or with_noise(constant(1.0), 0.08, rng)
        super().__init__(
            base_cpi=base_cpi,
            profile=profile,
            demand=demand,
            threads=threads,
        )
        # Through the demand's stream when both draw ``rng``: one cursor
        # per generator, and no reference that would make it look shared.
        self.transactions = TransactionCounter(
            instructions_per_transaction, noise_stream(rng, demand))

    def transactions_for(self, instructions: float) -> float:
        """Application transactions completed by ``instructions`` instructions."""
        return self.transactions.transactions_for(instructions)


class _LameDuckState(enum.Enum):
    NORMAL = "normal"
    CAPPED = "capped"
    LAME_DUCK = "lame-duck"


class LameDuckBehavior:
    """Case 5's thread-count dynamics as a small state machine."""

    def __init__(self, normal_threads: int = 8, capped_threads: int = 80,
                 lameduck_threads: int = 2, lameduck_duration: int = 1800):
        """Args:
            normal_threads: steady-state worker threads.
            capped_threads: threads spawned while capped, to offload work.
            lameduck_threads: threads kept during post-cap lame-duck mode.
            lameduck_duration: seconds of lame-duck mode after a cap lifts.
        """
        for name, value in (("normal_threads", normal_threads),
                            ("capped_threads", capped_threads),
                            ("lameduck_threads", lameduck_threads)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if lameduck_duration < 0:
            raise ValueError(
                f"lameduck_duration must be >= 0, got {lameduck_duration}")
        self.normal_threads = normal_threads
        self.capped_threads = capped_threads
        self.lameduck_threads = lameduck_threads
        self.lameduck_duration = lameduck_duration
        self._state = _LameDuckState.NORMAL
        self._lameduck_until = -1

    def observe(self, t: int, capped: bool) -> None:
        """Advance the state machine for second ``t``."""
        if capped:
            self._state = _LameDuckState.CAPPED
        elif self._state is _LameDuckState.CAPPED:
            self._state = _LameDuckState.LAME_DUCK
            self._lameduck_until = t + self.lameduck_duration
        elif (self._state is _LameDuckState.LAME_DUCK
              and t >= self._lameduck_until):
            self._state = _LameDuckState.NORMAL

    def thread_count(self) -> int:
        """Threads alive in the current state."""
        if self._state is _LameDuckState.CAPPED:
            return self.capped_threads
        if self._state is _LameDuckState.LAME_DUCK:
            return self.lameduck_threads
        return self.normal_threads

    @property
    def state_name(self) -> str:
        """Current state, for logging and tests."""
        return self._state.value


class MapReduceWorker(BatchWorkload):
    """A MapReduce worker: lame-duck under capping, exits if capped too often.

    The worker tolerates ``give_up_episode - 1`` complete capping episodes;
    ``exit_delay`` seconds into episode number ``give_up_episode`` it exits
    (returns ``"exited"`` from :meth:`on_tick`), modelling case 6.  A worker
    also completes normally once it has burned ``work_cpu_seconds``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        demand: DemandFn | None = None,
        work_cpu_seconds: float = float("inf"),
        give_up_episode: int = 2,
        exit_delay: int = 120,
        lame_duck: LameDuckBehavior | None = None,
        **kwargs,
    ):
        super().__init__(rng=rng, demand=demand, **kwargs)
        if give_up_episode < 1:
            raise ValueError(f"give_up_episode must be >= 1, got {give_up_episode}")
        if exit_delay < 0:
            raise ValueError(f"exit_delay must be >= 0, got {exit_delay}")
        self.work_cpu_seconds = work_cpu_seconds
        self.give_up_episode = give_up_episode
        self.exit_delay = exit_delay
        self.lame_duck = lame_duck or LameDuckBehavior()
        self._was_capped = False
        self.cap_episodes = 0
        self._episode_capped_seconds = 0

    def thread_count(self, t: int) -> int:
        """Thread count follows the lame-duck state machine."""
        return self.lame_duck.thread_count()

    def on_tick(self, t: int, granted_usage: float, capped: bool) -> Optional[str]:
        outcome = super().on_tick(t, granted_usage, capped)
        assert outcome is None  # SyntheticWorkload never departs
        self.lame_duck.observe(t, capped)
        if capped and not self._was_capped:
            self.cap_episodes += 1
            self._episode_capped_seconds = 0
        if capped:
            self._episode_capped_seconds += 1
            if (self.cap_episodes >= self.give_up_episode
                    and self._episode_capped_seconds > self.exit_delay):
                return "exited"
        self._was_capped = capped
        if self.granted_cpu_seconds >= self.work_cpu_seconds:
            return "completed"
        return None


class MapReduceCoordinator:
    """Job-level straggler handling, as the paper's Section 2 describes.

    "Although identifying laggards and starting up replacements for them in a
    timely fashion often improves performance, it typically does so at the
    cost of additional resources."  The coordinator watches per-worker
    progress and nominates stragglers for duplication; the owner decides what
    to do with them (the paper's point is precisely that duplication is a
    blunt instrument compared to fixing the interference).
    """

    def __init__(self, job: Job, straggler_fraction: float = 0.5):
        """Args:
            job: the MapReduce job whose workers to watch.
            straggler_fraction: a worker is a straggler when its progress is
                below this fraction of the median worker's progress.
        """
        if not 0.0 < straggler_fraction < 1.0:
            raise ValueError(
                f"straggler_fraction must be in (0, 1), got {straggler_fraction}")
        self.job = job
        self.straggler_fraction = straggler_fraction
        self.duplicated: set[str] = set()

    def progress(self) -> dict[str, float]:
        """CPU-seconds of progress per running worker."""
        return {
            task.name: task.workload.granted_cpu_seconds
            for task in self.job.running_tasks()
            if isinstance(task.workload, BatchWorkload)
        }

    def stragglers(self) -> list[Task]:
        """Running workers progressing far slower than the median."""
        progress = self.progress()
        if len(progress) < 3:
            return []
        median = float(np.median(list(progress.values())))
        if median <= 0.0:
            return []
        cutoff = median * self.straggler_fraction
        return [
            task for task in self.job.running_tasks()
            if progress.get(task.name, 0.0) < cutoff
        ]

    def nominate_duplicates(self) -> list[Task]:
        """Stragglers not yet nominated; marks them so each is returned once."""
        fresh = [t for t in self.stragglers() if t.name not in self.duplicated]
        self.duplicated.update(t.name for t in fresh)
        return fresh


def make_batch_job_spec(
    name: str,
    num_tasks: int,
    seed: int = 0,
    cpu_limit_per_task: float = 2.0,
    demand_level: float = 1.0,
    best_effort: bool = False,
    priority_band: PriorityBand = PriorityBand.NONPRODUCTION,
    instructions_per_transaction: float = 2.0e7,
) -> JobSpec:
    """A generic throughput batch job (the Figure 2 workload)."""

    def factory(index: int) -> BatchWorkload:
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        return BatchWorkload(
            rng=rng,
            demand=with_noise(constant(demand_level), 0.08, rng),
            instructions_per_transaction=instructions_per_transaction,
        )

    return JobSpec(
        name=name,
        num_tasks=num_tasks,
        scheduling_class=(SchedulingClass.BEST_EFFORT if best_effort
                          else SchedulingClass.BATCH),
        priority_band=priority_band,
        cpu_limit_per_task=cpu_limit_per_task,
        workload_factory=factory,
    )


def make_mapreduce_job_spec(
    name: str,
    num_workers: int,
    seed: int = 0,
    cpu_limit_per_task: float = 3.0,
    demand_level: float = 2.0,
    work_cpu_seconds: float = float("inf"),
    give_up_episode: int = 2,
    priority_band: PriorityBand = PriorityBand.NONPRODUCTION,
) -> JobSpec:
    """A MapReduce job whose workers lame-duck and eventually give up."""

    def factory(index: int) -> MapReduceWorker:
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        return MapReduceWorker(
            rng=rng,
            demand=with_noise(constant(demand_level), 0.1, rng),
            work_cpu_seconds=work_cpu_seconds,
            give_up_episode=give_up_episode,
        )

    return JobSpec(
        name=name,
        num_tasks=num_workers,
        scheduling_class=SchedulingClass.BATCH,
        priority_band=priority_band,
        cpu_limit_per_task=cpu_limit_per_task,
        workload_factory=factory,
    )
