"""Unit tests for repro.cluster.scheduler."""

import pytest

from repro.cluster.scheduler import ClusterScheduler, PlacementError
from repro.cluster.task import SchedulingClass, TaskState
from repro.testing import make_quiet_machine, make_scripted_job


def make_fleet(n=4):
    return [make_quiet_machine(f"m{i}") for i in range(n)]


def scheduler(machines=None, **kwargs):
    return ClusterScheduler(machines or make_fleet(), **kwargs)


class TestConstruction:
    def test_needs_machines(self):
        with pytest.raises(ValueError, match="at least one machine"):
            ClusterScheduler([])

    def test_duplicate_machine_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClusterScheduler([make_quiet_machine("m"), make_quiet_machine("m")])

    def test_overcommit_validation(self):
        with pytest.raises(ValueError, match="batch_overcommit"):
            scheduler(batch_overcommit=0.5)
        with pytest.raises(ValueError, match="best_effort_overcommit"):
            scheduler(batch_overcommit=2.0, best_effort_overcommit=1.5)

    def test_machine_has_one_owner(self):
        machines = make_fleet(2)
        with pytest.raises(ValueError, match="batch_overcommit"):
            ClusterScheduler(machines, batch_overcommit=0.5)
        owner = ClusterScheduler(machines)  # a rejected scheduler owns nothing
        with pytest.raises(ValueError, match="already managed"):
            ClusterScheduler([make_quiet_machine("other"), machines[1]])
        assert all(m._scheduler is owner for m in machines)

    def test_resident_tasks_seed_the_columns(self):
        machines = make_fleet(2)
        early = make_scripted_job("early", [1.0], cpu_limit=20.0)
        machines[0].place(early.tasks[0])
        sched = ClusterScheduler(machines)
        job = make_scripted_job("j", [1.0], cpu_limit=2.0)
        sched.submit(job)
        assert job.tasks[0].machine_name == "m1"
        with pytest.raises(PlacementError):
            sched.submit(make_scripted_job("big", [1.0], cpu_limit=23.0))
        # A departure the scheduler did not make frees the room.
        machines[0].remove("early/0", TaskState.COMPLETED)
        sched.submit(make_scripted_job("big2", [1.0], cpu_limit=23.0))


class TestSubmitAndSpread:
    def test_all_tasks_placed(self):
        sched = scheduler()
        job = make_scripted_job("j", [1.0], num_tasks=8, cpu_limit=2.0)
        sched.submit(job)
        assert all(t.state is TaskState.RUNNING for t in job)

    def test_worst_fit_spreads_load(self):
        machines = make_fleet(4)
        sched = ClusterScheduler(machines)
        job = make_scripted_job("j", [1.0], num_tasks=4, cpu_limit=2.0)
        sched.submit(job)
        # Worst-fit should land one task per machine.
        assert sorted(m.num_tasks for m in machines) == [1, 1, 1, 1]

    def test_duplicate_job_rejected(self):
        sched = scheduler()
        job = make_scripted_job("j", [1.0])
        sched.submit(job)
        with pytest.raises(ValueError, match="already submitted"):
            sched.submit(make_scripted_job("j", [1.0]))


class TestAdmissionControl:
    def test_ls_never_oversubscribed(self):
        # One 24-core machine; each LS task reserves 10 -> only 2 fit.
        machines = [make_quiet_machine("m0")]
        sched = ClusterScheduler(machines)
        job = make_scripted_job("ls", [1.0], num_tasks=3, cpu_limit=10.0)
        with pytest.raises(PlacementError):
            sched.submit(job)
        assert machines[0].reserved_cpu(SchedulingClass.LATENCY_SENSITIVE) <= 24

    def test_batch_overcommits(self):
        machines = [make_quiet_machine("m0")]
        sched = ClusterScheduler(machines, batch_overcommit=1.5)
        # 24 cores * 1.5 = 36 reservable; 3 batch tasks of 12 fit.
        job = make_scripted_job("b", [1.0], num_tasks=3, cpu_limit=12.0,
                                scheduling_class=SchedulingClass.BATCH)
        sched.submit(job)
        assert machines[0].num_tasks == 3

    def test_batch_overcommit_limit_enforced(self):
        machines = [make_quiet_machine("m0")]
        sched = ClusterScheduler(machines, batch_overcommit=1.5)
        job = make_scripted_job("b", [1.0], num_tasks=4, cpu_limit=12.0,
                                scheduling_class=SchedulingClass.BATCH)
        sched.submit(job)  # 4th task cannot fit; batch waits quietly
        assert machines[0].num_tasks == 3
        assert len(job.pending_tasks()) == 1

    def test_best_effort_overcommits_harder(self):
        machines = [make_quiet_machine("m0")]
        sched = ClusterScheduler(machines, batch_overcommit=1.5,
                                 best_effort_overcommit=2.5)
        job = make_scripted_job("be", [1.0], num_tasks=5, cpu_limit=12.0,
                                scheduling_class=SchedulingClass.BEST_EFFORT)
        sched.submit(job)
        assert machines[0].num_tasks == 5  # 60 <= 24 * 2.5


class TestPreemption:
    def test_ls_preempts_batch(self):
        machines = [make_quiet_machine("m0")]
        sched = ClusterScheduler(machines, batch_overcommit=1.5)
        batch = make_scripted_job("b", [1.0], num_tasks=3, cpu_limit=12.0,
                                  scheduling_class=SchedulingClass.BATCH)
        sched.submit(batch)
        ls = make_scripted_job("ls", [1.0], num_tasks=1, cpu_limit=20.0)
        sched.submit(ls)
        assert ls.tasks[0].state is TaskState.RUNNING
        assert sched.preemption_count >= 1
        preempted = [t for t in batch if t.state is TaskState.PREEMPTED]
        assert preempted

    def test_preempted_batch_reschedules_elsewhere(self):
        machines = [make_quiet_machine("m0"), make_quiet_machine("m1")]
        sched = ClusterScheduler(machines, batch_overcommit=1.5)
        batch = make_scripted_job("b", [1.0], num_tasks=5, cpu_limit=12.0,
                                  scheduling_class=SchedulingClass.BATCH)
        sched.submit(batch)
        ls = make_scripted_job("ls", [1.0], num_tasks=2, cpu_limit=20.0)
        sched.submit(ls)
        placed = sched.reschedule_pending()
        running = [t for t in batch if t.state is TaskState.RUNNING]
        # Everything that can run again does.
        assert placed >= 0
        assert len(running) + len(batch.pending_tasks()) == 5

    def test_best_effort_evicted_before_batch(self):
        machines = [make_quiet_machine("m0")]
        sched = ClusterScheduler(machines, batch_overcommit=1.5,
                                 best_effort_overcommit=1.5)
        be = make_scripted_job("be", [1.0], num_tasks=1, cpu_limit=12.0,
                               scheduling_class=SchedulingClass.BEST_EFFORT)
        batch = make_scripted_job("b", [1.0], num_tasks=2, cpu_limit=12.0,
                                  scheduling_class=SchedulingClass.BATCH)
        sched.submit(be)
        sched.submit(batch)
        ls = make_scripted_job("ls", [1.0], num_tasks=1, cpu_limit=20.0)
        sched.submit(ls)
        assert be.tasks[0].state is TaskState.PREEMPTED


class TestAntiAffinity:
    def test_pairs_never_colocated(self):
        machines = make_fleet(3)
        sched = ClusterScheduler(machines)
        sched.avoid_colocation("victim", "antagonist")
        victim = make_scripted_job("victim", [1.0], num_tasks=2, cpu_limit=2.0)
        antagonist = make_scripted_job(
            "antagonist", [1.0], num_tasks=2, cpu_limit=2.0,
            scheduling_class=SchedulingClass.BATCH)
        sched.submit(victim)
        sched.submit(antagonist)
        for machine in machines:
            jobs = {t.job.name for t in machine.resident_tasks()}
            assert not ("victim" in jobs and "antagonist" in jobs)

    def test_self_pair_rejected(self):
        sched = scheduler()
        with pytest.raises(ValueError, match="itself"):
            sched.avoid_colocation("j", "j")


class TestMigration:
    def test_migrate_moves_to_other_machine(self):
        machines = make_fleet(2)
        sched = ClusterScheduler(machines)
        job = make_scripted_job("j", [1.0], cpu_limit=2.0)
        sched.submit(job)
        task = job.tasks[0]
        origin = task.machine_name
        sched.migrate_task(task)
        assert task.machine_name is not None
        assert task.machine_name != origin
        assert task.state is TaskState.RUNNING

    def test_migrate_unplaced_raises(self):
        sched = scheduler()
        job = make_scripted_job("j", [1.0])
        with pytest.raises(ValueError, match="not placed"):
            sched.migrate_task(job.tasks[0])

    def test_migrate_batch_with_nowhere_to_go(self):
        machines = [make_quiet_machine("m0")]
        sched = ClusterScheduler(machines)
        job = make_scripted_job("b", [1.0], cpu_limit=2.0,
                                scheduling_class=SchedulingClass.BATCH)
        sched.submit(job)
        with pytest.raises(PlacementError, match="no machine can host"):
            sched.migrate_task(job.tasks[0])
        # And the task must be restored to where it was, still running.
        assert job.tasks[0].state is TaskState.RUNNING
        assert job.tasks[0].machine_name == "m0"


class TestFleetViews:
    def test_utilization(self):
        machines = [make_quiet_machine("m0")]
        sched = ClusterScheduler(machines)
        job = make_scripted_job("j", [1.0], num_tasks=2, cpu_limit=6.0)
        sched.submit(job)
        assert sched.utilization()["m0"] == pytest.approx(12.0 / 24.0)

    def test_tasks_per_machine(self):
        sched = scheduler()
        job = make_scripted_job("j", [1.0], num_tasks=6, cpu_limit=2.0)
        sched.submit(job)
        assert sum(sched.tasks_per_machine()) == 6
