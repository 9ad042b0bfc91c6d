"""Property-based tests for the cluster scheduler under random job streams."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.platform import PLATFORM_CATALOG, get_platform
from repro.cluster.scheduler import ClusterScheduler, PlacementError
from repro.cluster.task import SchedulingClass, TaskState
from repro.testing import make_quiet_machine, make_scripted_job
from tests.reference.placement import ReferenceScheduler

job_descriptions = st.tuples(
    st.sampled_from(list(SchedulingClass)),
    st.integers(min_value=1, max_value=4),          # tasks
    st.floats(min_value=0.5, max_value=12.0),       # cpu limit
)


def submit_stream(scheduler, stream):
    jobs = []
    for i, (scheduling_class, tasks, limit) in enumerate(stream):
        job = make_scripted_job(f"j{i}", [1.0], num_tasks=tasks,
                                cpu_limit=limit,
                                scheduling_class=scheduling_class)
        try:
            scheduler.submit(job)
        except PlacementError:
            pass  # an LS job that fits nowhere; its earlier tasks may run
        jobs.append(job)
    return jobs


class TestSchedulerInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(job_descriptions, min_size=1, max_size=20),
           st.integers(min_value=1, max_value=4))
    def test_reservation_caps_hold(self, stream, n_machines):
        machines = [make_quiet_machine(f"m{i}") for i in range(n_machines)]
        scheduler = ClusterScheduler(machines, batch_overcommit=1.5,
                                     best_effort_overcommit=2.5)
        submit_stream(scheduler, stream)
        for machine in machines:
            ls = machine.reserved_cpu(SchedulingClass.LATENCY_SENSITIVE)
            assert ls <= machine.cpu_capacity + 1e-9
            assert (machine.reserved_cpu()
                    <= machine.cpu_capacity * 2.5 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(job_descriptions, min_size=1, max_size=20))
    def test_task_states_consistent(self, stream):
        machines = [make_quiet_machine(f"m{i}") for i in range(2)]
        scheduler = ClusterScheduler(machines)
        jobs = submit_stream(scheduler, stream)
        placed_names = {t.name for m in machines for t in m.resident_tasks()}
        for job in jobs:
            for task in job:
                if task.state is TaskState.RUNNING:
                    assert task.name in placed_names
                    assert task.machine_name in scheduler.machines
                else:
                    assert task.name not in placed_names
                    assert task.machine_name is None

    @settings(max_examples=30, deadline=None)
    @given(st.lists(job_descriptions, min_size=1, max_size=15),
           st.data())
    def test_anti_affinity_never_violated(self, stream, data):
        machines = [make_quiet_machine(f"m{i}") for i in range(3)]
        scheduler = ClusterScheduler(machines)
        jobs = submit_stream(scheduler, stream)
        if len(jobs) < 2:
            return
        a = data.draw(st.integers(min_value=0, max_value=len(jobs) - 1))
        b = data.draw(st.integers(min_value=0, max_value=len(jobs) - 1))
        if a == b:
            return
        before = {(m.name, t.name) for m in machines for t in m.resident_tasks()}
        scheduler.avoid_colocation(jobs[a].name, jobs[b].name)
        # Evict job a so the rule binds when its tasks are placed again.
        for task in jobs[a]:
            if task.state is TaskState.RUNNING:
                scheduler.machines[task.machine_name].remove(
                    task.name, TaskState.PREEMPTED)
        scheduler.reschedule_pending()
        # A fresh job is unaffected; only the named pair binds.
        scheduler.submit(make_scripted_job(
            jobs[a].name + "x", [1.0], cpu_limit=1.0,
            scheduling_class=SchedulingClass.BATCH))
        other = {jobs[a].name: jobs[b].name, jobs[b].name: jobs[a].name}
        for machine in machines:
            resident = machine.resident_tasks()
            resident_jobs = {t.job.name for t in resident}
            for task in resident:
                # Pairs placed before the rule may coexist; no placement
                # since may put one job of the pair beside the other.
                if (machine.name, task.name) not in before:
                    assert other.get(task.job.name) not in resident_jobs

    @settings(max_examples=30, deadline=None)
    @given(st.lists(job_descriptions, min_size=2, max_size=15))
    def test_reschedule_idempotent_when_full(self, stream):
        machines = [make_quiet_machine("m0")]
        scheduler = ClusterScheduler(machines)
        submit_stream(scheduler, stream)
        first = scheduler.reschedule_pending()
        second = scheduler.reschedule_pending()
        # A second immediate pass can never place more than the first.
        assert second <= first


#: Reservations that tie exactly (0.3 + 0.3 == 0.6), that tie only within
#: the 1e-9 near-best band (0.1 + 0.2 != 0.3; 1.0 vs 1.0 + 5e-10), and that
#: just miss it (1.0 + 2e-9).
TIE_LIMITS = (0.1, 0.2, 0.3, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 2.5, 8.0)

placement_ops = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(list(SchedulingClass)),
              st.integers(min_value=1, max_value=6),
              st.one_of(st.sampled_from(TIE_LIMITS),
                        st.floats(min_value=0.05, max_value=12.0))),
    # An out-of-band departure: a completion or an eviction.
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=999)),
    # An out-of-band arrival that shares a task name with a submitted job.
    st.tuples(st.just("squat"), st.integers(min_value=0, max_value=999),
              st.integers(min_value=0, max_value=999)),
    st.tuples(st.just("avoid"), st.integers(min_value=0, max_value=999),
              st.integers(min_value=0, max_value=999)),
    st.tuples(st.just("migrate"), st.integers(min_value=0, max_value=999)),
    st.tuples(st.just("reschedule")),
)


class _Run:
    """One scheduler and its fleet, driven by a placement op stream."""

    def __init__(self, scheduler_cls, platforms, seed):
        self.machines = [make_quiet_machine(f"m{i}", get_platform(p))
                         for i, p in enumerate(platforms)]
        self.scheduler = scheduler_cls(self.machines,
                                       rng=np.random.default_rng(seed))
        self.jobs = []
        self.log = []
        place_task = self.scheduler.place_task

        def logged(task, exclude_machines=None):
            try:
                machine = place_task(task, exclude_machines)
            except PlacementError:
                self.log.append((task.name, None))
                raise
            self.log.append((task.name, machine.name))
            return machine

        self.scheduler.place_task = logged

    def running(self):
        return [t for m in self.machines for t in m.resident_tasks()]

    def apply(self, op):
        try:
            return self._apply(op)
        except ValueError as exc:
            # Preemption ignores same-named residents, so placing onto a
            # squatted machine can fail; both schedulers must fail alike.
            return repr(exc)

    def _apply(self, op):
        kind = op[0]
        if kind == "submit":
            _, scheduling_class, tasks, limit = op
            job = make_scripted_job(f"j{len(self.jobs)}", [1.0],
                                    num_tasks=tasks, cpu_limit=limit,
                                    scheduling_class=scheduling_class)
            self.jobs.append(job)
            try:
                self.scheduler.submit(job)
            except PlacementError:
                return "unplaceable"
        elif kind == "remove":
            running = self.running()
            if running:
                task = running[op[1] % len(running)]
                state = (TaskState.COMPLETED, TaskState.PREEMPTED)[op[1] % 2]
                self.scheduler.machines[task.machine_name].remove(
                    task.name, state)
        elif kind == "squat":
            if self.jobs:
                job = self.jobs[op[1] % len(self.jobs)]
                twin = make_scripted_job(job.name, [1.0], num_tasks=len(job),
                                         cpu_limit=0.5)
                task = twin.tasks[op[1] % len(twin)]
                machine = self.machines[op[2] % len(self.machines)]
                if not machine.has_task(task.name):
                    machine.place(task)
        elif kind == "avoid":
            if self.jobs:
                a = self.jobs[op[1] % len(self.jobs)].name
                b = self.jobs[op[2] % len(self.jobs)].name
                if a != b:
                    self.scheduler.avoid_colocation(a, b)
        elif kind == "migrate":
            running = [t for t in self.running()
                       if t.job is self.scheduler.jobs.get(t.job.name)]
            if running:
                try:
                    self.scheduler.migrate_task(running[op[1] % len(running)])
                except PlacementError:
                    return "stuck"
        else:
            return self.scheduler.reschedule_pending()

    def state(self):
        return (self.log,
                self.scheduler.rng.bit_generator.state,
                self.scheduler.preemption_count,
                [(m.name, [t.name for t in m.resident_tasks()])
                 for m in self.machines],
                [(t.name, t.state, t.machine_name)
                 for job in self.jobs for t in job])


def _hex_rows(scheduler):
    """The scheduler's reservation columns, one ``float.hex`` triple a row."""
    return [tuple(map(float.hex, row)) for row in zip(
        scheduler._capacity.tolist(), scheduler._reserved.tolist(),
        scheduler._ls_reserved.tolist())]


def _resummed_rows(machines):
    """Each machine's capacity and reservations, summed afresh."""
    ls = SchedulingClass.LATENCY_SENSITIVE
    return [(m.cpu_capacity.hex(), m.reserved_cpu().hex(),
             m.reserved_cpu(ls).hex()) for m in machines]


class TestPlacementOracle:
    """The reservation columns against the per-machine scan they replaced
    (``tests/reference/placement.py``), op by op."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(sorted(PLATFORM_CATALOG)), min_size=1,
                    max_size=6),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(placement_ops, min_size=1, max_size=30))
    # Seed 1 lands the first task on m0, so m1 (1.0 reserved) leads m0
    # (1.0 + 5e-10) inside the band: band order is not machine order.
    @example(["westmere-2.6"] * 2, 1,
             [("submit", SchedulingClass.BATCH, 1, 1.0 + 5e-10),
              ("submit", SchedulingClass.BATCH, 1, 1.0),
              ("submit", SchedulingClass.BATCH, 4, 0.3)])
    # The same with 1.0 + 2e-9, which falls just outside the band.
    @example(["westmere-2.6"] * 2, 1,
             [("submit", SchedulingClass.BATCH, 1, 1.0 + 2e-9),
              ("submit", SchedulingClass.BATCH, 1, 1.0),
              ("submit", SchedulingClass.BATCH, 4, 0.3)])
    # 0.1 + 0.2 on one machine against 0.3 on the other.
    @example(["nehalem-2.3"] * 2, 6,
             [("submit", SchedulingClass.BEST_EFFORT, 1, 0.3),
              ("submit", SchedulingClass.BEST_EFFORT, 1, 0.1),
              ("submit", SchedulingClass.BEST_EFFORT, 1, 0.2),
              ("submit", SchedulingClass.LATENCY_SENSITIVE, 3, 1.0)])
    # Latency-sensitive reservations filling both machines exactly, then
    # a latency-sensitive task landing exactly at the overcommit ceiling.
    @example(["westmere-2.6"] * 2, 9,
             [("submit", SchedulingClass.LATENCY_SENSITIVE, 6, 8.0),
              ("remove", 1),
              ("submit", SchedulingClass.BATCH, 2, 6.0),
              ("submit", SchedulingClass.LATENCY_SENSITIVE, 1, 8.0),
              ("reschedule",)])
    def test_columns_match_reference_scan(self, platforms, seed, ops):
        columns = _Run(ClusterScheduler, platforms, seed)
        reference = _Run(ReferenceScheduler, platforms, seed)
        for op in ops:
            assert columns.apply(op) == reference.apply(op), op
            assert columns.state() == reference.state(), op
            rows = _hex_rows(columns.scheduler)
            assert rows == _resummed_rows(reference.machines), op
            assert rows == _resummed_rows(columns.machines), op
