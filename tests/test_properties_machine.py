"""Property-based tests on machine allocation and sampling invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.task import SchedulingClass
from repro.perf.events import CounterEvent
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.testing import (
    NOISY_NEIGHBOR_PROFILE,
    SENSITIVE_PROFILE,
    make_quiet_machine,
    make_scripted_job,
)

demand_values = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
scheduling_classes = st.sampled_from(list(SchedulingClass))


def build_machine(task_specs):
    """task_specs: list of (demand, scheduling_class, cpu_limit)."""
    machine = make_quiet_machine()
    for i, (demand, scheduling_class, limit) in enumerate(task_specs):
        job = make_scripted_job(f"j{i}", [demand], cpu_limit=limit,
                                scheduling_class=scheduling_class)
        machine.place(job.tasks[0])
    return machine


class TestAllocationInvariants:
    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(demand_values, scheduling_classes,
                  st.floats(min_value=0.1, max_value=30.0)),
        min_size=1, max_size=12))
    def test_grants_bounded(self, task_specs):
        machine = build_machine(task_specs)
        result = machine.tick(0)
        total = sum(result.grants.values())
        # Never over capacity.
        assert total <= machine.cpu_capacity + 1e-9
        for i, (demand, _cls, limit) in enumerate(task_specs):
            grant = result.grants[f"j{i}/0"]
            # Never more than asked, never more than the cgroup allows.
            assert grant <= demand + 1e-9
            assert grant <= limit + 1e-9
            assert grant >= 0.0

    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(demand_values, scheduling_classes,
                  st.floats(min_value=0.1, max_value=30.0)),
        min_size=2, max_size=12))
    def test_ls_tier_served_before_batch(self, task_specs):
        machine = build_machine(task_specs)
        result = machine.tick(0)
        ls_short = any(
            result.grants[f"j{i}/0"]
            < min(d, lim) - 1e-9
            for i, (d, cls, lim) in enumerate(task_specs)
            if cls is SchedulingClass.LATENCY_SENSITIVE)
        batch_got_cpu = any(
            result.grants[f"j{i}/0"] > 1e-9
            for i, (_d, cls, _lim) in enumerate(task_specs)
            if cls is not SchedulingClass.LATENCY_SENSITIVE)
        # If any LS task was short-changed, the LS tier alone must have
        # saturated the machine; batch may only be running on leftovers.
        if ls_short and batch_got_cpu:
            ls_total = sum(
                result.grants[f"j{i}/0"]
                for i, (_d, cls, _l) in enumerate(task_specs)
                if cls is SchedulingClass.LATENCY_SENSITIVE)
            assert ls_total >= machine.cpu_capacity - 1e-6

    @settings(max_examples=40)
    @given(st.lists(st.tuples(demand_values, scheduling_classes,
                              st.floats(min_value=0.1, max_value=30.0)),
                    min_size=1, max_size=8))
    def test_usage_charged_matches_grant(self, task_specs):
        machine = build_machine(task_specs)
        result = machine.tick(0)
        for i in range(len(task_specs)):
            task = machine.get_task(f"j{i}/0")
            assert math.isclose(task.cgroup.last_usage(),
                                result.grants[f"j{i}/0"], abs_tol=1e-12)


class TestCounterInvariants:
    @settings(max_examples=30)
    @given(demand=st.floats(min_value=0.05, max_value=8.0),
           base_cpi=st.floats(min_value=0.3, max_value=5.0),
           ticks=st.integers(min_value=1, max_value=30))
    def test_cpi_identity_holds(self, demand, base_cpi, ticks):
        """cycles / instructions must reproduce the effective CPI exactly."""
        machine = make_quiet_machine()
        job = make_scripted_job("j", [demand], cpu_limit=10.0,
                                base_cpi=base_cpi)
        machine.place(job.tasks[0])
        cpis = [machine.tick(t).cpis["j/0"] for t in range(ticks)]
        counters = machine.counters.counters_for("j/0")
        cycles = counters.read(CounterEvent.CPU_CLK_UNHALTED_REF)
        instructions = counters.read(CounterEvent.INSTRUCTIONS_RETIRED)
        # Constant demand and no noise -> constant CPI; the counter ratio
        # must equal it.
        assert math.isclose(cycles / instructions, cpis[0], rel_tol=1e-9)

    @settings(max_examples=20)
    @given(duration=st.integers(min_value=1, max_value=20),
           period_extra=st.integers(min_value=0, max_value=40),
           demand=st.floats(min_value=0.3, max_value=4.0))
    def test_sampler_usage_conservation(self, duration, period_extra, demand):
        """A sample's cpu_usage equals the mean charged usage in its window."""
        machine = make_quiet_machine()
        job = make_scripted_job("j", [demand], cpu_limit=8.0)
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine, SamplerConfig(
            duration_seconds=duration,
            period_seconds=duration + period_extra))
        collected = []
        for t in range(duration + period_extra + 2):
            machine.tick(t)
            collected.extend(sampler.tick(t).to_samples())
        assert collected
        assert math.isclose(collected[0].cpu_usage, demand, rel_tol=1e-9)


class TestInterferenceInvariants:
    @settings(max_examples=40)
    @given(victim_demand=st.floats(min_value=0.3, max_value=2.0),
           antagonist_demand=st.floats(min_value=0.0, max_value=10.0))
    def test_more_antagonist_never_helps_victim(self, victim_demand,
                                                antagonist_demand):
        def victim_cpi(extra):
            machine = make_quiet_machine()
            victim = make_scripted_job("v", [victim_demand], cpu_limit=3.0,
                                       profile=SENSITIVE_PROFILE)
            machine.place(victim.tasks[0])
            antagonist = make_scripted_job(
                "a", [extra], cpu_limit=12.0,
                scheduling_class=SchedulingClass.BATCH,
                profile=NOISY_NEIGHBOR_PROFILE)
            machine.place(antagonist.tasks[0])
            return machine.tick(0).cpis["v/0"]

        assert (victim_cpi(antagonist_demand)
                <= victim_cpi(antagonist_demand + 1.0) + 1e-9)
