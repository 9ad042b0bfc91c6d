"""Unit tests for repro.cluster.machine (allocation, counters, departures)."""

import math

import pytest

from repro.cluster.machine import Machine
from repro.cluster.platform import get_platform
from repro.cluster.task import SchedulingClass, TaskState
from repro.perf.events import CounterEvent
from repro.testing import (
    NOISY_NEIGHBOR_PROFILE,
    SENSITIVE_PROFILE,
    ScriptedWorkload,
    make_quiet_machine,
    make_scripted_job,
)


def place(machine, job):
    for task in job:
        machine.place(task)
    return list(job)


class TestPlacement:
    def test_place_and_lookup(self, machine):
        job = make_scripted_job("j", [1.0], num_tasks=2)
        place(machine, job)
        assert machine.num_tasks == 2
        assert machine.has_task("j/0")
        assert machine.get_task("j/1").name == "j/1"
        assert machine.resident_cgroup_names() == ["j/0", "j/1"]

    def test_double_place_rejected(self, machine):
        job = make_scripted_job("j", [1.0])
        place(machine, job)
        with pytest.raises(ValueError, match="already"):
            machine.place(job.tasks[0])

    def test_remove_marks_state_and_drops_counters(self, machine):
        job = make_scripted_job("j", [1.0])
        place(machine, job)
        machine.tick(0)
        assert "j/0" in machine.counters.known_cgroups()
        removed = machine.remove("j/0", TaskState.KILLED, reason="op")
        assert removed.state is TaskState.KILLED
        assert "j/0" not in machine.counters.known_cgroups()
        assert machine.num_tasks == 0

    def test_remove_unknown_raises(self, machine):
        with pytest.raises(KeyError, match="no task"):
            machine.remove("ghost/0", TaskState.KILLED)

    def test_get_unknown_raises(self, machine):
        with pytest.raises(KeyError, match="no task"):
            machine.get_task("ghost/0")

    def test_reserved_cpu_is_a_float_sum(self, machine):
        assert machine.reserved_cpu().hex() == (0.0).hex()
        assert machine.reserved_cpu(SchedulingClass.BATCH).hex() == (0.0).hex()
        place(machine, make_scripted_job("a", [1.0], cpu_limit=0.1))
        place(machine, make_scripted_job(
            "b", [1.0], cpu_limit=0.2, scheduling_class=SchedulingClass.BATCH))
        # The same left-to-right sum as before the 0.0 start: 0.1 + 0.2.
        assert machine.reserved_cpu().hex() == (0.1 + 0.2).hex()
        assert machine.reserved_cpu(
            SchedulingClass.LATENCY_SENSITIVE).hex() == (0.1).hex()
        assert machine.reserved_cpu(SchedulingClass.BATCH).hex() == (0.2).hex()


class TestAllocation:
    def test_undersubscribed_grants_demand(self, machine):
        job = make_scripted_job("j", [1.5], cpu_limit=4.0)
        place(machine, job)
        result = machine.tick(0)
        assert result.grants["j/0"] == pytest.approx(1.5)

    def test_cgroup_limit_clips_demand(self, machine):
        job = make_scripted_job("j", [5.0], cpu_limit=2.0)
        place(machine, job)
        result = machine.tick(0)
        assert result.grants["j/0"] == pytest.approx(2.0)

    def test_ls_priority_over_batch_when_oversubscribed(self, machine):
        # 24 cores; LS wants 20, batch wants 20 -> LS gets 20, batch 4.
        ls = make_scripted_job("ls", [20.0], cpu_limit=24.0)
        batch = make_scripted_job("batch", [20.0], cpu_limit=24.0,
                                  scheduling_class=SchedulingClass.BATCH)
        place(machine, ls)
        place(machine, batch)
        result = machine.tick(0)
        assert result.grants["ls/0"] == pytest.approx(20.0)
        assert result.grants["batch/0"] == pytest.approx(4.0)

    def test_pro_rata_within_saturated_tier(self, machine):
        # Two batch tasks want 20 each; 24 cores -> each gets 12.
        j1 = make_scripted_job("b1", [20.0], cpu_limit=24.0,
                               scheduling_class=SchedulingClass.BATCH)
        j2 = make_scripted_job("b2", [20.0], cpu_limit=24.0,
                               scheduling_class=SchedulingClass.BATCH)
        place(machine, j1)
        place(machine, j2)
        result = machine.tick(0)
        assert result.grants["b1/0"] == pytest.approx(12.0)
        assert result.grants["b2/0"] == pytest.approx(12.0)

    def test_best_effort_starves_last(self, machine):
        ls = make_scripted_job("ls", [12.0], cpu_limit=24.0)
        batch = make_scripted_job("b", [12.0], cpu_limit=24.0,
                                  scheduling_class=SchedulingClass.BATCH)
        be = make_scripted_job("be", [12.0], cpu_limit=24.0,
                               scheduling_class=SchedulingClass.BEST_EFFORT)
        for job in (ls, batch, be):
            place(machine, job)
        result = machine.tick(0)
        assert result.grants["ls/0"] == pytest.approx(12.0)
        assert result.grants["b/0"] == pytest.approx(12.0)
        assert result.grants["be/0"] == pytest.approx(0.0)

    def test_hard_cap_bites(self, machine):
        job = make_scripted_job("b", [8.0], cpu_limit=8.0,
                                scheduling_class=SchedulingClass.BATCH)
        task = place(machine, job)[0]
        task.cgroup.apply_cap(quota=0.1, now=0, duration=300)
        result = machine.tick(0)
        assert result.grants["b/0"] == pytest.approx(0.1)

    def test_empty_machine_tick(self, machine):
        result = machine.tick(0)
        assert result.grants == {}
        assert result.departures == []


class TestCounters:
    def test_cycles_match_grant_and_clock(self, machine):
        job = make_scripted_job("j", [2.0], cpu_limit=4.0)
        place(machine, job)
        machine.tick(0)
        counters = machine.counters.counters_for("j/0")
        expected_cycles = 2.0 * machine.platform.cycles_per_cpu_second
        assert counters.read(CounterEvent.CPU_CLK_UNHALTED_REF) == pytest.approx(
            expected_cycles)

    def test_cpi_equals_cycles_over_instructions(self, machine):
        job = make_scripted_job("j", [1.0], cpu_limit=4.0, base_cpi=1.5)
        place(machine, job)
        result = machine.tick(0)
        counters = machine.counters.counters_for("j/0")
        cycles = counters.read(CounterEvent.CPU_CLK_UNHALTED_REF)
        instructions = counters.read(CounterEvent.INSTRUCTIONS_RETIRED)
        assert cycles / instructions == pytest.approx(result.cpis["j/0"])

    def test_counters_accumulate_across_ticks(self, machine):
        job = make_scripted_job("j", [1.0], cpu_limit=4.0)
        place(machine, job)
        machine.tick(0)
        after_one = machine.counters.counters_for("j/0").read(
            CounterEvent.INSTRUCTIONS_RETIRED)
        machine.tick(1)
        after_two = machine.counters.counters_for("j/0").read(
            CounterEvent.INSTRUCTIONS_RETIRED)
        assert after_two == pytest.approx(2 * after_one, rel=0.01)

    def test_usage_charged_to_cgroup(self, machine):
        job = make_scripted_job("j", [1.5], cpu_limit=4.0)
        task = place(machine, job)[0]
        machine.tick(0)
        assert task.cgroup.last_usage() == pytest.approx(1.5)

    def test_context_switch_overhead_below_claim(self, machine):
        # The paper: "Total CPU overhead is less than 0.1%".
        for i in range(10):
            job = make_scripted_job(f"j{i}", [1.0], cpu_limit=2.0)
            place(machine, job)
        for t in range(100):
            machine.tick(t)
        fraction = machine.counters.overhead_fraction(machine.total_cpu_seconds)
        assert fraction < 0.001


class TestInterferenceIntegration:
    def test_victim_cpi_rises_with_antagonist(self, machine):
        victim = make_scripted_job("v", [1.0], cpu_limit=2.0,
                                   base_cpi=1.5, profile=SENSITIVE_PROFILE)
        place(machine, victim)
        alone = machine.tick(0).cpis["v/0"]
        antagonist = make_scripted_job(
            "a", [6.0], cpu_limit=8.0,
            scheduling_class=SchedulingClass.BATCH,
            profile=NOISY_NEIGHBOR_PROFILE)
        place(machine, antagonist)
        together = machine.tick(1).cpis["v/0"]
        assert together > alone * 1.3

    def test_capping_antagonist_restores_victim(self, machine):
        victim = make_scripted_job("v", [1.0], cpu_limit=2.0,
                                   base_cpi=1.5, profile=SENSITIVE_PROFILE)
        antagonist = make_scripted_job(
            "a", [6.0], cpu_limit=8.0,
            scheduling_class=SchedulingClass.BATCH,
            profile=NOISY_NEIGHBOR_PROFILE)
        place(machine, victim)
        atask = place(machine, antagonist)[0]
        suffering = machine.tick(0).cpis["v/0"]
        atask.cgroup.apply_cap(quota=0.1, now=1, duration=300)
        relieved = machine.tick(1).cpis["v/0"]
        assert relieved < suffering * 0.75


class TestDepartures:
    def test_workload_exit_removes_task(self, machine):
        job = make_scripted_job("j", [1.0], exit_at=5)
        place(machine, job)
        for t in range(5):
            assert machine.tick(t).departures == []
        result = machine.tick(5)
        assert len(result.departures) == 1
        task, state = result.departures[0]
        assert task.name == "j/0"
        assert state is TaskState.EXITED
        assert machine.num_tasks == 0

    def test_workload_completion(self, machine):
        job = make_scripted_job("j", [1.0], complete_at=3)
        place(machine, job)
        for t in range(3):
            machine.tick(t)
        result = machine.tick(3)
        assert result.departures[0][1] is TaskState.COMPLETED

    def test_unknown_outcome_raises(self, machine):
        class BadWorkload(ScriptedWorkload):
            def on_tick(self, t, granted_usage, capped):
                return "vanished"

        job = make_scripted_job("j", [1.0])
        job.tasks[0].workload = BadWorkload([1.0])
        place(machine, job)
        with pytest.raises(ValueError, match="unknown outcome"):
            machine.tick(0)


class TestThreadCount:
    def test_sums_resident_workloads(self, machine):
        j1 = make_scripted_job("a", [1.0], threads=8)
        j2 = make_scripted_job("b", [1.0], threads=5)
        place(machine, j1)
        place(machine, j2)
        assert machine.thread_count(0) == 13

    def test_validation(self):
        with pytest.raises(ValueError, match="noise"):
            make_quiet_machine().__class__(
                "m", make_quiet_machine().platform, cpi_noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        # A NaN sigma used to tick noiselessly on its own machine, and to
        # poison the CPI column of any fleet that also held a noisy one.
        with pytest.raises(ValueError, match="cpi_noise_sigma must be finite"):
            Machine("m", get_platform("westmere-2.6"), cpi_noise_sigma=sigma)
