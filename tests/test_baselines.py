"""Unit tests for the baseline identification schemes."""

import pytest

from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.cluster.task import SchedulingClass
from repro.core.baselines import ActiveProbeIdentifier, rank_by_usage
from repro.testing import (
    NOISY_NEIGHBOR_PROFILE,
    QUIET_PROFILE,
    SENSITIVE_PROFILE,
    make_quiet_machine,
    make_scripted_job,
)


def build_machine_with_mix():
    """Victim + heavy antagonist + innocent spinner on one machine."""
    machine = make_quiet_machine()
    victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                               base_cpi=1.0, profile=SENSITIVE_PROFILE)
    antagonist = make_scripted_job("ant", [4.0], cpu_limit=8.0,
                                   scheduling_class=SchedulingClass.BATCH,
                                   profile=NOISY_NEIGHBOR_PROFILE)
    spinner = make_scripted_job("spin", [6.0], cpu_limit=8.0,
                                scheduling_class=SchedulingClass.BATCH,
                                profile=QUIET_PROFILE)
    for job in (victim, antagonist, spinner):
        machine.place(job.tasks[0])
    return machine, victim, antagonist, spinner


class TestUsageRanker:
    def test_ranks_hungriest_first(self):
        machine, victim, _, _ = build_machine_with_mix()
        for t in range(30):
            machine.tick(t)
        ranked = rank_by_usage(machine, victim.tasks[0], window=(0, 30))
        # The spinner uses the most CPU -> wrongly accused first.
        assert ranked[0][0].name == "spin/0"
        assert ranked[0][1] > ranked[1][1]

    def test_excludes_victim_jobmates(self):
        machine, victim, _, _ = build_machine_with_mix()
        ranked = rank_by_usage(machine, victim.tasks[0], window=(0, 1))
        assert all(task.job.name != "victim" for task, _ in ranked)


class TestActiveProbe:
    def build_sim(self):
        machine, victim, antagonist, spinner = build_machine_with_mix()
        sim = ClusterSimulation([machine], SimConfig(seed=2))
        return sim, machine, victim, antagonist, spinner

    def test_finds_the_antagonist_eventually(self):
        sim, machine, victim, antagonist, _ = self.build_sim()
        probe = ActiveProbeIdentifier(sim, machine, probe_seconds=20)
        report = probe.identify(victim.tasks[0])
        assert report.identified == "ant/0"

    def test_disrupts_innocents_on_the_way(self):
        # The paper's objection: the spinner (highest CPU) gets probed first
        # and loses real CPU for nothing.
        sim, machine, victim, _, spinner = self.build_sim()
        probe = ActiveProbeIdentifier(sim, machine, probe_seconds=20)
        report = probe.identify(victim.tasks[0])
        assert "spin/0" in report.innocents_disrupted
        assert report.cpu_seconds_denied > 50.0
        assert report.probes_run >= 2
        assert report.seconds_elapsed >= 3 * 20  # baseline + >= 2 probes

    def test_max_probes(self):
        sim, machine, victim, _, _ = self.build_sim()
        probe = ActiveProbeIdentifier(sim, machine, probe_seconds=10)
        report = probe.identify(victim.tasks[0], max_probes=1)
        assert report.probes_run == 1

    def test_validation(self):
        sim, machine, *_ = self.build_sim()
        with pytest.raises(ValueError, match="probe_seconds"):
            ActiveProbeIdentifier(sim, machine, probe_seconds=0)
        with pytest.raises(ValueError, match="improvement_fraction"):
            ActiveProbeIdentifier(sim, machine, improvement_fraction=0.0)
        with pytest.raises(ValueError, match="probe_quota"):
            ActiveProbeIdentifier(sim, machine, probe_quota=-0.1)
