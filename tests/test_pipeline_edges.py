"""Edge-case tests for pipeline actuation paths and agent internals."""

import pytest

from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.cluster.task import SchedulingClass
from repro.core.agent import MachineAgent
from repro.core.config import CpiConfig
from repro.core.pipeline import CpiPipeline
from repro.core.policy import AmeliorationPolicy, PolicyAction
from repro.core.samplebatch import SampleColumns
from repro.perf.sampler import SamplerConfig
from repro.testing import (
    NOISY_NEIGHBOR_PROFILE,
    SENSITIVE_PROFILE,
    make_quiet_machine,
    make_scripted_job,
)
from tests.conftest import make_sample, make_spec

FAST = CpiConfig(sampling_duration=5, sampling_period=15,
                 anomaly_window=120, correlation_window=300,
                 hardcap_duration=60)


def victim_antagonist(machine):
    victim = make_scripted_job("victim", [1.0], cpu_limit=2.0, base_cpi=1.0,
                               profile=SENSITIVE_PROFILE)
    antagonist = make_scripted_job("ant", [6.0], cpu_limit=8.0,
                                   scheduling_class=SchedulingClass.BATCH,
                                   profile=NOISY_NEIGHBOR_PROFILE)
    machine.place(victim.tasks[0])
    machine.place(antagonist.tasks[0])
    return victim, antagonist


class TestMigrationActuation:
    def build(self, n_machines, migrate_after=1):
        machines = [make_quiet_machine(f"m{i}") for i in range(n_machines)]
        sim = ClusterSimulation(machines, SimConfig(
            seed=2, sampler=SamplerConfig(FAST.sampling_duration,
                                          FAST.sampling_period)))
        pipeline = CpiPipeline(sim, FAST, enable_migration=True)
        # Make escalation quick: one failed throttle -> migrate the victim.
        for agent in pipeline.agents.values():
            agent.policy = AmeliorationPolicy(
                FAST, migrate_after_failures=migrate_after)
        victim, antagonist = victim_antagonist(machines[0])
        sim.scheduler.jobs[victim.name] = victim
        sim.scheduler.jobs[antagonist.name] = antagonist
        pipeline.bootstrap_specs([make_spec(jobname="victim", cpi_mean=1.0,
                                            cpi_stddev=0.1)])
        return sim, pipeline, victim, antagonist

    def test_migration_with_nowhere_to_go_is_graceful(self):
        # One machine: MIGRATE_VICTIM decisions cannot be actuated; the
        # pipeline must swallow the PlacementError and keep running.
        sim, pipeline, victim, _ = self.build(1)
        # Force failed throttles: antagonist so strong the victim never
        # recovers below threshold? Easiest: make every followup 'fail' by
        # keeping a second uncapped antagonist around.
        second = make_scripted_job("ant2", [6.0], cpu_limit=8.0,
                                   scheduling_class=SchedulingClass.BATCH,
                                   profile=NOISY_NEIGHBOR_PROFILE)
        sim.machines["m0"].place(second.tasks[0])
        sim.run_minutes(20)
        # The victim is still on the only machine, still running.
        assert victim.tasks[0].machine_name == "m0"

    def test_migration_moves_victim_when_possible(self):
        sim, pipeline, victim, _ = self.build(2)
        second = make_scripted_job("ant2", [6.0], cpu_limit=8.0,
                                   scheduling_class=SchedulingClass.BATCH,
                                   profile=NOISY_NEIGHBOR_PROFILE)
        sim.machines["m0"].place(second.tasks[0])
        sim.scheduler.jobs["ant2"] = second
        sim.run_minutes(25)
        migrations = [i for i in pipeline.all_incidents()
                      if i.decision.action is PolicyAction.MIGRATE_VICTIM]
        if migrations:  # escalation reached
            assert victim.tasks[0].machine_name == "m1"


class TestAgentInternals:
    def test_recent_cpi_requires_samples_after_since(self):
        machine = make_quiet_machine()
        agent = MachineAgent(machine, FAST)
        agent.ingest_samples(60, SampleColumns.from_samples(
            [make_sample(jobname="j", taskname="j/0", t=60, cpi=1.5)]))
        assert agent._recent_cpi("j/0", since=0) == pytest.approx(1.5)
        assert agent._recent_cpi("j/0", since=60) is None
        assert agent._recent_cpi("ghost/0", since=0) is None

    def test_victim_series_respects_window(self):
        machine = make_quiet_machine()
        agent = MachineAgent(machine, FAST)  # correlation_window = 300
        for minute, cpi in ((1, 1.0), (4, 2.0), (9, 3.0)):
            agent.ingest_samples(minute * 60, SampleColumns.from_samples(
                [make_sample(jobname="j", taskname="j/0", t=minute * 60,
                             cpi=cpi)]))
        timestamps, cpis = agent._victim_series("j/0", now=9 * 60)
        # Only samples within the last 300 s of t=540 qualify: t=240? no
        # (540-300=240, strict >): t=240 excluded, t=540 included.
        assert timestamps == [540]
        assert cpis == [3.0]

    def test_no_suspects_means_no_incident(self):
        # A lone task that goes anomalous (no co-tenants) raises nothing.
        machine = make_quiet_machine()
        from repro.records import SpecKey
        agent = MachineAgent(machine, FAST.with_overrides(
            anomaly_violations=1))
        job = make_scripted_job("only", [1.0], cpu_limit=2.0)
        machine.place(job.tasks[0])
        agent.update_specs({SpecKey("only", machine.platform.name):
                            make_spec(jobname="only", cpi_mean=0.5,
                                      cpi_stddev=0.01)})
        incidents = agent.ingest_samples(60, SampleColumns.from_samples(
            [make_sample(jobname="only", taskname="only/0", t=60, cpi=5.0)]))
        assert incidents == []
        assert agent.anomalies_seen == 1
