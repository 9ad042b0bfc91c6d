"""End-to-end tests: fault plane wiring, degraded mode, CLI, chaos sweep."""

import math

import pytest

from repro.cluster.job import Job
from repro.cluster.machine import Machine
from repro.cluster.platform import get_platform
from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.core.agent import MachineAgent
from repro.core.config import CpiConfig
from repro.core.pipeline import CpiPipeline
from repro.core.samplebatch import SampleColumns
from repro.faults.plane import FaultPlane
from repro.obs import Observability
from repro.records import CpiSpec, SpecKey
from repro.testing import make_quiet_machine, make_scripted_job
from repro.workloads import AntagonistKind, make_antagonist_job_spec
from repro.workloads.services import make_service_job_spec
from tests.conftest import make_sample, make_spec


def build_demo_pipeline(fault_profile=None, fault_seed=0, minutes=0):
    platform = get_platform("westmere-2.6")
    machine = Machine("demo", platform, cpi_noise_sigma=0.03)
    sim = ClusterSimulation([machine], SimConfig(seed=42))
    pipeline = CpiPipeline(sim, CpiConfig(), obs=Observability(),
                           fault_profile=fault_profile, fault_seed=fault_seed)
    sim.scheduler.submit(Job(make_service_job_spec("frontend", num_tasks=1,
                                                   seed=42)))
    sim.scheduler.submit(Job(make_antagonist_job_spec(
        "video", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
        seed=43, demand_scale=1.3)))
    pipeline.bootstrap_specs([CpiSpec("frontend", platform.name, 10_000,
                                      1.0, 1.05, 0.08)])
    if minutes:
        sim.run_minutes(minutes)
    return pipeline


class TestZeroProfileBypass:
    def test_default_and_none_skip_the_fault_plane(self):
        assert build_demo_pipeline().faults is None
        assert build_demo_pipeline(fault_profile="none").faults is None

    def test_nonzero_profile_builds_the_plane(self):
        pipeline = build_demo_pipeline(fault_profile="moderate")
        assert isinstance(pipeline.faults, FaultPlane)

    def test_none_profile_run_matches_no_argument_run(self):
        baseline = build_demo_pipeline(minutes=30)
        explicit = build_demo_pipeline(fault_profile="none", minutes=30)
        key = lambda p: [(i.time_seconds, i.victim_taskname,
                          i.decision.action.value,
                          round(i.victim_cpi, 9))
                         for i in p.all_incidents()]
        assert key(baseline) == key(explicit)

    def test_fault_seed_does_not_perturb_workload(self):
        # Different fault seeds, zero profile: identical runs.
        run_a = build_demo_pipeline(fault_profile="none", fault_seed=1,
                                    minutes=20)
        run_b = build_demo_pipeline(fault_profile="none", fault_seed=2,
                                    minutes=20)
        assert ([i.time_seconds for i in run_a.all_incidents()]
                == [i.time_seconds for i in run_b.all_incidents()])


class TestFaultedEndToEnd:
    def test_moderate_run_detects_and_loses_nothing_silently(self):
        pipeline = build_demo_pipeline(fault_profile="moderate",
                                       fault_seed=7, minutes=60)
        assert pipeline.all_incidents()  # detection survives the faults
        plane = pipeline.faults
        assert plane.total_faults_injected > 0
        observed = int(pipeline.obs.metrics.total("transport_faults")
                       + pipeline.obs.metrics.total("agent_crashes"))
        assert observed == plane.total_faults_injected
        # Nothing corrupt leaked into the published specs.
        for spec in pipeline.aggregator.specs().values():
            assert math.isfinite(spec.cpi_mean)
            assert math.isfinite(spec.cpi_stddev)
            assert spec.cpi_mean <= pipeline.config.quarantine_cpi_bound

    def test_uploads_survive_drops_via_retries(self):
        pipeline = build_demo_pipeline(fault_profile="moderate",
                                       fault_seed=7, minutes=60)
        metrics = pipeline.obs.metrics
        sent = metrics.total("upload_batches_sent")
        acked = metrics.total("upload_batches_acked")
        assert sent > 0
        # With drops at 5% and 5 attempts, nearly everything lands.
        assert acked >= 0.9 * sent
        assert pipeline.aggregator.total_samples_ingested > 0


class TestDegradedMode:
    def make_agent(self, spec_refresh_period=60, spec_ttl_periods=3.0):
        obs = Observability()
        machine = make_quiet_machine()
        job = make_scripted_job("victim", [1.0])
        machine.place(job.tasks[0])
        config = CpiConfig(spec_refresh_period=spec_refresh_period,
                           spec_ttl_periods=spec_ttl_periods)
        agent = MachineAgent(machine, config, obs=obs)
        return agent, obs

    def spec_map(self, agent):
        return {SpecKey("victim", agent.machine.platform.name):
                make_spec(jobname="victim")}

    def test_bootstrap_specs_never_go_stale(self):
        agent, obs = self.make_agent()
        agent.update_specs(self.spec_map(agent))  # no issue time: bootstrap
        assert agent.spec_staleness(10**9) is None
        assert not agent.specs_too_stale(10**9)

    def test_stale_specs_suppress_detection_with_counted_reason(self):
        agent, obs = self.make_agent()
        agent.receive_spec_push(0, self.spec_map(agent), issued_at=0)
        # TTL is 3 x 60s; at t=300 the specs are 300s old -> degraded.
        sample = make_sample(jobname="victim", taskname="victim/0",
                             t=300, cpi=5.0)
        agent.ingest_samples(300, SampleColumns.from_samples([sample]))
        assert agent._degraded
        dropped = [c for c in obs.metrics.counters("analyses_dropped")
                   if ("reason", "stale_spec") in c.labels]
        assert dropped and dropped[0].value == 1
        # The sample still fed the window (follow-ups keep working).
        assert len(agent._windows["victim/0"].samples) == 1
        assert agent.anomalies_seen == 0

    def test_fresh_push_exits_degraded_mode(self):
        agent, obs = self.make_agent()
        agent.receive_spec_push(0, self.spec_map(agent), issued_at=0)
        agent.ingest_samples(300, SampleColumns.from_samples(
            [make_sample(jobname="victim", taskname="victim/0", t=300)]))
        assert agent._degraded
        agent.receive_spec_push(301, self.spec_map(agent), issued_at=301)
        assert not agent._degraded
        assert obs.metrics.value("degraded_agents") == 0

    def test_out_of_order_push_is_ignored(self):
        agent, obs = self.make_agent()
        fresh = self.spec_map(agent)
        agent.receive_spec_push(100, fresh, issued_at=100)
        stale_map = {SpecKey("victim", agent.machine.platform.name):
                     make_spec(jobname="victim", cpi_mean=9.9)}
        agent.receive_spec_push(130, stale_map, issued_at=50)  # reordered
        assert agent.spec_for("victim").cpi_mean != 9.9
        assert obs.metrics.total("spec_pushes_ignored") == 1

    def test_implausible_entry_falls_back_to_last_known_good(self):
        agent, obs = self.make_agent()
        good = self.spec_map(agent)
        agent.receive_spec_push(0, good, issued_at=0)
        corrupted = {SpecKey("victim", agent.machine.platform.name):
                     make_spec(jobname="victim", cpi_mean=float("nan"))}
        agent.receive_spec_push(60, corrupted, issued_at=60)
        kept = agent.spec_for("victim")
        assert kept is not None and math.isfinite(kept.cpi_mean)
        assert obs.metrics.total("spec_entries_rejected") == 1

    def test_implausible_entry_without_predecessor_is_dropped(self):
        agent, obs = self.make_agent()
        corrupted = {SpecKey("victim", agent.machine.platform.name):
                     make_spec(jobname="victim", cpi_mean=float("nan"))}
        agent.receive_spec_push(0, corrupted, issued_at=0)
        assert agent.spec_for("victim") is None


class TestCli:
    def test_demo_accepts_fault_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["demo", "--fault-profile", "moderate", "--fault-seed", "7"])
        assert args.fault_profile == "moderate"
        assert args.fault_seed == 7

    def test_demo_defaults_to_no_faults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["demo"])
        assert args.fault_profile == "none"
        assert args.fault_seed == 0

    def test_unknown_profile_rejected_at_parse_time(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--fault-profile", "nuclear"])


class TestChaosSweep:
    def test_small_sweep_reports_visible_faults_and_precision(self):
        from repro.experiments.chaos import chaos_sweep

        result = chaos_sweep(profiles=("none", "moderate"), num_machines=1,
                             hours=0.5, seed=0, fault_seed=3)
        clean = result.cell("none")
        faulted = result.cell("moderate")
        assert clean.faults_injected == 0
        assert faulted.faults_injected > 0
        assert faulted.all_faults_visible
        assert 0.0 <= faulted.precision <= 1.0
        assert result.precision_retention("moderate") >= 0.0

    def test_registry_knows_chaos(self):
        from repro.experiments.registry import EXPERIMENTS
        assert "chaos" in EXPERIMENTS
