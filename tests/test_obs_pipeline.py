"""Observability threaded through the control loop: drop events, traces,
follow-up purging, and metric/incident consistency."""

import json

import pytest

from repro import (
    ClusterSimulation,
    CpiConfig,
    CpiPipeline,
    CpiSpec,
    Job,
    Machine,
    Observability,
    SimConfig,
    get_platform,
)
from repro.cli import _format_incident_line, main
from repro.cluster.task import SchedulingClass
from repro.core.agent import MachineAgent
from repro.core.policy import PolicyAction
from repro.core.samplebatch import SampleColumns
from repro.obs import reset_logging
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import SpecKey
from repro.testing import (
    NOISY_NEIGHBOR_PROFILE,
    SENSITIVE_PROFILE,
    make_quiet_machine,
    make_scripted_job,
)
from repro.workloads import AntagonistKind, make_antagonist_job_spec
from repro.workloads.services import make_service_job_spec
from tests.conftest import make_sample, make_spec

FAST = CpiConfig(sampling_duration=5, sampling_period=15,
                 anomaly_window=120, correlation_window=300)


def capture_obs():
    """A fresh Observability with its events mirrored into a list."""
    obs = Observability()
    events = []
    obs.events.add_sink(events.append)
    return obs, events


def drops(events, reason=None):
    return [e for e in events if e["event"] == "analysis_dropped"
            and (reason is None or e["reason"] == reason)]


def build_rig(config=FAST, obs=None, with_antagonist=True):
    machine = make_quiet_machine()
    sampler = CpiSampler(machine, SamplerConfig(config.sampling_duration,
                                                config.sampling_period))
    agent = MachineAgent(machine, config, obs=obs)
    victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                               base_cpi=1.0, profile=SENSITIVE_PROFILE)
    machine.place(victim.tasks[0])
    if with_antagonist:
        antagonist = make_scripted_job(
            "ant", [6.0], cpu_limit=8.0,
            scheduling_class=SchedulingClass.BATCH,
            profile=NOISY_NEIGHBOR_PROFILE)
        machine.place(antagonist.tasks[0])
    agent.update_specs({
        SpecKey("victim", machine.platform.name): make_spec(
            jobname="victim", cpi_mean=1.0, cpi_stddev=0.1),
    })
    return machine, sampler, agent


def run_rig(machine, sampler, agent, seconds):
    for t in range(seconds):
        machine.tick(t)
        agent.tick(t)
        samples = sampler.tick(t)
        if samples:
            agent.ingest_samples(t, samples)


def anomaly_samples(taskname, times, platforminfo="westmere-2.6"):
    """A window of samples hot enough to flag at every timestamp given."""
    return SampleColumns.from_samples(
        [make_sample(jobname=taskname.split("/")[0],
                     platforminfo=platforminfo, t=t, cpu_usage=1.0, cpi=5.0,
                     taskname=taskname)
         for t in times])


class TestDropEvents:
    """Every silent drop path emits a distinct, counted, structured event."""

    def test_rate_limited_drop(self):
        # Two victims go anomalous inside the same ingest batch: the second
        # analysis hits the one-per-second rate limit.
        obs, events = capture_obs()
        config = FAST
        machine = make_quiet_machine()
        sampler = CpiSampler(machine, SamplerConfig(5, 15))
        agent = MachineAgent(machine, config, obs=obs)
        for name in ("v1", "v2"):
            job = make_scripted_job(name, [1.0], cpu_limit=2.0, base_cpi=1.0,
                                    profile=SENSITIVE_PROFILE)
            machine.place(job.tasks[0])
        antagonist = make_scripted_job(
            "ant", [6.0], cpu_limit=8.0,
            scheduling_class=SchedulingClass.BATCH,
            profile=NOISY_NEIGHBOR_PROFILE)
        machine.place(antagonist.tasks[0])
        agent.update_specs({
            SpecKey(name, machine.platform.name): make_spec(
                jobname=name, cpi_mean=1.0, cpi_stddev=0.1)
            for name in ("v1", "v2")
        })
        run_rig(machine, sampler, agent, 65)
        dropped = drops(events, "rate_limited")
        assert dropped
        assert dropped[0]["machine"] == machine.name
        assert obs.metrics.value("analyses_dropped",
                                 reason="rate_limited") == len(dropped)
        assert obs.metrics.value("analyses_rate_limited") == len(dropped)

    def test_victim_departed_drop(self):
        obs, events = capture_obs()
        machine = make_quiet_machine()
        agent = MachineAgent(machine, FAST, obs=obs)
        agent.update_specs({
            SpecKey("ghost", machine.platform.name): make_spec(
                jobname="ghost", cpi_mean=1.0, cpi_stddev=0.1),
        })
        # Three flagged samples for a task the machine does not host.
        for t in (0, 15, 30):
            agent.ingest_samples(t, anomaly_samples("ghost/0", [t]))
        dropped = drops(events, "victim_departed")
        assert len(dropped) == 1
        assert dropped[0]["task"] == "ghost/0"
        assert obs.metrics.value("analyses_dropped",
                                 reason="victim_departed") == 1

    def test_followup_in_flight_drop(self):
        # A cap that never expires inside the run keeps the follow-up open;
        # continued anomalies must be dropped (and now visibly so).
        obs, events = capture_obs()
        config = FAST.with_overrides(hardcap_duration=600)
        machine, sampler, agent = build_rig(config, obs=obs)
        run_rig(machine, sampler, agent, 200)
        throttles = [i for i in agent.incidents
                     if i.decision.action is PolicyAction.THROTTLE]
        assert len(throttles) == 1
        # The victim looks anomalous again while the cap is still in force.
        for t in (215, 230, 245):
            agent.ingest_samples(t, anomaly_samples(
                "victim/0", [t], platforminfo=machine.platform.name))
        dropped = drops(events, "followup_in_flight")
        assert dropped
        assert obs.metrics.value("analyses_dropped",
                                 reason="followup_in_flight") == len(dropped)

    def test_too_few_samples_drop(self):
        # A short correlation window leaves <2 usable victim samples.
        obs, events = capture_obs()
        config = FAST.with_overrides(correlation_window=10)
        machine = make_quiet_machine()
        agent = MachineAgent(machine, config, obs=obs)
        victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                                   base_cpi=1.0, profile=SENSITIVE_PROFILE)
        machine.place(victim.tasks[0])
        agent.update_specs({
            SpecKey("victim", machine.platform.name): make_spec(
                jobname="victim", cpi_mean=1.0, cpi_stddev=0.1),
        })
        for t in (0, 60, 120):
            agent.ingest_samples(t, anomaly_samples("victim/0", [t]))
        dropped = drops(events, "too_few_samples")
        assert len(dropped) == 1
        assert obs.metrics.value("analyses_dropped",
                                 reason="too_few_samples") == 1

    def test_no_cotenants_drop(self):
        obs, events = capture_obs()
        machine = make_quiet_machine()
        agent = MachineAgent(machine, FAST, obs=obs)
        victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                                   base_cpi=1.0, profile=SENSITIVE_PROFILE)
        machine.place(victim.tasks[0])
        agent.update_specs({
            SpecKey("victim", machine.platform.name): make_spec(
                jobname="victim", cpi_mean=1.0, cpi_stddev=0.1),
        })
        for t in (0, 60, 120):
            agent.ingest_samples(t, anomaly_samples("victim/0", [t]))
        dropped = drops(events, "no_cotenants")
        assert len(dropped) == 1
        assert obs.metrics.value("analyses_dropped", reason="no_cotenants") == 1

    def test_all_reasons_share_one_counter_family(self):
        obs, _ = capture_obs()
        machine = make_quiet_machine()
        agent = MachineAgent(machine, FAST, obs=obs)
        agent.update_specs({
            SpecKey("ghost", machine.platform.name): make_spec(
                jobname="ghost", cpi_mean=1.0, cpi_stddev=0.1),
        })
        for t in (0, 15, 30):
            agent.ingest_samples(t, anomaly_samples("ghost/0", [t]))
        assert obs.metrics.total("analyses_dropped") == 1


class TestAnomalyAndIncidentTelemetry:
    def test_anomaly_event_and_metrics(self):
        obs, events = capture_obs()
        machine, sampler, agent = build_rig(obs=obs)
        run_rig(machine, sampler, agent, 180)
        anomalies = [e for e in events if e["event"] == "anomaly_detected"]
        assert anomalies
        assert anomalies[0]["task"] == "victim/0"
        assert obs.metrics.value("anomalies_detected") == len(anomalies)
        assert obs.metrics.histograms("victim_cpi")[0].count == len(anomalies)

    def test_incident_carries_stage_trace(self):
        obs, _ = capture_obs()
        config = FAST.with_overrides(hardcap_duration=60)
        machine, sampler, agent = build_rig(config, obs=obs)
        run_rig(machine, sampler, agent, 300)
        throttled = [i for i in agent.incidents
                     if i.decision.action is PolicyAction.THROTTLE]
        assert throttled
        trace = throttled[0].trace
        assert trace is not None
        stages = [s.name for s in trace.spans]
        assert stages == ["detect", "identify", "decide", "actuate",
                          "followup"]
        followup = trace.find_span("followup")
        assert followup.duration == pytest.approx(60, abs=15)
        assert followup.attributes["outcome"] in ("recovered",
                                                  "still_suffering")
        assert trace.attributes["incident_id"] == throttled[0].incident_id

    def test_cap_applied_event_from_throttler(self):
        obs, events = capture_obs()
        machine, sampler, agent = build_rig(obs=obs)
        run_rig(machine, sampler, agent, 180)
        caps = [e for e in events if e["event"] == "cap_applied"]
        assert caps
        assert caps[0]["task"] == "ant/0"
        assert caps[0]["victim"] == "victim/0"
        assert obs.metrics.value("caps_applied") == len(caps)


class TestFollowupPurge:
    def test_departed_victim_purges_followup_and_finalises(self):
        obs, events = capture_obs()
        sunk = []
        config = FAST.with_overrides(hardcap_duration=600)
        machine, sampler, agent = build_rig(config, obs=obs)
        agent.incident_sink = sunk.append
        run_rig(machine, sampler, agent, 200)
        assert len(agent._followups) == 1
        incident = agent._followups[0].incident

        from repro.cluster.task import TaskState
        machine.remove("victim/0", TaskState.COMPLETED, 200)
        agent.forget_task("victim/0", now=200)

        assert agent._followups == []
        assert incident.recovered is True
        assert incident.post_cpi is None
        assert incident.relative_cpi is None
        assert incident in sunk
        purged = [e for e in events if e["event"] == "followup_purged"]
        assert len(purged) == 1
        assert purged[0]["reason"] == "victim_departed"
        assert obs.metrics.value("followups_purged") == 1
        assert obs.metrics.value("followups_completed",
                                 outcome="victim_gone") == 1

    def test_purge_unblocks_new_analysis_for_reused_name(self):
        # The in-flight check keys on task name; a stale follow-up for a
        # departed victim must not block a replacement task's analyses.
        config = FAST.with_overrides(hardcap_duration=600)
        machine, sampler, agent = build_rig(config)
        run_rig(machine, sampler, agent, 200)
        assert len(agent._followups) == 1

        from repro.cluster.task import TaskState
        machine.remove("victim/0", TaskState.COMPLETED, 200)
        agent.forget_task("victim/0", now=200)

        replacement = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                                        base_cpi=1.0,
                                        profile=SENSITIVE_PROFILE)
        machine.place(replacement.tasks[0])
        for t in (215, 230, 245):
            agent.ingest_samples(t, anomaly_samples(
                "victim/0", [t], platforminfo=machine.platform.name))
        # With the follow-up purged the new anomaly reaches a decision
        # instead of being swallowed by the in-flight check.
        assert len(agent.incidents) >= 2

    def test_forget_task_without_followups_still_clears_state(self):
        machine, sampler, agent = build_rig()
        run_rig(machine, sampler, agent, 60)
        agent.forget_task("victim/0")
        assert agent.detector.violations_for("victim/0") == 0
        assert agent._followups == []


class TestPipelineMetricsConsistency:
    def make_demo_pipeline(self, obs, minutes=12, seed=42):
        platform = get_platform("westmere-2.6")
        machine = Machine("demo", platform, cpi_noise_sigma=0.03)
        sim = ClusterSimulation([machine], SimConfig(seed=seed))
        pipeline = CpiPipeline(sim, CpiConfig(), obs=obs)
        sim.scheduler.submit(Job(make_service_job_spec(
            "frontend", num_tasks=1, seed=seed)))
        sim.scheduler.submit(Job(make_antagonist_job_spec(
            "video", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
            seed=seed + 1, demand_scale=1.3)))
        pipeline.bootstrap_specs([CpiSpec("frontend", platform.name, 10_000,
                                          1.0, 1.05, 0.08)])
        sim.run_minutes(minutes)
        return pipeline

    def test_incident_counts_match_incidents_by_action(self):
        obs = Observability()
        pipeline = self.make_demo_pipeline(obs)
        incidents = pipeline.all_incidents()
        assert incidents
        assert obs.metrics.total("incidents_by_action") == len(incidents)
        for action in {i.decision.action.value for i in incidents}:
            expected = sum(1 for i in incidents
                           if i.decision.action.value == action)
            assert obs.metrics.value("incidents_by_action",
                                     action=action) == expected

    def test_pipeline_wide_counters(self):
        obs = Observability()
        pipeline = self.make_demo_pipeline(obs)
        assert obs.metrics.value("samples_ingested") == pipeline.total_samples
        assert obs.metrics.value("sim_ticks") == pipeline.simulation.now
        report = pipeline.metrics_report()
        assert "incidents_by_action" in report
        assert "samples_ingested" in report

    def test_events_are_sim_time_stamped(self):
        obs = Observability()
        events = []
        obs.events.add_sink(events.append)
        self.make_demo_pipeline(obs)
        stamped = [e for e in events if e["event"] == "anomaly_detected"]
        assert stamped
        assert all(isinstance(e["t"], int) for e in stamped)


class TestCliObservability:
    def teardown_method(self):
        reset_logging()

    def test_relative_cpi_none_formats_as_na(self):
        # The departed-victim follow-up leaves recovered=True with no
        # post-CPI; the demo output must print n/a, not crash.
        from repro.core.agent import Incident
        from repro.core.policy import PolicyAction, PolicyDecision
        incident = Incident(
            incident_id=1, machine="m", time_seconds=60,
            victim_taskname="v/0", victim_jobname="v", victim_cpi=2.0,
            cpi_threshold=1.5, suspects=[],
            decision=PolicyDecision(action=PolicyAction.THROTTLE),
            post_cpi=None, recovered=True,
        )
        line = _format_incident_line(incident)
        assert "relative CPI=n/a" in line
        assert "recovered=True" in line

    def test_relative_cpi_present_formats_number(self):
        from repro.core.agent import Incident
        from repro.core.policy import PolicyAction, PolicyDecision
        incident = Incident(
            incident_id=2, machine="m", time_seconds=60,
            victim_taskname="v/0", victim_jobname="v", victim_cpi=2.0,
            cpi_threshold=1.5, suspects=[],
            decision=PolicyDecision(action=PolicyAction.THROTTLE),
            post_cpi=1.0, recovered=True,
        )
        assert "relative CPI=0.50" in _format_incident_line(incident)

    def test_demo_with_log_json_writes_parseable_events(self, tmp_path,
                                                        capsys):
        log_path = tmp_path / "run.jsonl"
        trace_path = tmp_path / "traces.jsonl"
        assert main(["demo", "--minutes", "10",
                     "--log-json", str(log_path),
                     "--trace-json", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "incidents_by_action" in out
        events = [json.loads(line)
                  for line in log_path.read_text().strip().splitlines()]
        kinds = {e["event"] for e in events}
        assert "anomaly_detected" in kinds
        assert "cap_applied" in kinds
        traces = [json.loads(line)
                  for line in trace_path.read_text().strip().splitlines()]
        assert traces
        assert {s["name"] for s in traces[0]["spans"]} >= {"detect",
                                                           "identify",
                                                           "decide"}

    def test_parser_accepts_obs_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["demo", "--minutes", "5", "--log-level", "debug",
             "--log-json", "x.jsonl", "--trace-json", "t.jsonl"])
        assert args.log_level == "debug"
        assert args.log_json == "x.jsonl"
        assert args.trace_json == "t.jsonl"
        args = build_parser().parse_args(["experiment", "table2",
                                          "--log-level", "info"])
        assert args.log_level == "info"
