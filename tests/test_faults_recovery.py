"""Tests for agent checkpointing, crash, and deterministic recovery."""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.task import SchedulingClass
from repro.core.agent import MachineAgent
from repro.core.config import CpiConfig
from repro.core.policy import PolicyAction
from repro.core.samplebatch import SampleColumns
from repro.core.window import WINDOW_CAPACITY, ColumnarWindow
from repro.faults.checkpoint import (CHECKPOINT_VERSION, AgentCheckpoint,
                                     CheckpointFormatError,
                                     CheckpointVersionError, FollowUpState)
from repro.obs import Observability
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import CpiSample, SpecKey
from repro.testing import (
    NOISY_NEIGHBOR_PROFILE,
    SENSITIVE_PROFILE,
    make_quiet_machine,
    make_scripted_job,
)
from tests.conftest import make_sample, make_spec
from tests.reference import checkpoint as reference_checkpoint

FAST = CpiConfig(sampling_duration=5, sampling_period=15,
                 anomaly_window=120, correlation_window=300,
                 hardcap_duration=120)


def build_rig(config=FAST):
    """Machine + sampler + agent with a sensitive victim and an antagonist."""
    obs = Observability()
    machine = make_quiet_machine()
    sampler = CpiSampler(machine, SamplerConfig(config.sampling_duration,
                                                config.sampling_period))
    agent = MachineAgent(machine, config, obs=obs)
    victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                               base_cpi=1.0, profile=SENSITIVE_PROFILE)
    machine.place(victim.tasks[0])
    antagonist = make_scripted_job("ant", [6.0], cpu_limit=8.0,
                                   scheduling_class=SchedulingClass.BATCH,
                                   profile=NOISY_NEIGHBOR_PROFILE)
    machine.place(antagonist.tasks[0])
    agent.update_specs({SpecKey("victim", machine.platform.name):
                        make_spec(jobname="victim", cpi_mean=1.0,
                                  cpi_stddev=0.1)})
    return machine, sampler, agent, obs


def run_rig(machine, sampler, agent, start, stop):
    for t in range(start, stop):
        machine.tick(t)
        agent.tick(t)
        samples = sampler.tick(t)
        if samples:
            agent.ingest_samples(t, samples)


def run_until_followup(machine, sampler, agent, limit=600):
    for t in range(limit):
        machine.tick(t)
        agent.tick(t)
        samples = sampler.tick(t)
        if samples:
            agent.ingest_samples(t, samples)
        if agent._followups:
            return t
    raise AssertionError("no follow-up in flight within the limit")


def window_fingerprint(window):
    """Every column bit for bit (floats by ``float.hex``) and the metadata."""
    return (window.taskname,
            window.timestamps_us.tolist(),
            window.timestamps_sec.tolist(),
            [value.hex() for value in window.cpu_usage.tolist()],
            [value.hex() for value in window.cpi.tolist()],
            list(window._meta))


def windows_fingerprint(windows):
    return {name: window_fingerprint(window)
            for name, window in windows.items()}


class TestCheckpointSerialisation:
    def test_round_trips_through_json(self):
        window = ColumnarWindow.from_samples("victim/0", [CpiSample(
            jobname="victim", platforminfo="p", timestamp=1, cpu_usage=1.0,
            cpi=1.5, taskname="victim/0")])
        checkpoint = AgentCheckpoint(
            machine="m0", taken_at=120, last_analysis=90, anomalies_seen=3,
            windows={"victim/0": window},
            detector_flags={"victim/0": [60, 120]},
            followups=[FollowUpState(
                due_at=300, victim_taskname="victim/0",
                antagonist_taskname="ant/0", incident_id=12,
                incident_time=120, victim_jobname="victim",
                victim_cpi=1.9, cpi_threshold=1.2, action="throttle")],
        )
        assert checkpoint.to_dict()["windows"] == {"victim/0": [
            {"jobname": "victim", "platforminfo": "p", "timestamp": 1,
             "cpu_usage": 1.0, "cpi": 1.5, "taskname": "victim/0"}]}
        wire = json.dumps(checkpoint.to_dict())
        restored = AgentCheckpoint.from_dict(json.loads(wire))
        assert restored.to_dict() == checkpoint.to_dict()

    def test_windows_serialise_like_the_per_sample_dicts(self):
        machine, sampler, agent, obs = build_rig()
        # Past 2 x capacity samples per task, so every ring has compacted.
        run_rig(machine, sampler, agent, 0, 2100)
        assert agent._windows
        assert all(len(w) == WINDOW_CAPACITY for w in agent._windows.values())
        expected = json.dumps(
            reference_checkpoint.windows_to_dict(agent._windows))
        checkpoint = agent.take_checkpoint(2100)
        assert json.dumps(checkpoint.to_dict()["windows"]) == expected


class TestCrashSemantics:
    def test_crash_wipes_volatile_state_keeps_specs_and_incidents(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        incidents_before = list(agent.incidents)
        assert agent._windows and agent._followups
        agent.crash(t)
        assert agent._windows == {}
        assert agent._followups == []
        assert agent._last_analysis is None
        assert agent.crash_count == 1
        # The spec cache and the incident record survive (persisted state).
        assert agent.spec_for("victim") is not None
        assert agent.incidents == incidents_before
        assert obs.metrics.total("agent_crashes") == 1

    def test_restart_without_checkpoint_relearns_from_scratch(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        agent.crash_and_restart(t)  # no checkpoint was ever taken
        assert agent._followups == []
        # Detection still works after the restart.
        run_rig(machine, sampler, agent, t + 1, t + 400)
        assert agent.anomalies_seen > 0


class TestCheckpointRecovery:
    def test_restore_rearms_followup_and_it_completes(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        incident = agent._followups[0].incident
        agent.take_checkpoint(t)
        agent.crash_and_restart(t)
        assert len(agent._followups) == 1
        assert agent._followups[0].incident is incident  # reused by id
        assert obs.metrics.total("followups_recovered") == 1
        run_rig(machine, sampler, agent, t + 1, t + FAST.hardcap_duration + 60)
        assert incident.recovered is not None  # the follow-up closed

    def test_restore_into_fresh_process_rebuilds_incident(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        checkpoint = AgentCheckpoint.from_dict(
            json.loads(json.dumps(agent.take_checkpoint(t).to_dict())))
        fresh = MachineAgent(machine, FAST, obs=Observability())
        fresh.restore(checkpoint, t)
        assert len(fresh._followups) == 1
        rebuilt = fresh._followups[0].incident
        assert rebuilt.incident_id == checkpoint.followups[0].incident_id
        assert rebuilt.decision.action is PolicyAction.THROTTLE
        assert rebuilt.decision.reason == "restored-from-checkpoint"
        assert rebuilt in fresh.incidents

    def test_restore_finalises_followup_whose_victim_departed(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        checkpoint = agent.take_checkpoint(t)
        sunk = []
        agent.incident_sink = sunk.append
        agent.crash(t)
        from repro.cluster.task import TaskState
        machine.remove("victim/0", TaskState.KILLED)
        agent.restore(checkpoint, t + 30)
        assert agent._followups == []
        assert obs.metrics.total("followups_purged") == 1
        assert len(sunk) == 1 and sunk[0].recovered is True

    def test_restored_windows_match_checkpoint(self):
        machine, sampler, agent, obs = build_rig()
        run_rig(machine, sampler, agent, 0, 120)
        checkpoint = agent.take_checkpoint(120)
        agent.crash(120)
        agent.restore(checkpoint, 125)
        assert checkpoint.windows
        assert agent._windows.keys() == checkpoint.windows.keys()
        for taskname, snapshot in checkpoint.windows.items():
            window = agent._windows[taskname]
            assert window is not snapshot
            assert window_fingerprint(window) == window_fingerprint(snapshot)


class TestSnapshotIndependence:
    """A checkpoint is a copy: later ingest never reaches it, and it can be
    restored any number of times."""

    @settings(max_examples=20, deadline=None)
    @given(n_tasks=st.integers(1, 3),
           n_before=st.integers(2 * WINDOW_CAPACITY + 1, 3 * WINDOW_CAPACITY),
           n_after=st.integers(1, 2 * WINDOW_CAPACITY),
           seed=st.integers(0, 2**32 - 1))
    def test_restores_equal_the_window_at_checkpoint(self, n_tasks, n_before,
                                                     n_after, seed):
        rng = np.random.default_rng(seed)
        machine = make_quiet_machine()
        platform = machine.platform.name
        agent = MachineAgent(machine, FAST, obs=Observability())

        def ingest(start, stop):
            for t in range(start, stop):
                agent.ingest_samples(t, SampleColumns.from_samples([
                    CpiSample(
                        jobname=f"job{k}", platforminfo=platform,
                        timestamp=t * 1_000_000 + int(rng.integers(1_000_000)),
                        cpu_usage=float(rng.uniform(0.0, 4.0)),
                        cpi=float(rng.uniform(0.2, 8.0)),
                        taskname=f"job{k}/0")
                    for k in range(n_tasks)]))

        # Past 2 x capacity appends: every ring has compacted at least once.
        ingest(0, n_before)
        expected = windows_fingerprint(agent._windows)
        assert len(expected) == n_tasks
        checkpoint = agent.take_checkpoint(n_before)
        wire = json.dumps(checkpoint.to_dict())

        t = n_before
        for _ in range(2):
            ingest(t, t + n_after)
            t += n_after
            agent.crash_and_restart(t)
            assert windows_fingerprint(agent._windows) == expected

        fresh = MachineAgent(machine, FAST, obs=Observability())
        assert fresh.restore_from_dict(json.loads(wire), t) is True
        assert windows_fingerprint(fresh._windows) == expected
        assert json.dumps(checkpoint.to_dict()) == wire


class TestCrashRestartDeterminism:
    def run_faulted_demo(self, fault_seed, crash_rate=1.0 / 300.0):
        from repro.cluster.simulation import ClusterSimulation, SimConfig
        from repro.cluster.machine import Machine
        from repro.cluster.job import Job
        from repro.cluster.platform import get_platform
        from repro.core.pipeline import CpiPipeline
        from repro.faults.profile import FAULT_PROFILES
        from repro.records import CpiSpec
        from repro.workloads import AntagonistKind, make_antagonist_job_spec
        from repro.workloads.services import make_service_job_spec

        platform = get_platform("westmere-2.6")
        machine = Machine("demo", platform, cpi_noise_sigma=0.03)
        sim = ClusterSimulation([machine], SimConfig(seed=42))
        profile = FAULT_PROFILES["moderate"].with_overrides(
            agent_crash_rate=crash_rate)
        pipeline = CpiPipeline(sim, CpiConfig(), obs=Observability(),
                               fault_profile=profile, fault_seed=fault_seed)
        sim.scheduler.submit(Job(make_service_job_spec(
            "frontend", num_tasks=1, seed=42)))
        sim.scheduler.submit(Job(make_antagonist_job_spec(
            "video", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
            seed=43, demand_scale=1.3)))
        pipeline.bootstrap_specs([CpiSpec("frontend", platform.name,
                                          10_000, 1.0, 1.05, 0.08)])
        sim.run_minutes(45)
        agent = pipeline.agents["demo"]
        incidents = [(i.machine, i.time_seconds, i.victim_taskname,
                      i.decision.action.value) for i in pipeline.all_incidents()]
        return incidents, agent.crash_count, pipeline.faults.fault_tallies()

    def test_same_fault_seed_replays_same_incidents_and_crashes(self):
        run_a = self.run_faulted_demo(fault_seed=11)
        run_b = self.run_faulted_demo(fault_seed=11)
        assert run_a == run_b
        assert run_a[1] > 0  # the schedule did include crashes

    def test_different_fault_seed_changes_fault_schedule(self):
        _, _, tallies_a = self.run_faulted_demo(fault_seed=11)
        _, _, tallies_b = self.run_faulted_demo(fault_seed=12)
        assert tallies_a != tallies_b


class TestCheckpointVersioning:
    """A stale checkpoint schema must be ignored, never crash the agent."""

    def test_version_field_serialised(self):
        machine, sampler, agent, obs = build_rig()
        checkpoint = agent.take_checkpoint(0)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.to_dict()["version"] == CHECKPOINT_VERSION

    def test_from_dict_rejects_mismatched_version(self):
        machine, sampler, agent, obs = build_rig()
        data = agent.take_checkpoint(0).to_dict()
        data["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointVersionError,
                           match="checkpoint schema version"):
            AgentCheckpoint.from_dict(data)

    def test_from_dict_rejects_missing_version(self):
        machine, sampler, agent, obs = build_rig()
        data = agent.take_checkpoint(0).to_dict()
        del data["version"]
        with pytest.raises(CheckpointVersionError):
            AgentCheckpoint.from_dict(data)

    def test_restore_from_dict_counts_mismatch_and_keeps_working(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        data = agent.take_checkpoint(t).to_dict()
        data["version"] = 99

        agent.crash(t + 1)
        assert agent.restore_from_dict(data, t + 1) is False
        assert obs.metrics.total("checkpoint_version_mismatch") == 1
        assert agent._followups == []          # relearns instead of loading
        # The agent stays functional after rejecting the stale file.
        run_rig(machine, sampler, agent, t + 2, t + 60)

    def test_restore_from_dict_round_trips_current_version(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        data = json.loads(json.dumps(agent.take_checkpoint(t).to_dict()))

        agent.crash(t + 1)
        assert agent.restore_from_dict(data, t + 1) is True
        assert obs.metrics.total("checkpoint_version_mismatch") == 0
        assert len(agent._followups) == 1


_TOP_LEVEL_KEYS = ("version", "machine", "taken_at", "last_analysis",
                   "anomalies_seen", "windows", "detector_flags", "followups")
_SAMPLE_KEYS = ("jobname", "platforminfo", "timestamp", "cpu_usage", "cpi",
                "taskname")
_FOLLOWUP_KEYS = tuple(f.name for f in dataclasses.fields(FollowUpState))


def _first_sample(data):
    return next(iter(data["windows"].values()))[0]


def _set(record, key, value):
    record[key] = value


_DAMAGE = (
    [pytest.param(lambda d, k=k: d.pop(k), id=f"drop-{k}")
     for k in _TOP_LEVEL_KEYS]
    + [pytest.param(lambda d, k=k: _first_sample(d).pop(k),
                    id=f"drop-sample-{k}") for k in _SAMPLE_KEYS]
    + [pytest.param(lambda d, k=k: d["followups"][0].pop(k),
                    id=f"drop-followup-{k}") for k in _FOLLOWUP_KEYS]
    + [
        pytest.param(lambda d: _set(d["followups"][0], "action", "evict"),
                     id="unknown-action"),
        pytest.param(lambda d: _set(d, "anomalies_seen", "3"),
                     id="mistyped-anomalies_seen"),
        pytest.param(lambda d: _set(_first_sample(d), "cpi", "high"),
                     id="mistyped-sample-cpi"),
        pytest.param(lambda d: _set(_first_sample(d), "taskname", "other/0"),
                     id="foreign-sample"),
        pytest.param(lambda d: _set(d["windows"], "victim/0", {}),
                     id="window-not-a-list"),
        pytest.param(lambda d: _set(d["detector_flags"], "victim/0", "60"),
                     id="flags-not-a-list"),
        pytest.param(lambda d: _set(d, "extra", 1), id="unknown-key"),
    ]
)


class TestMalformedCheckpoint:
    """A damaged checkpoint file is rejected, counted, and restores nothing,
    instead of raising out of the agent's start-up."""

    @pytest.fixture(scope="class")
    def serialised(self):
        machine, sampler, agent, obs = build_rig()
        t = run_until_followup(machine, sampler, agent)
        data = json.loads(json.dumps(agent.take_checkpoint(t).to_dict()))
        assert data["windows"] and data["followups"]
        assert data["detector_flags"]
        return machine, t, data

    @pytest.mark.parametrize("damage", _DAMAGE)
    def test_rejected_counted_and_nothing_restored(self, serialised, damage):
        machine, t, pristine = serialised
        data = copy.deepcopy(pristine)
        damage(data)
        obs = Observability()
        agent = MachineAgent(machine, FAST, obs=obs)
        assert agent.restore_from_dict(data, t + 1) is False
        counted = ("checkpoint_version_mismatch" if "version" not in data
                   else "checkpoint_malformed")
        assert obs.metrics.total(counted) == 1
        assert (obs.metrics.total("checkpoint_version_mismatch")
                + obs.metrics.total("checkpoint_malformed")) == 1
        assert agent._windows == {}
        assert agent._followups == []
        assert agent.detector.export_flags() == {}
        assert agent._last_analysis is None
        assert agent.anomalies_seen == 0

    def test_undamaged_copy_restores(self, serialised):
        machine, t, pristine = serialised
        agent = MachineAgent(machine, FAST, obs=Observability())
        assert agent.restore_from_dict(copy.deepcopy(pristine), t + 1) is True
        assert agent._windows and len(agent._followups) == 1

    def test_from_dict_raises_format_error(self, serialised):
        _, _, pristine = serialised
        data = copy.deepcopy(pristine)
        del data["followups"][0]["action"]
        with pytest.raises(CheckpointFormatError, match="follow-up"):
            AgentCheckpoint.from_dict(data)
