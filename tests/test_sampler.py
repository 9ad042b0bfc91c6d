"""Unit tests for repro.perf.sampler (the 10s-per-minute duty cycle)."""

import pytest

from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.testing import make_quiet_machine, make_scripted_job


def run_sampler(machine, sampler, seconds):
    """Drive machine+sampler; returns [(t, samples)] for closed windows."""
    collected = []
    for t in range(seconds):
        machine.tick(t)
        samples = sampler.tick(t)
        if samples:
            collected.append((t, samples.to_samples()))
    return collected


class TestSamplerConfig:
    def test_defaults_match_paper(self):
        config = SamplerConfig()
        assert config.duration_seconds == 10
        assert config.period_seconds == 60

    def test_validation(self):
        with pytest.raises(ValueError, match="duration"):
            SamplerConfig(duration_seconds=0)
        with pytest.raises(ValueError, match="period"):
            SamplerConfig(duration_seconds=10, period_seconds=5)


class TestDutyCycle:
    def test_one_window_per_minute(self):
        machine = make_quiet_machine()
        job = make_scripted_job("j", [1.0], cpu_limit=4.0)
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine)
        collected = run_sampler(machine, sampler, 185)
        # Windows open at t=0,60,120 and close 10s later.
        assert [t for t, _ in collected] == [10, 70, 130]

    def test_sample_fields(self):
        machine = make_quiet_machine()
        job = make_scripted_job("j", [1.5], cpu_limit=4.0, base_cpi=2.0)
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine)
        (_, samples), = run_sampler(machine, sampler, 11)
        sample = samples[0]
        assert sample.jobname == "j"
        assert sample.taskname == "j/0"
        assert sample.platforminfo == machine.platform.name
        assert sample.timestamp == 10 * 1_000_000
        assert sample.cpu_usage == pytest.approx(1.5)
        assert sample.cpi == pytest.approx(2.0 * machine.platform.cpi_scale)

    def test_cpi_averages_over_window(self):
        # Demand toggles 1.0/3.0 each second; the window must smooth it.
        machine = make_quiet_machine()
        job = make_scripted_job("j", [1.0, 3.0], cpu_limit=4.0)
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine)
        (_, samples), = run_sampler(machine, sampler, 11)
        assert samples[0].cpu_usage == pytest.approx(2.0)

    def test_idle_task_yields_no_sample(self):
        machine = make_quiet_machine()
        job = make_scripted_job("j", [0.0], cpu_limit=4.0)
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine)
        collected = run_sampler(machine, sampler, 61)
        assert collected == []

    def test_mid_window_arrival_skipped_once(self):
        machine = make_quiet_machine()
        sampler = CpiSampler(machine)
        job = make_scripted_job("j", [1.0], cpu_limit=4.0)
        collected = []
        for t in range(75):
            if t == 5:  # arrives inside the first window
                machine.place(job.tasks[0])
            machine.tick(t)
            samples = sampler.tick(t)
            if samples:
                collected.append((t, samples))
        # First window (closing at 10) skips it; second (closing at 70) has it.
        assert [t for t, _ in collected] == [70]

    def test_departed_task_dropped(self):
        from repro.cluster.task import TaskState
        machine = make_quiet_machine()
        job = make_scripted_job("j", [1.0], cpu_limit=4.0)
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine)
        collected = []
        for t in range(15):
            machine.tick(t)
            if t == 5:
                machine.remove("j/0", TaskState.KILLED)
            samples = sampler.tick(t)
            if samples:
                collected.append(samples)
        assert collected == []

    def test_multiple_tasks_sampled_together(self):
        machine = make_quiet_machine()
        for name in ("a", "b", "c"):
            job = make_scripted_job(name, [1.0], cpu_limit=4.0)
            machine.place(job.tasks[0])
        sampler = CpiSampler(machine)
        (_, samples), = run_sampler(machine, sampler, 11)
        assert sorted(s.taskname for s in samples) == ["a/0", "b/0", "c/0"]

    def test_custom_duty_cycle(self):
        machine = make_quiet_machine()
        job = make_scripted_job("j", [1.0], cpu_limit=4.0)
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine, SamplerConfig(duration_seconds=5,
                                                    period_seconds=20))
        collected = run_sampler(machine, sampler, 50)
        assert [t for t, _ in collected] == [5, 25, 45]
