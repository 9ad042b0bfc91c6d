"""Unit tests for repro.workloads.antagonists and repro.workloads.services."""

import numpy as np
import pytest

from repro.cluster.job import Job
from repro.cluster.task import SchedulingClass
from repro.workloads.antagonists import (
    AntagonistKind,
    make_antagonist_job_spec,
    make_antagonist_workload,
)
from repro.workloads.services import (
    make_bimodal_frontend_spec,
    make_service_job_spec,
    make_service_workload,
)


class TestAntagonistArchetypes:
    @pytest.mark.parametrize("kind", list(AntagonistKind))
    def test_every_kind_builds(self, kind):
        workload = make_antagonist_workload(kind, np.random.default_rng(0))
        assert workload.base_cpi() > 0
        assert workload.cpu_demand(0) >= 0
        assert workload.thread_count(0) >= 1

    def test_bursty_demand(self):
        workload = make_antagonist_workload(
            AntagonistKind.VIDEO_PROCESSING, np.random.default_rng(0),
            phase=0, demand_noise=0.0)
        demands = [workload.cpu_demand(t) for t in range(0, 600, 10)]
        assert max(demands) > 3 * min(demands)

    def test_spinner_is_innocent(self):
        # High CPU, negligible shared-resource footprint.
        spinner = make_antagonist_workload(
            AntagonistKind.CPU_SPINNER, np.random.default_rng(0))
        heavy = make_antagonist_workload(
            AntagonistKind.CACHE_THRASHER, np.random.default_rng(0))
        assert (spinner.resource_profile().cache_mib_per_cpu
                < heavy.resource_profile().cache_mib_per_cpu / 50)

    def test_phase_randomised_across_tasks(self):
        spec = make_antagonist_job_spec(
            "v", AntagonistKind.VIDEO_PROCESSING, num_tasks=4, seed=2)
        job = Job(spec)
        series = [tuple(t.workload.cpu_demand(x) for x in range(0, 600, 60))
                  for t in job]
        assert len(set(series)) > 1

    def test_best_effort_option(self):
        spec = make_antagonist_job_spec("v", AntagonistKind.REPLAYER,
                                        best_effort=True)
        assert spec.scheduling_class is SchedulingClass.BEST_EFFORT

    def test_demand_scale(self):
        base = make_antagonist_workload(
            AntagonistKind.MEMBW_HOG, np.random.default_rng(0), phase=0,
            demand_noise=0.0)
        scaled = make_antagonist_workload(
            AntagonistKind.MEMBW_HOG, np.random.default_rng(0), phase=0,
            demand_scale=2.0, demand_noise=0.0)
        assert scaled.cpu_demand(0) == pytest.approx(2 * base.cpu_demand(0))


class TestServices:
    def test_service_workload(self):
        workload = make_service_workload(np.random.default_rng(0),
                                         base_cpi=1.2, demand_level=1.5)
        assert workload.base_cpi() == 1.2
        demands = [workload.cpu_demand(t) for t in range(50)]
        assert np.mean(demands) == pytest.approx(1.5, rel=0.1)

    def test_service_job_spec_defaults_ls_production(self):
        from repro.cluster.task import PriorityBand
        spec = make_service_job_spec("svc", num_tasks=3)
        assert spec.scheduling_class is SchedulingClass.LATENCY_SENSITIVE
        assert spec.priority_band is PriorityBand.PRODUCTION

    def test_protection_override(self):
        spec = make_service_job_spec("svc", num_tasks=1,
                                     protection_eligible=False)
        assert not Job(spec).protection_eligible


class TestBimodalFrontend:
    def test_demand_is_bimodal(self):
        job = Job(make_bimodal_frontend_spec("fe", num_tasks=1, seed=0,
                                             period=100))
        workload = job.tasks[0].workload
        demands = [workload.cpu_demand(t) for t in range(200)]
        assert min(demands) < 0.1
        assert max(demands) > 0.25

    def test_cold_start_penalty_configured(self):
        job = Job(make_bimodal_frontend_spec("fe", num_tasks=1))
        profile = job.tasks[0].workload.resource_profile()
        assert profile.cold_start_penalty > 0

    def test_cpi_swings_without_antagonist(self):
        # Case 3's self-inflicted CPI swings, reproduced on a quiet machine.
        from repro.testing import make_quiet_machine
        machine = make_quiet_machine()
        job = Job(make_bimodal_frontend_spec("fe", num_tasks=1, seed=1,
                                             period=100))
        machine.place(job.tasks[0])
        cpis, usages = [], []
        for t in range(200):
            result = machine.tick(t)
            cpis.append(result.cpis["fe/0"])
            usages.append(result.grants["fe/0"])
        assert max(cpis) > 2.5 * min(cpis)
        # High CPI coincides with low usage (Figure 10's anti-correlation).
        import numpy as np
        assert np.corrcoef(cpis, usages)[0, 1] < -0.5


class TestGcService:
    def test_pause_raises_cpi_briefly(self):
        from repro.workloads.services import make_gc_service_spec
        job = Job(make_gc_service_spec("gc", num_tasks=1, seed=0,
                                       gc_period=300, gc_duration=15,
                                       gc_cpi_multiplier=3.0))
        workload = job.tasks[0].workload
        cpis = []
        for t in range(600):
            workload.on_tick(t, 1.0, False)
            cpis.append(workload.base_cpi())
        assert max(cpis) == pytest.approx(3.0 * min(cpis))
        # Pauses occupy ~5% of time.
        high = sum(1 for c in cpis if c > 2.0 * min(cpis))
        assert high == pytest.approx(30, abs=2)

    def test_phases_independent_across_tasks(self):
        from repro.workloads.services import make_gc_service_spec
        job = Job(make_gc_service_spec("gc", num_tasks=4, seed=3))
        def pause_start(w):
            for t in range(2000):
                w.on_tick(t, 1.0, False)
                if w.base_cpi() > 2.0:
                    return t
            return None
        starts = {pause_start(t.workload) for t in job}
        assert len(starts) > 1

    def test_window_rule_absorbs_isolated_gc_spikes(self):
        """The detection-robustness claim: a GC'd service sharing a quiet
        machine raises outlier flags during pauses but (with independent,
        sparse pauses) no 3-in-5-minutes anomaly — while a 1-shot rule
        would page someone every few minutes."""
        from repro.core.config import CpiConfig
        from repro.core.outlier import OutlierDetector
        from repro.perf.sampler import CpiSampler, SamplerConfig
        from repro.testing import make_quiet_machine
        from repro.workloads.services import make_gc_service_spec
        from tests.conftest import make_spec

        machine = make_quiet_machine()
        job = Job(make_gc_service_spec("gc", num_tasks=1, seed=5,
                                       gc_period=437, gc_duration=12,
                                       gc_cpi_multiplier=2.5))
        machine.place(job.tasks[0])
        sampler = CpiSampler(machine, SamplerConfig())
        samples = []
        for t in range(90 * 60):
            machine.tick(t)
            samples.extend(sampler.tick(t).to_samples())
        spec = make_spec(jobname="gc", cpi_mean=1.1, cpi_stddev=0.09)

        def anomalies(config):
            return len(OutlierDetector(config).observe_samples(samples, spec))

        one_shot = anomalies(CpiConfig(anomaly_violations=1))
        paper = anomalies(CpiConfig())
        assert one_shot >= 3          # pauses do flag
        assert paper == 0             # but never 3 times in 5 minutes
