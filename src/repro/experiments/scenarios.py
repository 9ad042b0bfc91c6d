"""Reusable cluster scenarios for the evaluation experiments.

Each builder assembles a cluster that looks like a scaled-down slice of the
fleet the paper measured: mixed platforms, many tenants per machine, a
production/non-production split, and latency-sensitive services sharing
machines with batch work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cluster.job import Job, JobSpec
from repro.cluster.machine import Machine
from repro.cluster.platform import PLATFORM_CATALOG, get_platform
from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.pipeline import CpiPipeline
from repro.core.specstore import DurableSpecStore
from repro.faults.profile import FaultProfile
from repro.obs import Observability
from repro.perf.sampler import SamplerConfig
from repro.records import CpiSpec
from repro.workloads import (
    AntagonistKind,
    make_antagonist_job_spec,
    make_batch_job_spec,
)
from repro.workloads.services import make_service_job_spec
from repro.workloads.websearch import SearchTier, make_websearch_job_spec

__all__ = ["Scenario", "build_cluster", "demo_scenario", "populated_fleet",
            "scale_scenario", "victim_antagonist_machine"]


@dataclass
class Scenario:
    """A ready-to-run cluster plus its CPI2 deployment and jobs."""

    simulation: ClusterSimulation
    pipeline: CpiPipeline
    jobs: dict[str, Job] = field(default_factory=dict)

    def submit(self, spec: JobSpec) -> Job:
        """Instantiate and place a job; tracked in :attr:`jobs`."""
        job = Job(spec)
        self.simulation.scheduler.submit(job)
        self.jobs[job.name] = job
        return job

    def bootstrap_service_spec(self, jobname: str, cpi_mean: float,
                               cpi_stddev: float) -> None:
        """Warm-start CPI specs for one job on every platform present."""
        platforms = {m.platform for m in self.simulation.machines.values()}
        self.pipeline.bootstrap_specs([
            CpiSpec(jobname=jobname, platforminfo=p.name, num_samples=10_000,
                    cpu_usage_mean=1.0,
                    cpi_mean=cpi_mean * p.cpi_scale,
                    cpi_stddev=cpi_stddev * p.cpi_scale)
            for p in platforms
        ])


def build_cluster(
    num_machines: int,
    seed: int = 0,
    config: CpiConfig = DEFAULT_CONFIG,
    platforms: Sequence[str] = ("westmere-2.6",),
    cpi_noise_sigma: float = 0.03,
    enable_migration: bool = False,
    fault_profile: "FaultProfile | str | None" = None,
    fault_seed: int = 0,
    obs: Optional[Observability] = None,
    telemetry: bool = False,
    spec_store: Optional["DurableSpecStore"] = None,
) -> Scenario:
    """A cluster of ``num_machines`` cycling through the given platforms.

    ``fault_profile`` / ``fault_seed`` select the transport/crash fault
    schedule (default: none — all paths in-process); ``obs`` isolates the
    run's telemetry from the process default, which the chaos sweep needs
    to attribute fault counters to one profile at a time.
    ``telemetry`` attaches the fleet telemetry plane (TSDB + alert rules)
    to the run's facade, creating an isolated one if ``obs`` was omitted.
    ``spec_store`` makes the aggregator durable (snapshot + WAL) even when
    the fault profile schedules no kills — the soak harness relies on it.
    """
    if num_machines < 1:
        raise ValueError(f"num_machines must be >= 1, got {num_machines}")
    if telemetry:
        obs = (obs or Observability()).enable_telemetry()
    machines = [
        Machine(f"m{i}", get_platform(platforms[i % len(platforms)]),
                cpi_noise_sigma=cpi_noise_sigma)
        for i in range(num_machines)
    ]
    sim = ClusterSimulation(machines, SimConfig(
        seed=seed,
        sampler=SamplerConfig(config.sampling_duration,
                              config.sampling_period)))
    pipeline = CpiPipeline(sim, config, enable_migration=enable_migration,
                           obs=obs, fault_profile=fault_profile,
                           fault_seed=fault_seed, spec_store=spec_store)
    return Scenario(simulation=sim, pipeline=pipeline)


def populated_fleet(num_machines: int = 12, seed: int = 0,
                    config: CpiConfig = DEFAULT_CONFIG,
                    multi_platform: bool = True,
                    antagonist_tasks: tuple[int, int] | None = None,
                    density: float = 1.0) -> Scenario:
    """A fleet resembling the paper's Figure 1 environment.

    A mix of web-search tiers, generic services, batch jobs of several sizes
    and a couple of antagonist jobs, spread so the median machine hosts many
    tenants.  ``antagonist_tasks`` overrides the (video, science) antagonist
    task counts — the Section 7 experiment uses a sparse (1, 1) so that, as
    in production, interference is the exception rather than the norm — and
    ``density`` scales the non-antagonist task counts (the paper's fleet ran
    around 40% CPU utilisation; density 1.0 packs machines much harder, which
    Figure 1 wants and Section 7 does not).
    """
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    platforms = (tuple(PLATFORM_CATALOG) if multi_platform
                 else ("westmere-2.6",))
    scenario = build_cluster(num_machines, seed=seed, config=config,
                             platforms=platforms)
    rng = np.random.default_rng(seed)

    def scaled(count: int) -> int:
        return max(1, int(round(count * density)))

    scenario.submit(make_websearch_job_spec(
        "websearch-leaf", SearchTier.LEAF,
        num_tasks=scaled(3 * num_machines),
        seed=int(rng.integers(2**31)), cpu_limit_per_task=2.0))
    scenario.submit(make_websearch_job_spec(
        "websearch-mixer", SearchTier.INTERMEDIATE,
        num_tasks=scaled(num_machines), seed=int(rng.integers(2**31)),
        cpu_limit_per_task=1.5))
    scenario.submit(make_service_job_spec(
        "bigtable-tablet", num_tasks=scaled(2 * num_machines),
        seed=int(rng.integers(2**31)), base_cpi=1.1))
    scenario.submit(make_service_job_spec(
        "storage-server", num_tasks=scaled(2 * num_machines),
        seed=int(rng.integers(2**31)), base_cpi=0.9, demand_level=0.7))
    scenario.submit(make_batch_job_spec(
        "logs-pipeline", num_tasks=scaled(4 * num_machines),
        seed=int(rng.integers(2**31)), cpu_limit_per_task=1.5,
        demand_level=0.8))
    scenario.submit(make_batch_job_spec(
        "index-build", num_tasks=scaled(2 * num_machines),
        seed=int(rng.integers(2**31)), cpu_limit_per_task=2.0,
        demand_level=1.2, best_effort=True))
    video_tasks, science_tasks = (antagonist_tasks if antagonist_tasks
                                  else (max(1, num_machines // 3),
                                        max(1, num_machines // 4)))
    if video_tasks > 0:
        scenario.submit(make_antagonist_job_spec(
            "video-transcode", AntagonistKind.VIDEO_PROCESSING,
            num_tasks=video_tasks, seed=int(rng.integers(2**31)),
            cpu_limit_per_task=6.0))
    if science_tasks > 0:
        scenario.submit(make_antagonist_job_spec(
            "science-sim", AntagonistKind.SCIENTIFIC_SIMULATION,
            num_tasks=science_tasks, seed=int(rng.integers(2**31)),
            cpu_limit_per_task=4.0))
    return scenario


def scale_scenario(num_machines: int = 50, seed: int = 11,
                   num_service_jobs: int = 5, num_batch_jobs: int = 5,
                   tasks_per_job: int = 50,
                   fault_profile: "FaultProfile | str | None" = None,
                   fault_seed: int = 0,
                   config: Optional[CpiConfig] = None,
                   telemetry: bool = False) -> Scenario:
    """The fleet-scale throughput workload (50 machines x 500 tasks).

    Used by ``benchmarks/test_scale_fleet.py`` and, being a module-level
    builder, by the sharded engine's workers
    (:func:`repro.cluster.shards.run_sharded` rebuilds it by reference in
    every worker process).  ``config`` overrides the paper defaults — the
    short parity runs relax ``spec_refresh_period`` and the per-task
    sample gate so a spec publish actually happens.
    """
    scenario = build_cluster(num_machines, seed=seed,
                             config=config or CpiConfig(),
                             fault_profile=fault_profile,
                             fault_seed=fault_seed, telemetry=telemetry)
    for i in range(num_service_jobs):
        scenario.submit(make_service_job_spec(
            f"svc-{i}", num_tasks=tasks_per_job, seed=100 + i))
    for i in range(num_batch_jobs):
        scenario.submit(make_batch_job_spec(
            f"batch-{i}", num_tasks=tasks_per_job, seed=200 + i))
    return scenario


def demo_scenario(seed: int = 42, fault_profile: "FaultProfile | str | None" = None,
                  fault_seed: int = 0,
                  obs: Optional[Observability] = None,
                  telemetry: bool = False) -> Scenario:
    """The CLI quickstart scenario: one machine, one victim, one antagonist.

    Module-level so ``python -m repro demo --jobs N`` can hand it to the
    sharded engine's workers by reference.  ``telemetry`` attaches the
    fleet telemetry plane (TSDB + alert rules) to the run's facade.
    """
    platform = get_platform("westmere-2.6")
    machine = Machine("demo", platform, cpi_noise_sigma=0.03)
    sim = ClusterSimulation([machine], SimConfig(seed=seed))
    obs = obs or Observability()
    if telemetry:
        obs.enable_telemetry()
    pipeline = CpiPipeline(sim, CpiConfig(), obs=obs,
                           fault_profile=fault_profile,
                           fault_seed=fault_seed)
    scenario = Scenario(simulation=sim, pipeline=pipeline)
    scenario.submit(make_service_job_spec("frontend", num_tasks=1,
                                          seed=seed))
    scenario.submit(make_antagonist_job_spec(
        "video", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
        seed=seed + 1, demand_scale=1.3))
    pipeline.bootstrap_specs([CpiSpec("frontend", platform.name, 10_000,
                                      1.0, 1.05, 0.08)])
    return scenario


def victim_antagonist_machine(
    seed: int = 0,
    config: CpiConfig = DEFAULT_CONFIG,
    antagonist_kind: AntagonistKind = AntagonistKind.VIDEO_PROCESSING,
    antagonist_scale: float = 1.2,
    num_filler_services: int = 4,
    num_filler_batch: int = 2,
    victim_cpi_mean: float = 1.05,
    victim_cpi_stddev: float = 0.08,
) -> tuple[Scenario, Job, Job]:
    """The canonical case-study setup: one machine, one victim, one antagonist.

    Filler services/batch tasks give the machine a realistic tenant count.
    Returns (scenario, victim_job, antagonist_job); the victim job's CPI spec
    is already bootstrapped.
    """
    scenario = build_cluster(1, seed=seed, config=config)
    rng = np.random.default_rng(seed)
    victim = scenario.submit(make_service_job_spec(
        "victim-service", num_tasks=1, seed=int(rng.integers(2**31)),
        base_cpi=1.0, cpu_limit_per_task=2.0))
    antagonist = scenario.submit(make_antagonist_job_spec(
        "antagonist", antagonist_kind, num_tasks=1,
        seed=int(rng.integers(2**31)), demand_scale=antagonist_scale,
        cpu_limit_per_task=8.0))
    for i in range(num_filler_services):
        scenario.submit(make_service_job_spec(
            f"filler-svc-{i}", num_tasks=1, seed=int(rng.integers(2**31)),
            base_cpi=0.9 + 0.1 * i, demand_level=0.5,
            cpu_limit_per_task=1.0))
    for i in range(num_filler_batch):
        scenario.submit(make_batch_job_spec(
            f"filler-batch-{i}", num_tasks=1, seed=int(rng.integers(2**31)),
            demand_level=0.4, cpu_limit_per_task=1.0))
    scenario.bootstrap_service_spec("victim-service", victim_cpi_mean,
                                    victim_cpi_stddev)
    return scenario, victim, antagonist
