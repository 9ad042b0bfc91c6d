"""Fleet-scale experiments: Figure 1 and Section 7's incident rate.

Figure 1 shows the machine-occupancy CDFs that motivate the whole system
(most machines run many tasks and thousands of threads); Section 7 reports
the deployed detection rate ("identifying antagonists at an average rate of
0.37 times per machine-day").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import Ecdf
from repro.core.config import DEFAULT_CONFIG
from repro.experiments.scenarios import build_cluster, populated_fleet

__all__ = ["OccupancyResult", "machine_occupancy",
           "machine_occupancy_from_trace_mix", "IncidentRateResult",
           "incident_rate"]


@dataclass
class OccupancyResult:
    """Figure 1's data: per-machine task and thread count distributions."""

    tasks_per_machine: Ecdf
    threads_per_machine: Ecdf

    def quantiles(self, qs=(0.1, 0.5, 0.9)) -> dict[str, list[float]]:
        """Selected quantiles of both distributions, for reporting."""
        return {
            "tasks": [self.tasks_per_machine.quantile(q) for q in qs],
            "threads": [self.threads_per_machine.quantile(q) for q in qs],
        }


def machine_occupancy(num_machines: int = 16, seed: int = 0,
                      warmup_minutes: float = 5.0) -> OccupancyResult:
    """Figure 1: tasks and threads per machine across a populated fleet."""
    scenario = populated_fleet(num_machines=num_machines, seed=seed)
    sim = scenario.simulation
    sim.run_minutes(warmup_minutes)
    tasks = [m.num_tasks for m in sim.machines.values()]
    threads = [m.thread_count(sim.now) for m in sim.machines.values()]
    return OccupancyResult(
        tasks_per_machine=Ecdf(tasks),
        threads_per_machine=Ecdf(threads),
    )


@dataclass
class IncidentRateResult:
    """Section 7's deployment-wide detection statistics."""

    machine_days: float
    incidents_identified: int
    rate_per_machine_day: float
    throttle_actions: int
    distinct_victim_jobs: int


def incident_rate(num_machines: int = 16, hours: float = 4.0,
                  learn_hours: float = 1.0,
                  seed: int = 0) -> IncidentRateResult:
    """Section 7: antagonist-identification rate per machine-day.

    Specs are learned in-situ during ``learn_hours`` — as in production,
    "normal" already includes the typical level of co-tenancy — so incidents
    fire only when interference flares beyond a job's usual experience.  Our
    fleet is still far denser in antagonists than Google's (two antagonist
    jobs across ten machines), so the measured rate overshoots the paper's
    0.37/machine-day; the benchmark checks it stays a trickle, not a flood.
    """
    from repro.cluster.job import Job
    from repro.workloads import AntagonistKind, make_antagonist_job_spec

    config = DEFAULT_CONFIG.with_overrides(
        spec_refresh_period=int(learn_hours * 3600),
        min_tasks_for_spec=5, min_samples_per_task=10)
    # The fleet learns its specs before any antagonist shows up — the
    # production analogue is that long-running jobs carry historical specs
    # from (mostly clean) prior days.
    scenario = populated_fleet(num_machines=num_machines, seed=seed,
                               config=config, antagonist_tasks=(0, 0),
                               density=0.5)
    # Kill/migrate escalations are actuated (not just logged), so persistent
    # offenders actually move instead of being re-reported every minute.
    scenario.pipeline.enable_migration = True
    for agent in scenario.pipeline.agents.values():
        agent.migrator = scenario.pipeline._migrate
    sim = scenario.simulation
    sim.run_hours(learn_hours + 0.01)
    pipeline = scenario.pipeline
    # Antagonists arrive; only the post-learning window is counted.
    sim.scheduler.submit(Job(make_antagonist_job_spec(
        "video-transcode", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
        seed=seed + 101, cpu_limit_per_task=9.0, demand_scale=1.5)))
    sim.scheduler.submit(Job(make_antagonist_job_spec(
        "science-sim", AntagonistKind.SCIENTIFIC_SIMULATION, num_tasks=1,
        seed=seed + 102, cpu_limit_per_task=6.0, demand_scale=1.5)))
    pipeline.machine_seconds = 0
    for agent in pipeline.agents.values():
        agent.incidents.clear()
    sim.run_hours(hours)
    incidents = pipeline.all_incidents()
    identified = [i for i in incidents if i.decision.target is not None]
    throttles = [i for i in incidents
                 if i.decision.action.value == "throttle"]
    return IncidentRateResult(
        machine_days=pipeline.machine_seconds / 86400.0,
        incidents_identified=len(identified),
        rate_per_machine_day=pipeline.incident_rate_per_machine_day(),
        throttle_actions=len(throttles),
        distinct_victim_jobs=len({i.victim_jobname for i in incidents}),
    )


def machine_occupancy_from_trace_mix(num_machines: int = 16, seed: int = 0,
                                     warmup_minutes: float = 2.0
                                     ) -> OccupancyResult:
    """Figure 1 against a trace-statistics population.

    Same measurement as :func:`machine_occupancy`, but the job population
    comes from :class:`~repro.workloads.mix.ClusterMix`, whose aggregate
    statistics match the cluster-trace numbers the paper cites (7% of jobs
    production using ~30% of CPU, non-production ~10%, most task mass in
    large jobs).
    """
    from repro.cluster.scheduler import PlacementError
    from repro.workloads.mix import ClusterMix

    scenario = build_cluster(num_machines, seed=seed)
    sim = scenario.simulation
    total_cpu = sum(m.cpu_capacity for m in sim.machines.values())
    mix = ClusterMix(total_cpu=total_cpu, seed=seed)
    for spec in mix.generate():
        try:
            scenario.submit(spec)
        except PlacementError:
            continue  # LS jobs that cannot fit are dropped at this scale
    sim.run_minutes(warmup_minutes)
    tasks = [m.num_tasks for m in sim.machines.values()]
    threads = [m.thread_count(sim.now) for m in sim.machines.values()]
    return OccupancyResult(
        tasks_per_machine=Ecdf(tasks),
        threads_per_machine=Ecdf(threads),
    )
