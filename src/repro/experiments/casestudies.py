"""The Section 6 case studies (Figures 8-13), reconstructed.

Each function rebuilds the situation a case study describes and returns the
same observables the paper plots: suspect tables with correlations, victim
CPI traces against antagonist CPU usage, thread-count traces, and the
outcome of throttling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.job import Job, JobSpec
from repro.cluster.task import (
    PriorityBand,
    SchedulingClass,
    TaskState,
)
from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.policy import PolicyAction
from repro.experiments.scenarios import Scenario, build_cluster
from repro.records import CpiSample
from repro.workloads import (
    AntagonistKind,
    make_antagonist_job_spec,
    make_antagonist_workload,
)
from repro.workloads.batch import LameDuckBehavior, MapReduceWorker
from repro.workloads.demand import constant, with_noise
from repro.workloads.services import (
    make_bimodal_frontend_spec,
    make_service_job_spec,
)

__all__ = [
    "SuspectRow",
    "CaseOneResult", "case1_suspect_ranking",
    "CaseTwoResult", "case2_hardcap_recovery",
    "CaseThreeResult", "case3_bimodal_false_alarm",
    "CaseFourResult", "case4_modest_relief",
    "CaseFiveResult", "case5_lame_duck",
    "CaseSixResult", "case6_mapreduce_exit",
]


@dataclass(frozen=True)
class SuspectRow:
    """One row of a case study's suspect table."""

    jobname: str
    scheduling_class: str
    correlation: float


def _suspect_table(incident, scenario: Scenario, limit: int = 9
                   ) -> list[SuspectRow]:
    rows = []
    for score in incident.suspects[:limit]:
        job = scenario.jobs.get(score.jobname)
        cls = job.scheduling_class.value if job else "unknown"
        rows.append(SuspectRow(score.jobname, cls, score.correlation))
    return rows


def _victim_cpi_tracker(scenario: Scenario, jobname: str) -> list[CpiSample]:
    samples: list[CpiSample] = []
    scenario.simulation.add_sample_sink(
        lambda t, name, batch: samples.extend(
            s for s in batch.to_samples() if s.jobname == jobname))
    return samples


def _mean_cpi(samples: list[CpiSample], start: int, end: int) -> float:
    values = [s.cpi for s in samples if start <= s.timestamp_seconds < end]
    return float(np.mean(values)) if values else float("nan")


# -- Case 1 -------------------------------------------------------------------

@dataclass
class CaseOneResult:
    """Figure 8: the suspect table and the effect of killing the top one."""

    suspects: list[SuspectRow]
    chosen_job: str
    chosen_class: str
    victim_cpi_during: float
    victim_cpi_after_kill: float
    threshold: float


def case1_suspect_ranking(seed: int = 1) -> CaseOneResult:
    """Case 1: a latency-sensitive victim among ~15 tenants; the top suspects
    include several LS services, but the video-processing batch job is both
    the best-correlated and the only throttle-eligible one.  An operator
    kills it and the victim recovers."""
    config = DEFAULT_CONFIG.with_overrides(auto_throttle=False)
    scenario = build_cluster(1, seed=seed, config=config)
    rng = np.random.default_rng(seed)

    victim = scenario.submit(make_service_job_spec(
        "latency-sensitive-victim", num_tasks=1, seed=int(rng.integers(2**31)),
        base_cpi=1.0, cpu_limit_per_task=2.0))
    scenario.submit(make_antagonist_job_spec(
        "video-processing", AntagonistKind.VIDEO_PROCESSING, num_tasks=1,
        seed=int(rng.integers(2**31)), demand_scale=1.3,
        cpu_limit_per_task=8.0))
    # The LS co-tenants from the paper's table: real services with real (if
    # modest) shared-resource pressure, so they score non-trivially too.
    for name in ("content-digitizing", "image-front-end", "bigtable-tablet",
                 "storage-server"):
        scenario.submit(make_service_job_spec(
            name, num_tasks=1, seed=int(rng.integers(2**31)),
            base_cpi=1.1, demand_level=1.2, cpu_limit_per_task=2.0))
    for i in range(8):
        scenario.submit(make_service_job_spec(
            f"tenant-{i}", num_tasks=1, seed=int(rng.integers(2**31)),
            base_cpi=0.9, demand_level=0.4, cpu_limit_per_task=1.0))
    scenario.bootstrap_service_spec("latency-sensitive-victim", 1.05, 0.08)

    samples = _victim_cpi_tracker(scenario, "latency-sensitive-victim")
    sim = scenario.simulation
    sim.run_minutes(25)
    incidents = scenario.pipeline.all_incidents()
    if not incidents:
        raise RuntimeError("case 1: no incident detected")
    incident = incidents[-1]
    table = _suspect_table(incident, scenario, limit=5)

    # CPI2 (in report-only mode) names the target; the operator kills it.
    target = incident.decision.target
    if target is None:
        raise RuntimeError("case 1: no throttle-eligible suspect named")
    during = _mean_cpi(samples, sim.now - 600, sim.now)
    machine = sim.machines[target.machine_name]
    machine.remove(target.name, TaskState.KILLED, reason="operator kill")
    sim.run_minutes(10)
    after = _mean_cpi(samples, sim.now - 420, sim.now)
    return CaseOneResult(
        suspects=table,
        chosen_job=target.job.name,
        chosen_class=target.scheduling_class.value,
        victim_cpi_during=during,
        victim_cpi_after_kill=after,
        threshold=incident.cpi_threshold,
    )


# -- Case 2 -------------------------------------------------------------------

@dataclass
class CaseTwoResult:
    """Figure 9: victim CPI before / during / after a best-effort cap."""

    correlation: float
    cpi_before: float
    cpi_during_cap: float
    cpi_after_cap: float
    antagonist_usage_before: float
    antagonist_usage_during: float


def case2_hardcap_recovery(seed: int = 2) -> CaseTwoResult:
    """Case 2: hard-capping a best-effort batch job roughly halves the
    victim's CPI; when the cap lapses the CPI climbs back."""
    # The paper's case 2 capping was applied by operators: report-only mode
    # plus a manual cap, so the post-cap CPI rise is observable (automatic
    # mode would immediately re-cap).
    config = DEFAULT_CONFIG.with_overrides(hardcap_duration=840,
                                           auto_throttle=False)
    scenario = build_cluster(1, seed=seed, config=config)
    rng = np.random.default_rng(seed)
    victim = scenario.submit(make_service_job_spec(
        "victim-service", num_tasks=1, seed=int(rng.integers(2**31)),
        base_cpi=1.0, cpu_limit_per_task=2.0))
    antagonist = scenario.submit(make_antagonist_job_spec(
        "best-effort-batch", AntagonistKind.CACHE_THRASHER, num_tasks=1,
        seed=int(rng.integers(2**31)), demand_scale=1.4, best_effort=True,
        cpu_limit_per_task=8.0))
    for i in range(6):
        scenario.submit(make_service_job_spec(
            f"tenant-{i}", num_tasks=1, seed=int(rng.integers(2**31)),
            demand_level=0.4, cpu_limit_per_task=1.0))
    scenario.bootstrap_service_spec("victim-service", 1.05, 0.08)

    samples = _victim_cpi_tracker(scenario, "victim-service")
    sim = scenario.simulation
    ant_cgroup = antagonist.tasks[0].cgroup

    # Run until CPI2 reports an incident naming the antagonist, then cap it
    # manually (the operator workflow).
    cap_start = None
    incident = None
    for _ in range(40 * 60):
        sim.step()
        incidents = scenario.pipeline.all_incidents()
        if incidents and incidents[-1].decision.target is not None:
            incident = incidents[-1]
            cap_start = sim.now
            ant_cgroup.apply_cap(config.hardcap_quota_best_effort,
                                 now=sim.now, duration=config.hardcap_duration)
            break
    if cap_start is None or incident is None:
        raise RuntimeError("case 2: the antagonist was never identified")
    before = _mean_cpi(samples, cap_start - 600, cap_start)
    usage_before = ant_cgroup.usage_between(cap_start - 600, cap_start)
    sim.run(config.hardcap_duration)
    during = _mean_cpi(samples, cap_start + 60, sim.now)
    usage_during = ant_cgroup.usage_between(cap_start + 60, sim.now)
    sim.run_minutes(12)
    after = _mean_cpi(samples, sim.now - 540, sim.now)
    return CaseTwoResult(
        correlation=incident.decision.score.correlation,
        cpi_before=before,
        cpi_during_cap=during,
        cpi_after_cap=after,
        antagonist_usage_before=usage_before,
        antagonist_usage_during=usage_during,
    )


# -- Case 3 -------------------------------------------------------------------

@dataclass
class CaseThreeResult:
    """Figure 10: self-inflicted CPI swings and the usage-gate's effect."""

    #: With the paper's 0.25 CPU-sec/sec gate.
    anomalies_with_gate: int
    low_usage_samples_skipped: int
    #: With the gate disabled (min_cpu_usage = 0).
    anomalies_without_gate: int
    best_correlation_without_gate: float
    actions_taken: int
    cpi_usage_correlation: float


def case3_bimodal_false_alarm(seed: int = 3) -> CaseThreeResult:
    """Case 3: a front-end with bimodal CPU usage looks like a victim when
    idle (cold caches), but no suspect correlates; the minimum-usage filter
    suppresses the alarm entirely."""

    from repro.cluster.interference import ResourceProfile
    from repro.workloads.base import SyntheticWorkload
    from repro.workloads.demand import on_off

    filler_profile = ResourceProfile(
        cache_mib_per_cpu=0.6, membw_gbps_per_cpu=0.3,
        cache_sensitivity=0.4, membw_sensitivity=0.3, base_l3_mpki=1.5)

    def build(min_cpu_usage: float) -> tuple[Scenario, list[CpiSample]]:
        config = DEFAULT_CONFIG.with_overrides(
            min_cpu_usage=min_cpu_usage, auto_throttle=False)
        scenario = build_cluster(1, seed=seed, config=config)
        rng = np.random.default_rng(seed)
        scenario.submit(make_bimodal_frontend_spec(
            "bimodal-frontend", num_tasks=1, seed=int(rng.integers(2**31)),
            period=720, cold_start_penalty=6.0))
        # Co-tenants with bursty, independently-phased demand: their usage
        # is uncorrelated with the victim's self-inflicted CPI cycle, so
        # every correlation comes out near zero, as in the paper (max 0.07).
        for i in range(9):
            period = int(rng.integers(240, 900))
            phase = int(rng.integers(period))
            job_seed = int(rng.integers(2**31))

            def factory(index: int, period=period, phase=phase,
                        job_seed=job_seed) -> SyntheticWorkload:
                job_rng = np.random.default_rng(job_seed)
                return SyntheticWorkload(
                    base_cpi=1.0, profile=filler_profile,
                    demand=with_noise(
                        on_off(1.2, 0.1, period=period, duty=0.5,
                               phase=phase), 0.1, job_rng),
                    threads=8)

            scheduling = (SchedulingClass.BATCH if i % 2 == 0
                          else SchedulingClass.LATENCY_SENSITIVE)
            scenario.submit(JobSpec(
                name=f"tenant-{i}", num_tasks=1, scheduling_class=scheduling,
                priority_band=PriorityBand.NONPRODUCTION,
                cpu_limit_per_task=2.0, workload_factory=factory))
        # The job's own spec reflects its mixed history: high mean, wide
        # stddev (its CPI legitimately swings between ~2 and ~8).
        scenario.bootstrap_service_spec("bimodal-frontend", 3.0, 1.0)
        samples = _victim_cpi_tracker(scenario, "bimodal-frontend")
        return scenario, samples

    gated, gated_samples = build(DEFAULT_CONFIG.min_cpu_usage)
    gated.simulation.run_minutes(45)
    gated_agent = next(iter(gated.pipeline.agents.values()))

    ungated, ungated_samples = build(0.0)
    ungated.simulation.run_minutes(45)
    ungated_agent = next(iter(ungated.pipeline.agents.values()))
    incidents = ungated.pipeline.all_incidents()
    best_corr = max((i.suspects[0].correlation for i in incidents
                     if i.suspects), default=0.0)
    actions = sum(1 for i in incidents
                  if i.decision.action is PolicyAction.THROTTLE)

    cpis = [s.cpi for s in ungated_samples]
    usages = [s.cpu_usage for s in ungated_samples]
    cpi_usage_corr = float(np.corrcoef(cpis, usages)[0, 1])
    return CaseThreeResult(
        anomalies_with_gate=gated_agent.anomalies_seen,
        low_usage_samples_skipped=gated_agent.detector.samples_skipped_low_usage,
        anomalies_without_gate=ungated_agent.anomalies_seen,
        best_correlation_without_gate=best_corr,
        actions_taken=actions,
        cpi_usage_correlation=cpi_usage_corr,
    )


# -- Case 4 -------------------------------------------------------------------

@dataclass
class CaseFourResult:
    """Figure 11: many LS suspects, one batch; throttling helps only modestly."""

    suspects: list[SuspectRow]
    batch_suspects: int
    chosen_job: str
    relative_cpi: float
    final_decision: str


def case4_modest_relief(seed: int = 4) -> CaseFourResult:
    """Case 4: the victim's interference comes mostly from latency-sensitive
    co-tenants; the only batch suspect (a scientific simulation) contributes
    a minority of the pressure, so capping it brings only modest relief and
    the policy eventually recommends migrating the victim."""
    config = DEFAULT_CONFIG.with_overrides(hardcap_duration=300)
    scenario = build_cluster(1, seed=seed, config=config)
    rng = np.random.default_rng(seed)
    victim = scenario.submit(make_service_job_spec(
        "user-facing-service", num_tasks=1, seed=int(rng.integers(2**31)),
        base_cpi=1.0, cpu_limit_per_task=2.0))
    # Heavy LS neighbours: they both suffer and cause interference.
    heavy_profile_jobs = ("production-service", "compilation-service",
                          "security-service", "statistics-service",
                          "data-query", "maps-service", "image-render",
                          "ads-serving")
    from repro.cluster.interference import ResourceProfile
    from repro.workloads.base import SyntheticWorkload

    heavy = ResourceProfile(cache_mib_per_cpu=3.0, membw_gbps_per_cpu=1.6,
                            cache_sensitivity=0.5, membw_sensitivity=0.4,
                            base_l3_mpki=6.0)
    for name in heavy_profile_jobs:
        job_seed = int(rng.integers(2**31))

        def factory(index: int, job_seed=job_seed) -> SyntheticWorkload:
            job_rng = np.random.default_rng(job_seed)
            return SyntheticWorkload(
                base_cpi=1.1, profile=heavy,
                demand=with_noise(constant(1.0), 0.25, job_rng), threads=8)

        scenario.submit(JobSpec(
            name=name, num_tasks=1,
            scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
            priority_band=PriorityBand.PRODUCTION,
            cpu_limit_per_task=2.0, workload_factory=factory))
    scenario.submit(make_antagonist_job_spec(
        "scientific-simulation", AntagonistKind.SCIENTIFIC_SIMULATION,
        num_tasks=1, seed=int(rng.integers(2**31)), demand_scale=1.0,
        cpu_limit_per_task=4.0))
    scenario.bootstrap_service_spec("user-facing-service", 1.05, 0.08)

    sim = scenario.simulation
    sim.run_minutes(45)
    incidents = scenario.pipeline.all_incidents()
    throttled = [i for i in incidents
                 if i.decision.action is PolicyAction.THROTTLE
                 and i.recovered is not None]
    if not throttled:
        raise RuntimeError("case 4: no completed throttle episode")
    first = throttled[0]
    table = _suspect_table(first, scenario, limit=9)
    batch_count = sum(1 for row in table if row.scheduling_class !=
                      SchedulingClass.LATENCY_SENSITIVE.value)
    final = incidents[-1].decision.action.value
    return CaseFourResult(
        suspects=table,
        batch_suspects=batch_count,
        chosen_job=first.decision.target.job.name,
        relative_cpi=first.relative_cpi,
        final_decision=final,
    )


# -- Case 5 -------------------------------------------------------------------

@dataclass
class CaseFiveResult:
    """Figure 12: antagonist thread dynamics around two capping episodes."""

    threads_normal: int
    threads_capped: int
    threads_lame_duck: int
    threads_recovered: int
    victim_cpi_before: float
    victim_cpi_capped: float


def case5_lame_duck(seed: int = 5) -> CaseFiveResult:
    """Case 5: a replayer batch job balloons to ~80 threads while capped,
    drops to 2 (lame-duck) afterwards, then recovers its usual 8."""
    # Manual capping (operator workflow), as in case 2, so the lame-duck
    # recovery is observable without CPI2 re-capping mid-observation.
    config = DEFAULT_CONFIG.with_overrides(auto_throttle=False)
    scenario = build_cluster(1, seed=seed, config=config)
    rng = np.random.default_rng(seed)
    victim = scenario.submit(make_service_job_spec(
        "query-serving", num_tasks=1, seed=int(rng.integers(2**31)),
        base_cpi=1.0, cpu_limit_per_task=2.0))

    worker = MapReduceWorker(
        rng=np.random.default_rng(seed + 1),
        demand=with_noise(constant(5.0), 0.1,
                          np.random.default_rng(seed + 2)),
        give_up_episode=99,  # this one never quits
        lame_duck=LameDuckBehavior(lameduck_duration=900),
        base_cpi=1.4,
        profile=make_antagonist_workload(
            AntagonistKind.REPLAYER,
            np.random.default_rng(seed + 3)).resource_profile(),
    )
    antagonist = scenario.submit(JobSpec(
        name="replayer-batch", num_tasks=1,
        scheduling_class=SchedulingClass.BATCH,
        priority_band=PriorityBand.NONPRODUCTION,
        cpu_limit_per_task=8.0,
        workload_factory=lambda index: worker))
    scenario.bootstrap_service_spec("query-serving", 1.05, 0.08)

    sim = scenario.simulation
    samples = _victim_cpi_tracker(scenario, "query-serving")
    cgroup = antagonist.tasks[0].cgroup

    threads_normal = worker.thread_count(0)
    cap_start = None
    for _ in range(40 * 60):
        sim.step()
        incidents = scenario.pipeline.all_incidents()
        if incidents and incidents[-1].decision.target is not None:
            cap_start = sim.now
            cgroup.apply_cap(0.1, now=sim.now, duration=300)
            break
    if cap_start is None:
        raise RuntimeError("case 5: antagonist never identified")
    before = _mean_cpi(samples, cap_start - 600, cap_start)
    sim.run(120)
    threads_capped = worker.thread_count(sim.now)
    sim.run(240)  # the 5-minute cap expires at cap_start + 300
    capped_cpi = _mean_cpi(samples, cap_start, cap_start + 300)
    sim.run(120)
    threads_lame = worker.thread_count(sim.now)
    sim.run(1200)  # the lame-duck period (900 s) passes
    threads_recovered = worker.thread_count(sim.now)
    return CaseFiveResult(
        threads_normal=threads_normal,
        threads_capped=threads_capped,
        threads_lame_duck=threads_lame,
        threads_recovered=threads_recovered,
        victim_cpi_before=before,
        victim_cpi_capped=capped_cpi,
    )


# -- Case 6 -------------------------------------------------------------------

@dataclass
class CaseSixResult:
    """Figure 13: the MapReduce worker's fate across capping episodes."""

    cap_episodes: int
    final_state: str
    survived_first_cap: bool
    exited_during_second: bool


def case6_mapreduce_exit(seed: int = 6) -> CaseSixResult:
    """Case 6: a MapReduce worker survives its first cap but gives up and
    exits during the second, preferring rescheduling to crawling."""
    config = DEFAULT_CONFIG.with_overrides(hardcap_duration=300)
    scenario = build_cluster(1, seed=seed, config=config)
    rng = np.random.default_rng(seed)
    scenario.submit(make_service_job_spec(
        "latency-sensitive-service", num_tasks=1,
        seed=int(rng.integers(2**31)), base_cpi=1.0, cpu_limit_per_task=2.0))

    worker = MapReduceWorker(
        rng=np.random.default_rng(seed + 1),
        demand=with_noise(constant(6.0), 0.1,
                          np.random.default_rng(seed + 2)),
        give_up_episode=2,
        exit_delay=120,
        base_cpi=1.4,
        profile=make_antagonist_workload(
            AntagonistKind.MEMBW_HOG,
            np.random.default_rng(seed + 3)).resource_profile(),
    )
    mr_job = scenario.submit(JobSpec(
        name="mapreduce-worker", num_tasks=1,
        scheduling_class=SchedulingClass.BATCH,
        priority_band=PriorityBand.NONPRODUCTION,
        cpu_limit_per_task=8.0,
        workload_factory=lambda index: worker))
    scenario.bootstrap_service_spec("latency-sensitive-service", 1.05, 0.08)

    sim = scenario.simulation
    task = mr_job.tasks[0]
    first_cap_seen = False
    first_cap_survived = False
    for _ in range(90 * 60):
        sim.step()
        if worker.cap_episodes >= 1 and not first_cap_seen:
            first_cap_seen = True
        if (first_cap_seen and worker.cap_episodes == 1
                and not task.cgroup.is_capped(sim.now)
                and task.state is TaskState.RUNNING):
            first_cap_survived = True
        if task.state is TaskState.EXITED:
            break
    return CaseSixResult(
        cap_episodes=worker.cap_episodes,
        final_state=task.state.value,
        survived_first_cap=first_cap_survived,
        exited_during_second=(task.state is TaskState.EXITED
                              and worker.cap_episodes >= 2),
    )
