"""Ablation experiments on CPI2's design choices.

Each function probes one of the parameters or mechanisms the paper fixes by
judgement or measurement: the anomaly window, the minimum-usage gate,
passive vs active identification, the hard-cap quota, spec age-weighting,
and the known blind spot of the correlation scheme (groups of individually
weak antagonists, Section 4.2's closing caveat).  The correlation-threshold
sweep itself lives in :mod:`repro.experiments.analyses` since it reuses the
Section 7 trial data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.interference import ResourceProfile
from repro.cluster.job import JobSpec
from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.core.baselines import ActiveProbeIdentifier
from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.correlation import antagonist_correlation
from repro.core.identify import (rank_cotenant_suspects,
                                 suspect_usage_matrix)
from repro.core.outlier import OutlierDetector
from repro.core.samplebatch import SampleColumns
from repro.experiments.scenarios import victim_antagonist_machine
from repro.experiments.trials import (TrialConfig, TrialResult,
                                      advance_sampled, run_trials)
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import CpiSample
from repro.workloads import AntagonistKind
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant, on_off, with_noise

__all__ = [
    "WindowPolicyResult", "anomaly_window_policies",
    "UsageGateResult", "usage_gate_sweep",
    "PassiveActiveResult", "passive_vs_active",
    "CapQuotaResult", "cap_quota_sweep",
    "AgeWeightResult", "age_weight_sweep",
    "GroupAntagonistResult", "group_antagonists",
    "ActuatorComparisonResult", "cfs_vs_duty_cycle",
    "SpecConvergenceResult", "spec_convergence",
]


# -- anomaly-window policy ---------------------------------------------------

@dataclass
class WindowPolicyResult:
    """Anomalies raised under different k-in-window policies, same stream."""

    policy: str
    anomalies_interference: int
    anomalies_noise_only: int


def anomaly_window_policies(seed: int = 0, minutes: int = 120
                            ) -> list[WindowPolicyResult]:
    """Probe the 3-in-5-minutes rule against 1-shot and stricter variants.

    Two sample streams are replayed through each detector configuration: one
    from a genuinely interfered victim, one from a healthy victim whose spec
    is fitted to its own noise (so ~2% of samples flag by construction).
    The paper's rule should keep the real anomalies while dropping the
    spurious ones a 1-shot rule raises.
    """
    from repro.records import CpiSpec

    interfered = _victim_sample_stream(seed, interfered=True,
                                       minutes=minutes)
    healthy = _victim_sample_stream(seed + 1, interfered=False,
                                    minutes=minutes)
    interfered_spec = CpiSpec("victim-service", "westmere-2.6", 1000, 1.0,
                              1.05, 0.08)
    healthy_cpis = [s.cpi for s in healthy]
    healthy_spec = CpiSpec(
        "victim-service", "westmere-2.6", 1000, 1.0,
        float(np.mean(healthy_cpis)),
        max(1e-3, float(np.std(healthy_cpis))))

    policies = [
        ("1-shot", DEFAULT_CONFIG.with_overrides(anomaly_violations=1)),
        ("3-in-5-min (paper)", DEFAULT_CONFIG),
        ("5-in-5-min", DEFAULT_CONFIG.with_overrides(anomaly_violations=5)),
    ]
    return [
        WindowPolicyResult(
            policy=name,
            anomalies_interference=_replay(interfered, config,
                                           interfered_spec),
            anomalies_noise_only=_replay(healthy, config, healthy_spec),
        )
        for name, config in policies
    ]


def _victim_sample_stream(seed: int, interfered: bool,
                          minutes: int = 40) -> list[CpiSample]:
    """A per-minute victim sample stream, interfered or noise-only."""
    scenario, victim, antagonist = victim_antagonist_machine(
        seed=seed,
        antagonist_kind=AntagonistKind.CACHE_THRASHER,
        antagonist_scale=1.2 if interfered else 0.0,
    )
    samples: list[CpiSample] = []
    scenario.simulation.add_sample_sink(
        lambda t, name, batch: samples.extend(
            s for s in batch.to_samples() if s.jobname == "victim-service"))
    # Detection side effects are irrelevant; disable enforcement.
    for agent in scenario.pipeline.agents.values():
        agent.update_specs({})
    scenario.simulation.run_minutes(minutes)
    return samples


def _replay(samples: list[CpiSample], config: CpiConfig, spec) -> int:
    return len(OutlierDetector(config).observe_samples(samples, spec))


# -- usage gate -----------------------------------------------------------------

@dataclass
class UsageGateResult:
    """False alarms vs the minimum-usage gate setting."""

    min_cpu_usage: float
    false_anomalies_bimodal: int
    true_anomalies_interfered: int


def usage_gate_sweep(gates=(0.0, 0.1, 0.25, 0.5), seed: int = 0
                     ) -> list[UsageGateResult]:
    """Sweep the 0.25 CPU-sec/sec gate (case 3's fix).

    The bimodal stream must stop raising anomalies once the gate reaches the
    paper's value, while a genuinely interfered victim (running at ~1
    CPU-sec/sec) keeps being detected until the gate is absurdly high.
    """
    from repro.experiments.casestudies import case3_bimodal_false_alarm  # noqa: F401
    from repro.workloads.services import make_bimodal_frontend_spec
    from repro.cluster.job import Job
    from repro.cluster.machine import Machine
    from repro.cluster.platform import get_platform
    from repro.records import CpiSpec

    # Bimodal stream (self-inflicted swings).
    machine = Machine("abl-gate", get_platform("westmere-2.6"),
                      cpi_noise_sigma=0.02)
    job = Job(make_bimodal_frontend_spec("bimodal", num_tasks=1, seed=seed,
                                         period=600, cold_start_penalty=6.0))
    machine.place(job.tasks[0])
    sampler = CpiSampler(machine, SamplerConfig())
    bimodal_samples: list[CpiSample] = []
    for _, samples in advance_sampled(machine, sampler, 0, 40 * 60):
        bimodal_samples.extend(samples)
    bimodal_spec = CpiSpec("bimodal", "westmere-2.6", 1000, 0.3, 3.0, 1.0)

    interfered = _victim_sample_stream(seed, interfered=True)
    interfered_spec = CpiSpec("victim-service", "westmere-2.6", 1000, 1.0,
                              1.05, 0.08)

    results = []
    for gate in gates:
        config = DEFAULT_CONFIG.with_overrides(min_cpu_usage=gate)
        results.append(UsageGateResult(
            min_cpu_usage=gate,
            false_anomalies_bimodal=_replay(bimodal_samples, config,
                                            bimodal_spec),
            true_anomalies_interfered=_replay(interfered, config,
                                              interfered_spec),
        ))
    return results


# -- passive vs active identification ----------------------------------------------

@dataclass
class PassiveActiveResult:
    """The paper's argument quantified: identification accuracy vs disruption."""

    passive_identified_correctly: bool
    passive_top_correlation: float
    passive_cpu_seconds_denied: float
    active_identified_correctly: bool
    active_probes: int
    active_innocents_disrupted: int
    active_cpu_seconds_denied: float
    active_seconds_elapsed: int


def passive_vs_active(seed: int = 0) -> PassiveActiveResult:
    """Compare Section 4.2's passive correlation with the active probe scheme.

    Both face the same machine: a sensitive victim, a bursty real antagonist,
    and an innocent CPU spinner that out-consumes everyone.  Passive
    identification costs nobody anything; the active scheme gets there by
    throttling innocents first.
    """
    from repro.testing import (
        NOISY_NEIGHBOR_PROFILE,
        QUIET_PROFILE,
        SENSITIVE_PROFILE,
        make_quiet_machine,
        make_scripted_job,
    )

    machine = make_quiet_machine("abl-active")
    rng = np.random.default_rng(seed)
    victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                               base_cpi=1.0, profile=SENSITIVE_PROFILE)
    machine.place(victim.tasks[0])
    antagonist_job = JobSpec(
        name="ant", num_tasks=1, scheduling_class=SchedulingClass.BATCH,
        priority_band=PriorityBand.NONPRODUCTION, cpu_limit_per_task=8.0,
        workload_factory=lambda i: SyntheticWorkload(
            base_cpi=1.5, profile=NOISY_NEIGHBOR_PROFILE,
            demand=with_noise(on_off(4.0, 0.3, period=240, duty=0.5), 0.05,
                              rng),
            threads=8))
    from repro.cluster.job import Job
    ant = Job(antagonist_job)
    machine.place(ant.tasks[0])
    spinner = make_scripted_job("spin", [6.0], cpu_limit=8.0,
                                scheduling_class=SchedulingClass.BATCH,
                                profile=QUIET_PROFILE, base_cpi=0.7)
    machine.place(spinner.tasks[0])

    sim = ClusterSimulation([machine], SimConfig(seed=seed))
    sampler = CpiSampler(machine, SamplerConfig())
    victim_samples: list[CpiSample] = []
    for _ in range(20 * 60):
        sim.step()
        t = sim.now - 1
        for sample in sampler.tick(t).to_samples():
            if sample.taskname == "victim/0":
                victim_samples.append(sample)

    # Passive: one correlation pass over the last 10 minutes.
    window = [s for s in victim_samples if s.timestamp_seconds > sim.now - 600]
    timestamps = [int(s.timestamp_seconds) for s in window]
    threshold = 1.0 * 1.2  # mean 1.0, ~2 sigma
    ranked, _ = rank_cotenant_suspects(
        machine.resident_tasks(), "victim", [s.cpi for s in window],
        timestamps, threshold, 10)
    passive_correct = ranked[0].jobname == "ant"

    # Active: probe one by one, hungriest first.
    probe = ActiveProbeIdentifier(sim, machine, probe_seconds=60)
    report = probe.identify(victim.tasks[0])
    return PassiveActiveResult(
        passive_identified_correctly=passive_correct,
        passive_top_correlation=ranked[0].correlation,
        passive_cpu_seconds_denied=0.0,
        active_identified_correctly=(report.identified == "ant/0"),
        active_probes=report.probes_run,
        active_innocents_disrupted=len(report.innocents_disrupted),
        active_cpu_seconds_denied=report.cpu_seconds_denied,
        active_seconds_elapsed=report.seconds_elapsed,
    )


# -- hard-cap quota -------------------------------------------------------------------

@dataclass
class CapQuotaResult:
    """Victim relief and antagonist cost at one cap quota."""

    quota: float
    victim_relative_cpi: float
    antagonist_usage_during_cap: float


def cap_quota_sweep(quotas=(0.01, 0.1, 0.5, 1.0, 2.0), seed: int = 0
                    ) -> list[CapQuotaResult]:
    """Sweep the hard-cap quota (the paper fixes 0.01 / 0.1 CPU-sec/sec).

    Tighter caps buy more victim relief at more antagonist starvation; the
    sweep shows the knee the paper's feedback-driven future work would seek.
    """
    results = []
    for i, quota in enumerate(quotas):
        scenario, victim, antagonist = victim_antagonist_machine(
            seed=seed + i,
            config=DEFAULT_CONFIG.with_overrides(auto_throttle=False),
            antagonist_kind=AntagonistKind.CACHE_THRASHER,
            antagonist_scale=1.3)
        samples: list[CpiSample] = []
        scenario.simulation.add_sample_sink(
            lambda t, name, batch: samples.extend(
                s for s in batch.to_samples()
                if s.jobname == "victim-service"))
        sim = scenario.simulation
        sim.run_minutes(15)
        pre = [s.cpi for s in samples if s.timestamp_seconds > sim.now - 600]
        cgroup = antagonist.tasks[0].cgroup
        cap_start = sim.now
        cgroup.apply_cap(quota, now=sim.now, duration=300)
        sim.run(300)
        post = [s.cpi for s in samples if s.timestamp_seconds > cap_start]
        results.append(CapQuotaResult(
            quota=quota,
            victim_relative_cpi=(float(np.mean(post)) / float(np.mean(pre))
                                 if pre and post else float("nan")),
            antagonist_usage_during_cap=cgroup.usage_between(
                cap_start, cap_start + 300),
        ))
    return results


# -- age weighting --------------------------------------------------------------------

@dataclass
class AgeWeightResult:
    """Spec tracking error under one age-weighting factor."""

    age_weight: float
    mean_abs_error: float
    worst_abs_error: float


def age_weight_sweep(weights=(0.0, 0.5, 0.9, 1.0), days: int = 14,
                     drift_per_day: float = 0.04, day_noise: float = 0.05,
                     samples_per_day: int = 60, seed: int = 0
                     ) -> list[AgeWeightResult]:
    """Sweep the 0.9/day history weight against a slowly drifting true CPI.

    Each simulated day feeds the aggregator a modest batch of samples drawn
    around a drifting-and-jittering true mean (small daily batches make the
    day estimate itself noisy — the regime where history helps).  Too little
    history (0.0) chases the daily jitter; too much (1.0) never forgets old
    levels; the paper's 0.9 balances the two.
    """
    from repro.core.aggregator import CpiAggregator

    results = []
    for weight in weights:
        config = CpiConfig(history_age_weight=weight, min_tasks_for_spec=3,
                           min_samples_per_task=5)
        aggregator = CpiAggregator(config)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
        true_mean = 1.5
        errors = []
        for day in range(days):
            true_mean += drift_per_day
            day_level = true_mean * float(
                np.exp(rng.normal(0.0, day_noise)))
            aggregator.ingest_batch(SampleColumns.from_samples([
                CpiSample(
                    jobname="drifting", platforminfo="westmere-2.6",
                    timestamp=(day * 86400 + i * 60) * 1_000_000,
                    cpu_usage=1.0,
                    cpi=max(0.01, day_level
                            + float(rng.normal(0.0, 0.15))),
                    taskname=f"drifting/{i % 6}")
                for i in range(samples_per_day)]))
            specs = aggregator.recompute(day * 86400)
            spec = next(iter(specs.values()))
            if day >= 2:  # skip the cold-start days every weight shares
                errors.append(abs(spec.cpi_mean - true_mean))
        results.append(AgeWeightResult(
            age_weight=weight,
            mean_abs_error=float(np.mean(errors)),
            worst_abs_error=float(np.max(errors)),
        ))
    return results


# -- group antagonists ------------------------------------------------------------------

@dataclass
class GroupAntagonistResult:
    """Section 4.2's caveat, measured.

    The failure mode is not mis-ranking — every member *is* guilty while it
    runs — but that throttling the single top suspect barely helps, because
    the remaining members keep taking their turns.  Throttling the group as
    a unit is what restores the victim, which is the paper's suggested
    extension ("looking at groups of antagonists as a unit").
    """

    num_antagonists: int
    max_individual_correlation: float
    group_correlation: float
    victim_cpi_inflation: float
    relative_cpi_top1_capped: float
    relative_cpi_group_capped: float


def group_antagonists(group_size: int = 4, seed: int = 0
                      ) -> GroupAntagonistResult:
    """A group of antagonists that take turns filling the cache."""
    from repro.cluster.job import Job
    from repro.cluster.machine import Machine
    from repro.cluster.platform import get_platform
    from repro.testing import SENSITIVE_PROFILE, make_scripted_job

    machine = Machine("abl-group", get_platform("westmere-2.6"),
                      cpi_noise_sigma=0.02,
                      rng=np.random.default_rng(seed))
    victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                               base_cpi=1.0, profile=SENSITIVE_PROFILE)
    machine.place(victim.tasks[0])

    heavy = ResourceProfile(cache_mib_per_cpu=8.0, membw_gbps_per_cpu=5.0,
                            cache_sensitivity=0.1, membw_sensitivity=0.1,
                            base_l3_mpki=15.0)
    period = 60 * group_size
    rng = np.random.default_rng(seed)
    members = []
    for i in range(group_size):
        spec = JobSpec(
            name=f"member-{i}", num_tasks=1,
            scheduling_class=SchedulingClass.BATCH,
            priority_band=PriorityBand.NONPRODUCTION, cpu_limit_per_task=8.0,
            workload_factory=lambda idx, i=i: SyntheticWorkload(
                base_cpi=1.5, profile=heavy,
                demand=with_noise(
                    on_off(4.0, 0.0, period=period,
                           duty=1.0 / group_size, phase=-i * 60), 0.05, rng),
                threads=4))
        job = Job(spec)
        machine.place(job.tasks[0])
        members.append(job.tasks[0])

    sampler = CpiSampler(machine, SamplerConfig())
    victim_samples: list[CpiSample] = []
    for _, samples in advance_sampled(machine, sampler, 0, 30 * 60):
        for sample in samples:
            if sample.taskname == "victim/0":
                victim_samples.append(sample)

    window = victim_samples[-10:]
    timestamps = [int(s.timestamp_seconds) for s in window]
    cpis = [s.cpi for s in window]
    threshold = 1.2
    usages = suspect_usage_matrix([member.cgroup for member in members],
                                  timestamps, 10).tolist()
    individual = [antagonist_correlation(cpis, usage, threshold)
                  for usage in usages]
    combined = [sum(u) for u in zip(*usages)]
    group_corr = antagonist_correlation(cpis, combined, threshold)
    pre_cpi = float(np.mean(cpis))
    inflation = pre_cpi / 1.0

    def run_capped(capped_tasks, start):
        for task in capped_tasks:
            task.cgroup.apply_cap(0.1, now=start, duration=300)
        observed = []
        for _, samples in advance_sampled(machine, sampler, start,
                                          start + 300):
            for sample in samples:
                if sample.taskname == "victim/0":
                    observed.append(sample.cpi)
        for task in capped_tasks:
            task.cgroup.release_cap()
        return float(np.mean(observed)) if observed else float("nan")

    # Arm 1: cap only the top-ranked member — the rest keep taking turns.
    top = members[int(np.argmax(individual))]
    now = 30 * 60
    top1_cpi = run_capped([top], now)
    # Recovery gap, then arm 2: cap the whole group as a unit.
    for _ in advance_sampled(machine, sampler, now + 300, now + 900):
        pass
    group_cpi = run_capped(members, now + 900)

    return GroupAntagonistResult(
        num_antagonists=group_size,
        max_individual_correlation=max(individual),
        group_correlation=group_corr,
        victim_cpi_inflation=inflation,
        relative_cpi_top1_capped=top1_cpi / pre_cpi,
        relative_cpi_group_capped=group_cpi / pre_cpi,
    )


# -- CFS capping vs hardware duty-cycle modulation -------------------------------

@dataclass
class ActuatorComparisonResult:
    """Section 8's actuator trade-off, measured."""

    victim_relative_cpi_cfs: float
    victim_relative_cpi_duty: float
    bystander_cpu_loss_cfs: float
    bystander_cpu_loss_duty: float
    duty_level: float
    duty_core_share: float


def cfs_vs_duty_cycle(seed: int = 0) -> ActuatorComparisonResult:
    """Compare the paper's CFS hard-capping against duty-cycle modulation.

    Both actuators throttle the same antagonist on a machine that also hosts
    an innocent latency-sensitive bystander.  CFS bandwidth control confines
    the damage to the target cgroup; duty-cycle modulation gates cores, so
    the bystander loses CPU too — the paper's stated reason for choosing the
    kernel mechanism.
    """
    from repro.cluster.machine import Machine
    from repro.cluster.platform import get_platform
    from repro.core.baselines.duty_cycle import DutyCycleThrottler
    from repro.core.throttle import ThrottleController
    from repro.testing import (
        NOISY_NEIGHBOR_PROFILE,
        SENSITIVE_PROFILE,
        make_scripted_job,
    )

    def build():
        machine = Machine("abl-actuator", get_platform("westmere-2.6"),
                          rng=np.random.default_rng(seed),
                          cpi_noise_sigma=0.0)
        victim = make_scripted_job("victim", [1.0], cpu_limit=2.0,
                                   base_cpi=1.0, profile=SENSITIVE_PROFILE)
        antagonist = make_scripted_job(
            "ant", [6.0], cpu_limit=8.0,
            scheduling_class=SchedulingClass.BATCH,
            profile=NOISY_NEIGHBOR_PROFILE)
        bystander = make_scripted_job("bystander", [2.0], cpu_limit=4.0,
                                      base_cpi=0.9)
        for job in (victim, antagonist, bystander):
            machine.place(job.tasks[0])
        return machine, victim, antagonist, bystander

    def measure(machine, seconds, start):
        victim_cpis, bystander_cpu = [], 0.0
        for t in range(start, start + seconds):
            result = machine.tick(t)
            victim_cpis.append(result.cpis["victim/0"])
            bystander_cpu += result.grants["bystander/0"]
        return float(np.mean(victim_cpis)), bystander_cpu / seconds

    # Arm 1: CFS bandwidth control.
    machine, victim, antagonist, bystander = build()
    pre_cpi, pre_bystander = measure(machine, 120, 0)
    cfs = ThrottleController(DEFAULT_CONFIG)
    cfs.cap(antagonist.tasks[0], now=120)
    cfs_cpi, cfs_bystander = measure(machine, 120, 120)

    # Arm 2: duty-cycle modulation, fresh identical machine.
    machine, victim, antagonist, bystander = build()
    pre_cpi2, pre_bystander2 = measure(machine, 120, 0)
    duty = DutyCycleThrottler(DEFAULT_CONFIG)
    action = duty.cap(machine, antagonist.tasks[0], now=120)
    duty_cpi, duty_bystander = measure(machine, 120, 120)

    return ActuatorComparisonResult(
        victim_relative_cpi_cfs=cfs_cpi / pre_cpi,
        victim_relative_cpi_duty=duty_cpi / pre_cpi2,
        bystander_cpu_loss_cfs=max(0.0, 1.0 - cfs_bystander / pre_bystander),
        bystander_cpu_loss_duty=max(0.0,
                                    1.0 - duty_bystander / pre_bystander2),
        duty_level=action.level,
        duty_core_share=action.core_share,
    )


# -- spec statistical robustness ---------------------------------------------------

@dataclass
class SpecConvergenceResult:
    """Spec estimation error vs sample-population size."""

    num_samples: int
    mean_error: float
    stddev_error: float


def spec_convergence(populations=(50, 200, 1000, 5000, 20000),
                     true_mean: float = 1.8, true_std: float = 0.16,
                     replicas: int = 20, seed: int = 0
                     ) -> list[SpecConvergenceResult]:
    """Section 3.1's robustness claim, quantified.

    "it is easy to generate tens of thousands of samples within a few hours,
    which helps make the CPI spec statistically robust."  For each population
    size, fit many spec replicas against samples drawn from the paper's
    Figure 7 distribution and record the mean absolute error of the learned
    mean and stddev.  Error should shrink roughly as 1/sqrt(n), putting the
    tens-of-thousands regime far inside the safe zone for a 2-sigma
    threshold.
    """
    from scipy import stats as sps

    from repro.core.aggregator import CpiAggregator

    # The paper's GEV fit (scipy's c = -xi).
    distribution = sps.genextreme(0.0534, loc=true_mean - 0.07,
                                  scale=0.133)
    results = []
    for n in populations:
        mean_errors, std_errors = [], []
        for replica in range(replicas):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, n, replica)))
            config = CpiConfig(min_tasks_for_spec=1, min_samples_per_task=1)
            aggregator = CpiAggregator(config)
            values = distribution.rvs(n, random_state=rng)
            aggregator.ingest_batch(SampleColumns.from_samples([
                CpiSample(
                    jobname="conv", platforminfo="westmere-2.6",
                    timestamp=i * 60_000_000, cpu_usage=1.0,
                    cpi=max(0.01, float(value)), taskname=f"conv/{i % 40}")
                for i, value in enumerate(values)]))
            spec = next(iter(aggregator.recompute(0).values()))
            mean_errors.append(abs(spec.cpi_mean - distribution.mean()))
            std_errors.append(abs(spec.cpi_stddev - distribution.std()))
        results.append(SpecConvergenceResult(
            num_samples=n,
            mean_error=float(np.mean(mean_errors)),
            stddev_error=float(np.mean(std_errors)),
        ))
    return results
