"""The Section 7 large-scale evaluation harness.

"To evaluate what enforcement would do if it were more widely deployed, we
periodically look for recently-reported antagonists and manually cap their
CPU rate for 5 minutes, and examine the victim's CPI to see if it improves.
We collected data for about 400 such trials."

:func:`run_trial` reproduces one such trial end to end:

1. **Calibrate** (phase A): the victim runs with the antagonist idle; its CPI
   samples build the spec (mean, stddev) exactly as the aggregator would.
2. **Interfere** (phase B): the antagonist (if this trial has one) runs its
   bursty schedule; the outlier detector watches the victim; at the end the
   correlation engine ranks every co-tenant.
3. **Cap** (phase C): the *top-ranked* suspect is manually hard-capped for
   five minutes, whatever its correlation — recording the raw correlation
   lets every threshold be evaluated offline, which is how Figures 15a/16a
   sweep the threshold.

Classification follows Section 7.2: comparing the victim's CPI when the
antagonist was reported against the CPI during the cap, with the spec's
stddev as the margin — lower by a margin = true positive, higher = false
positive, neither = noise.

Production vs non-production victims differ the way the paper says they do:
"non-production jobs' behaviors are less uniform (e.g., engineers testing
experimental features)" — non-production victims get a slow random CPI
wander on top of their base behaviour, so their calibration is less
predictive and their trials noisier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.platform import get_platform
from repro.cluster.interference import ResourceProfile
from repro.cluster.job import Job, JobSpec
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.identify import rank_cotenant_suspects
from repro.core.outlier import OutlierDetector
from repro.perf.events import CounterEvent
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import CpiSpec
from repro.workloads import AntagonistKind, make_antagonist_workload
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant, gated, with_noise

__all__ = ["TrialConfig", "TrialResult", "advance_sampled", "run_trial",
           "run_trials", "TRIALS_PARALLEL_MIN_PER_JOB"]

#: Minimum trials per worker before ``run_trials`` fans out.  One trial
#: is ~100ms of work; below this floor the pool round-trips (task
#: pickling, result shipping, registry merges) eat the win, so shorter
#: corpora run serial and count ``trials_serial_fallback``.  Pass
#: ``min_per_job=0`` to force fan-out (parity tests do).
TRIALS_PARALLEL_MIN_PER_JOB = 8

#: Antagonist archetypes sampled by the trial generator.
_TRIAL_KINDS = (
    AntagonistKind.VIDEO_PROCESSING,
    AntagonistKind.SCIENTIFIC_SIMULATION,
    AntagonistKind.REPLAYER,
    AntagonistKind.CACHE_THRASHER,
    AntagonistKind.MEMBW_HOG,
    AntagonistKind.COMPRESSION,
)

_VICTIM_PROFILE = ResourceProfile(
    cache_mib_per_cpu=2.0, membw_gbps_per_cpu=1.0,
    cache_sensitivity=0.9, membw_sensitivity=0.7, base_l3_mpki=2.5)

_FILLER_PROFILE = ResourceProfile(
    cache_mib_per_cpu=0.7, membw_gbps_per_cpu=0.35,
    cache_sensitivity=0.4, membw_sensitivity=0.3, base_l3_mpki=1.5)


@dataclass(frozen=True)
class TrialConfig:
    """Phase durations and environment knobs for one trial."""

    calibration_seconds: int = 600
    interference_seconds: int = 900
    cap_seconds: int = 300            # the paper's 5-minute manual cap
    antagonist_probability: float = 0.75
    #: Probability (given an antagonist) of a *second* antagonist — the
    #: shared-blame case where capping only the top suspect half-helps.
    second_antagonist_probability: float = 0.2
    nonproduction_probability: float = 0.35
    #: CPI wander amplitude for non-production victims.
    nonprod_wander: float = 0.15
    cpi_config: CpiConfig = DEFAULT_CONFIG


@dataclass
class TrialResult:
    """Everything Figures 14-16 need from one trial."""

    seed: int
    band: PriorityBand
    has_antagonist: bool
    antagonist_kind: Optional[str]
    num_tenants: int
    #: Machine CPU utilisation (granted / capacity) during interference.
    utilization: float
    #: Victim spec learned during calibration.
    spec_mean: float
    spec_stddev: float
    #: Whether the 3-in-5-minutes anomaly fired during interference.
    anomaly_detected: bool
    #: Victim mean CPI over the last windows of interference (pre-cap).
    pre_cpi: float
    #: Top suspect info (always recorded; threshold applied offline).
    top_suspect: Optional[str]
    top_suspect_job: Optional[str]
    top_correlation: float
    picked_true_antagonist: bool
    #: Victim mean CPI during the cap.
    post_cpi: float
    #: Victim L3 misses/instruction before and during the cap.
    pre_l3_mpi: float
    post_l3_mpi: float
    #: Victim L2 misses/instruction before and during the cap (the private
    #: cache barely responds to co-runner pressure).
    pre_l2_mpi: float = float("nan")
    post_l2_mpi: float = float("nan")
    #: Victim memory requests per cycle before and during the cap.
    pre_mem_req_per_cycle: float = float("nan")
    post_mem_req_per_cycle: float = float("nan")

    @property
    def relative_cpi(self) -> float:
        """CPI during throttling over CPI before (Fig 15b/16c/16d metric)."""
        return self.post_cpi / self.pre_cpi if self.pre_cpi > 0 else float("nan")

    @property
    def cpi_degradation(self) -> float:
        """Pre-cap CPI over the job's mean CPI (Fig 16c's x-axis)."""
        return self.pre_cpi / self.spec_mean if self.spec_mean > 0 else float("nan")

    @property
    def cpi_increase_sigmas(self) -> float:
        """How many spec stddevs the pre-cap CPI sits above the mean."""
        if self.spec_stddev <= 0:
            return float("inf")
        return (self.pre_cpi - self.spec_mean) / self.spec_stddev

    @property
    def relative_l3(self) -> float:
        """L3 MPI during the cap over before it (Fig 15c's y-axis)."""
        return (self.post_l3_mpi / self.pre_l3_mpi
                if self.pre_l3_mpi > 0 else float("nan"))

    @property
    def relative_l2(self) -> float:
        """L2 MPI during the cap over before it."""
        return (self.post_l2_mpi / self.pre_l2_mpi
                if self.pre_l2_mpi > 0 else float("nan"))

    @property
    def relative_mem_req_per_cycle(self) -> float:
        """Memory requests/cycle during the cap over before it."""
        return (self.post_mem_req_per_cycle / self.pre_mem_req_per_cycle
                if self.pre_mem_req_per_cycle > 0 else float("nan"))

    def classify(self) -> str:
        """'tp' / 'fp' / 'noise' per Section 7.2's stddev margin."""
        margin = self.spec_stddev
        if self.post_cpi < self.pre_cpi - margin:
            return "tp"
        if self.post_cpi > self.pre_cpi + margin:
            return "fp"
        return "noise"


class _Wander:
    """A non-production victim's base-CPI multiplier at second ``t``: the
    random walk (one step per 30 s), times ``1 + amp`` in the high half
    of each oscillation period when ``amp > 0``, times ``1 + size`` from
    second ``at`` on when ``at`` is set.

    Pure: the value depends on ``t`` and the fields alone, which
    :attr:`spec` declares, as :class:`~repro.workloads.diurnal.DiurnalPattern`
    does, so the demand plane may evaluate it ahead of the tick that reads
    it.
    """

    __slots__ = ("walk", "at", "size", "amp", "period", "phase")

    def __init__(self, walk: np.ndarray, at: Optional[int], size: float,
                 amp: float, period: int, phase: int) -> None:
        self.walk = walk
        self.at = at
        self.size = size
        self.amp = amp
        self.period = period
        self.phase = phase

    @property
    def spec(self) -> tuple:
        return ("wander", self.walk.tobytes(), self.at, self.size, self.amp,
                self.period, self.phase)

    def __call__(self, t: int) -> float:
        walk = self.walk
        value = float(walk[min(len(walk) - 1, t // 30)])
        period = self.period
        if self.amp > 0.0 and ((t + self.phase) % period) < period / 2:
            value *= 1.0 + self.amp
        if self.at is not None and t >= self.at:
            value *= 1.0 + self.size
        return value


def _make_victim(rng: np.random.Generator, band: PriorityBand,
                 wander: float) -> SyntheticWorkload:
    demand = with_noise(constant(float(rng.uniform(0.8, 1.5))), 0.06, rng)
    modulation = None
    if band is PriorityBand.NONPRODUCTION and wander > 0:
        # "Non-production jobs' behaviors are less uniform (e.g., engineers
        # testing experimental features)": a random walk in base CPI, plus —
        # half the time — a self-inflicted CPI oscillation (phases of
        # different work) whose highs look exactly like interference but
        # that no amount of antagonist-throttling fixes, plus occasionally a
        # permanent step change (a new binary push).
        steps = rng.normal(0.0, wander / 2.0, size=8192)
        walk = np.clip(1.0 + np.cumsum(steps) * 0.3, 1.0 - wander,
                       1.0 + wander)
        osc_amp = 0.0
        osc_period = 600
        osc_phase = 0
        if rng.random() < 0.5:
            osc_amp = float(rng.uniform(0.3, 0.8))
            osc_period = int(rng.integers(300, 900))
            osc_phase = int(rng.integers(osc_period))
        step_at = None
        step_size = 0.0
        if rng.random() < 0.4:
            step_at = int(rng.integers(700, 1600))
            step_size = float(rng.choice((-1.0, 1.0))
                              * rng.uniform(0.08, 0.22))

        modulation = _Wander(walk, step_at, step_size, osc_amp, osc_period,
                             osc_phase)

    return SyntheticWorkload(
        base_cpi=float(rng.uniform(0.9, 1.3)),
        profile=_VICTIM_PROFILE,
        demand=demand,
        threads=16,
        cpi_modulation=modulation,
    )


def _single_task_job(name: str, workload: SyntheticWorkload,
                     scheduling_class: SchedulingClass,
                     band: PriorityBand, cpu_limit: float) -> Job:
    return Job(JobSpec(
        name=name, num_tasks=1, scheduling_class=scheduling_class,
        priority_band=band, cpu_limit_per_task=cpu_limit,
        workload_factory=lambda index: workload))


def _gated(workload: SyntheticWorkload, start: int) -> SyntheticWorkload:
    """Silence a workload's demand before ``start`` (calibration phase)."""
    workload._demand = gated(workload._demand, start)
    return workload


def advance_sampled(machine: Machine, sampler: CpiSampler, start: int,
                    end: int
                    ) -> Iterator[tuple[list[list[float]], Iterable]]:
    """Step ``machine`` over seconds ``[start, end)`` one sampling-window
    edge at a time.

    Each stretch runs through the next second at which the sampler acts
    (:meth:`SamplerConfig.next_edge`), or to ``end``, as one
    :meth:`Machine.advance`; the sampler ticks only at that second (at any
    other its ``tick`` is a no-op), after the machine has run it.  Yields
    each stretch's per-second grants and the samples of its last second,
    decoded for the trial's readers (none when that second does not act).
    """
    next_edge = sampler.config.next_edge
    t = start
    while t < end:
        edge = next_edge(t)
        last = min(edge, end - 1)
        grants = machine.advance(t, last + 1)
        yield grants, (sampler.tick(last).to_samples() if last == edge
                       else ())
        t = last + 1


def run_trial(seed: int, config: TrialConfig | None = None) -> TrialResult:
    """Run one manual-capping trial; see the module docstring for phases.

    The machine advances a sampling window at a time
    (:func:`advance_sampled`), equal to ticking it and its sampler at every
    second, and is released (:meth:`Machine.release`) at the end."""
    config = config or TrialConfig()
    cpi_config = config.cpi_config
    rng = np.random.default_rng(np.random.SeedSequence((0xC0FFEE, seed)))

    band = (PriorityBand.NONPRODUCTION
            if rng.random() < config.nonproduction_probability
            else PriorityBand.PRODUCTION)
    has_antagonist = bool(rng.random() < config.antagonist_probability)

    machine = Machine(f"trial-{seed}", get_platform("westmere-2.6"),
                      rng=np.random.default_rng(
                          np.random.SeedSequence((0xFACE, seed))),
                      cpi_noise_sigma=0.03)

    victim_workload = _make_victim(rng, band, config.nonprod_wander)
    victim = _single_task_job("victim", victim_workload,
                              SchedulingClass.LATENCY_SENSITIVE, band, 2.0)
    machine.place(victim.tasks[0])

    antagonist_kind: Optional[AntagonistKind] = None
    antagonist_job: Optional[Job] = None
    if has_antagonist:
        antagonist_kind = _TRIAL_KINDS[int(rng.integers(len(_TRIAL_KINDS)))]
        workload = make_antagonist_workload(
            antagonist_kind, rng,
            demand_scale=float(rng.uniform(0.6, 1.6)))
        _gated(workload, config.calibration_seconds)
        antagonist_job = _single_task_job(
            "antagonist", workload, SchedulingClass.BATCH,
            PriorityBand.NONPRODUCTION, 8.0)
        machine.place(antagonist_job.tasks[0])
        if rng.random() < config.second_antagonist_probability:
            # Shared blame: two antagonists split the interference, so
            # capping only the top-ranked one brings partial relief.
            second_kind = _TRIAL_KINDS[int(rng.integers(len(_TRIAL_KINDS)))]
            second = make_antagonist_workload(
                second_kind, rng, demand_scale=float(rng.uniform(0.6, 1.3)))
            _gated(second, config.calibration_seconds)
            machine.place(_single_task_job(
                "antagonist-2", second, SchedulingClass.BATCH,
                PriorityBand.NONPRODUCTION, 8.0).tasks[0])

    from repro.workloads.demand import on_off

    num_fillers = int(rng.integers(2, 12))
    for i in range(num_fillers):
        if rng.random() < 0.5:
            # Bursty filler: its usage spikes can spuriously line up with
            # the victim's bad minutes and out-correlate the real culprit.
            period = int(rng.integers(240, 900))
            demand = with_noise(
                on_off(float(rng.uniform(0.5, 2.5)),
                       float(rng.uniform(0.05, 0.5)),
                       period=period, duty=float(rng.uniform(0.3, 0.7)),
                       phase=int(rng.integers(period))), 0.08, rng)
        else:
            demand = with_noise(constant(float(rng.uniform(0.2, 2.2))),
                                0.08, rng)
        filler = SyntheticWorkload(
            base_cpi=float(rng.uniform(0.7, 1.6)),
            profile=_FILLER_PROFILE,
            demand=demand,
            threads=8)
        scheduling = (SchedulingClass.LATENCY_SENSITIVE if rng.random() < 0.5
                      else SchedulingClass.BATCH)
        machine.place(_single_task_job(
            f"filler-{i}", filler, scheduling,
            PriorityBand.NONPRODUCTION, 3.0).tasks[0])

    sampler = CpiSampler(machine, SamplerConfig(
        cpi_config.sampling_duration, cpi_config.sampling_period))
    detector = OutlierDetector(cpi_config)

    calibration_cpis: list[float] = []
    victim_samples: list = []
    spec: Optional[CpiSpec] = None
    granted_sum = 0.0
    granted_ticks = 0

    victim_name = victim.tasks[0].name
    victim_cgroup = victim.tasks[0].cgroup.name
    end_a = config.calibration_seconds
    end_b = end_a + config.interference_seconds
    end_c = end_b + config.cap_seconds

    def counter_snapshot():
        counters = machine.counters.counters_for(victim_cgroup)
        return {
            "l3": counters.read(CounterEvent.L3_MISSES),
            "l2": counters.read(CounterEvent.L2_MISSES),
            "mem": counters.read(CounterEvent.MEMORY_REQUESTS),
            "instr": counters.read(CounterEvent.INSTRUCTIONS_RETIRED),
            "cycles": counters.read(CounterEvent.CPU_CLK_UNHALTED_REF),
        }
    # Second 0 is a plain tick: benchmarks/perf times a trial's
    # construction by stopping it at its first Machine.tick.
    machine.tick(0)
    sampler.tick(0)
    for _, samples in advance_sampled(machine, sampler, 1, end_a):
        for sample in samples:
            if sample.taskname == victim_name:
                calibration_cpis.append(sample.cpi)

    if len(calibration_cpis) < 3:
        raise RuntimeError(f"trial {seed}: calibration produced too few samples")
    calibration_mean = float(np.mean(calibration_cpis))
    # Floor the stddev at ~8% of the mean: 10-second counting windows
    # average away most measurement noise, but a real spec is built from
    # thousands of heterogeneous tasks (Table 1's stddevs run 10-20% of the
    # mean), so declarations happen at single-digit sigma counts as in
    # Figure 16b.
    calibration_std = max(0.08 * calibration_mean,
                          float(np.std(calibration_cpis)))
    if band is PriorityBand.NONPRODUCTION:
        # Specs refresh every 24 hours; a non-production job's behaviour has
        # often moved on since (usually upward: heavier experiments).  A
        # stale, underestimating spec is the main source of the paper's
        # weaker non-production accuracy: the victim looks chronically
        # anomalous, an active co-tenant picks up a spurious correlation,
        # and capping it cannot restore a CPI the victim never had.
        calibration_mean *= float(rng.uniform(0.60, 1.05))
    spec = CpiSpec(
        jobname="victim", platforminfo=machine.platform.name,
        num_samples=len(calibration_cpis), cpu_usage_mean=1.0,
        cpi_mean=calibration_mean,
        cpi_stddev=calibration_std,
    )

    pre_counters_start = counter_snapshot()
    for grants, samples in advance_sampled(machine, sampler, end_a, end_b):
        for row in grants:
            granted_sum += sum(row)
        granted_ticks += len(grants)
        for sample in samples:
            if sample.taskname == victim_name:
                victim_samples.append(sample)
    pre_counters_end = counter_snapshot()
    anomaly_detected = bool(detector.observe_samples(victim_samples, spec))

    # Rank suspects over the last correlation window of phase B.
    horizon = end_b - cpi_config.correlation_window
    window = [s for s in victim_samples if s.timestamp_seconds > horizon]
    timestamps = [int(s.timestamp_seconds) for s in window]
    victim_cpi_series = [s.cpi for s in window]
    threshold = spec.outlier_threshold(cpi_config.outlier_stddevs)
    ranked, suspect_tasks = rank_cotenant_suspects(
        machine.resident_tasks(), "victim", victim_cpi_series, timestamps,
        threshold, cpi_config.sampling_duration)
    top = ranked[0] if ranked else None

    pre_window = [s.cpi for s in victim_samples
                  if s.timestamp_seconds > end_b - 360]
    pre_cpi = float(np.mean(pre_window)) if pre_window else float(
        np.mean(victim_cpi_series)) if victim_cpi_series else spec.cpi_mean

    # Phase C: cap the top suspect (manually, whatever its correlation).
    if top is not None:
        suspect_tasks[top.taskname].cgroup.apply_cap(
            cpi_config.hardcap_quota_batch, now=end_b,
            duration=config.cap_seconds)
    post_counters_start = counter_snapshot()
    post_cpis: list[float] = []
    for _, samples in advance_sampled(machine, sampler, end_b, end_c):
        for sample in samples:
            if sample.taskname == victim_name:
                post_cpis.append(sample.cpi)
    post_counters_end = counter_snapshot()
    post_cpi = float(np.mean(post_cpis)) if post_cpis else pre_cpi

    def per(event, base, start, end):
        delta_event = end[event] - start[event]
        delta_base = end[base] - start[base]
        return delta_event / delta_base if delta_base > 0 else float("nan")

    result = TrialResult(
        seed=seed,
        band=band,
        has_antagonist=has_antagonist,
        antagonist_kind=antagonist_kind.value if antagonist_kind else None,
        num_tenants=machine.num_tasks,
        utilization=(granted_sum / granted_ticks / machine.cpu_capacity
                     if granted_ticks else 0.0),
        spec_mean=spec.cpi_mean,
        spec_stddev=spec.cpi_stddev,
        anomaly_detected=anomaly_detected,
        pre_cpi=pre_cpi,
        top_suspect=top.taskname if top else None,
        top_suspect_job=top.jobname if top else None,
        top_correlation=top.correlation if top else 0.0,
        picked_true_antagonist=bool(
            top and top.jobname.startswith("antagonist")),
        post_cpi=post_cpi,
        pre_l3_mpi=per("l3", "instr", pre_counters_start, pre_counters_end),
        post_l3_mpi=per("l3", "instr", post_counters_start,
                        post_counters_end),
        pre_l2_mpi=per("l2", "instr", pre_counters_start, pre_counters_end),
        post_l2_mpi=per("l2", "instr", post_counters_start,
                        post_counters_end),
        pre_mem_req_per_cycle=per("mem", "cycles", pre_counters_start,
                                  pre_counters_end),
        post_mem_req_per_cycle=per("mem", "cycles", post_counters_start,
                                   post_counters_end),
    )
    # Free the machine's fleet and task table by reference counting.
    machine.release()
    return result


def _run_trial_star(seed_and_config: tuple[int, TrialConfig | None]
                    ) -> tuple[TrialResult, dict]:
    """Pool entry point: unpack ``(seed, config)`` for :func:`run_trial`.

    Runs under a fresh default observability facade (isolating the worker
    from any state inherited across ``fork``) and ships the trial's
    registry state back alongside the result, so the parent's metrics
    report doesn't silently lose the detector counters trials record.
    """
    from repro.obs import Observability, set_default_observability
    from repro.obs.metrics import export_state

    seed, config = seed_and_config
    obs = Observability()
    set_default_observability(obs)
    return run_trial(seed, config), export_state(obs.metrics)


def run_trials(num_trials: int, config: TrialConfig | None = None,
               seed_base: int = 0, jobs: int = 1,
               min_per_job: Optional[int] = None) -> list[TrialResult]:
    """Run ``num_trials`` independent trials (the paper collected ~400).

    Every trial is seeded from its own ``SeedSequence((0xC0FFEE, seed))`` /
    ``((0xFACE, seed))`` pair and shares no state with its neighbours, so
    with ``jobs > 1`` the trials fan out across the persistent shared
    process pool (:mod:`repro.experiments.workerpool` — spawned once per
    process, reused by every fan-out) and ``pool.map`` reassembles the
    results in seed order — the returned list is identical to a serial
    run, trial for trial and bit for bit.  Worker observability ships
    back with each result and folds into this process's default registry
    in seed order, so the metrics report no longer under-counts under
    ``jobs > 1``.

    Corpora shorter than ``min_per_job`` trials per worker (default
    :data:`TRIALS_PARALLEL_MIN_PER_JOB`) run serial instead — the pool
    round-trips would cost more than they save — counting a
    ``trials_serial_fallback`` tick in the default metrics registry.
    """
    if num_trials < 1:
        raise ValueError(f"num_trials must be >= 1, got {num_trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    from repro.obs import default_observability
    from repro.obs.metrics import merge_state

    jobs = min(jobs, num_trials)
    if min_per_job is None:
        min_per_job = TRIALS_PARALLEL_MIN_PER_JOB
    if jobs > 1 and num_trials < jobs * min_per_job:
        default_observability().metrics.counter(
            "trials_serial_fallback").inc()
        jobs = 1
    if jobs == 1:
        return [run_trial(seed_base + i, config) for i in range(num_trials)]
    from repro.experiments.workerpool import shared_pool

    work = [(seed_base + i, config) for i in range(num_trials)]
    chunksize = max(1, num_trials // (jobs * 4))
    pool = shared_pool(jobs)
    outcomes = pool.map(_run_trial_star, work, chunksize=chunksize)
    registry = default_observability().metrics
    for _result, state in outcomes:
        merge_state(registry, state, gauges="set")
    return [result for result, _state in outcomes]
