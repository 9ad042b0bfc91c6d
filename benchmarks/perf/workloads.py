"""The five benchmark workloads: seeded generators, runs, checks, digests.

Every workload is a closed-loop batch simulation driven from one process:
``build`` turns a seed into job specs and a ready scenario (timed as set-up),
``simulate`` advances it (timed as the measured work), ``collect`` — run after
the clock stopped — extracts simulated metrics, correctness checks and the
``sim_digest``.  The program under test only ever sees the generated job
specs; the seed never reaches it except as the scenario's root RNG seed.

Why these five (one line each; README.md has the layer table):

* ``fleet_dense``   few machines, many tasks — numpy planes do the work.
* ``fleet_wide``    many machines, few tasks — per-machine Python dominates.
* ``incident_storm`` anomalies every window — identify/policy/throttle hot,
  and ground truth exists for accuracy.
* ``chaos_soak``    faults + aggregator kills + churn + telemetry — the only
  place the robustness planes run at all.
* ``trial_corpus``  Section-7 trials — tiny single machines, build-heavy, the
  traffic most users run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from statistics import median
from typing import Any, Callable

import numpy as np

from repro.cluster.machine import Machine
from repro.core.config import CpiConfig
from repro.core.policy import PolicyAction
from repro.core.specstore import DurableSpecStore
from repro.experiments.analyses import detection_rates
from repro.experiments.scenarios import Scenario, build_cluster
from repro.experiments.soak import soak_config
from repro.experiments.trials import run_trial, run_trials
from repro.faults.profile import FAULT_PROFILES
from repro.obs import Observability, set_default_observability
from repro.obs.metrics import export_state
from repro.workloads import (AntagonistKind, make_antagonist_job_spec,
                             make_batch_job_spec)
from repro.workloads.services import make_service_job_spec

__all__ = ["WORKLOADS", "Outcome", "Workload", "canonical_digest"]

#: The paper's declaration threshold (Section 7: ~70% true positives here).
CORRELATION_THRESHOLD = 0.35


@dataclass
class Outcome:
    """What one finished repeat produced, gathered after the timed section."""

    #: Resident task-seconds simulated (the throughput numerator).
    task_ticks: int
    #: Simulated-time metrics and counts: exact for a seed, host-independent.
    sim: dict[str, float]
    #: ``(name, passed, detail)`` correctness checks.
    checks: list[tuple[str, bool, str]]
    #: sha256 over the run's canonicalised simulated state.
    digest: str


def _canon(obj: Any) -> Any:
    """JSON-able canonical form: floats as ``float.hex``, dicts sorted."""
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (bool, str, int)) or obj is None:
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return sorted((str(k), _canon(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if hasattr(obj, "value"):  # enums
        return _canon(obj.value)
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


def canonical_digest(obj: Any) -> str:
    """sha256 of ``obj`` with every float rendered bit-exactly."""
    text = json.dumps(_canon(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check(checks: list, name: str, passed: bool, detail: str) -> None:
    checks.append((name, bool(passed), detail))


class Workload:
    """One benchmark workload; subclasses fill in the three phases."""

    name: str = ""
    why: str = ""
    #: Length of one repeat at ``--seconds 8`` (BENCHMARK.json's
    #: ``run_seconds``), in chunks: ~1.6 host-s on the reference box.
    #: Scaled linearly with ``--seconds``.
    minutes: int = 0
    #: Simulated minutes in one chunk of ``simulate``.
    chunk_minutes: int = 1
    #: Shortest length at which every check can still pass (``--smoke``).
    smoke_minutes: int = 2
    #: Whether timing ``build`` captures the workload's set-up cost.
    setup_in_build = True
    #: Whether the traced run also probes the sharded engine (its probe
    #: scenario is a small ``scale_scenario``, this workload's shape).
    shard_probe = False

    def build(self, seed: int, minutes: int) -> Any:
        raise NotImplementedError

    def simulate(self, ctx: Any, minute_s: list[float],
                 on_minute: Callable[[int, int], None]) -> None:
        """Advance the scenario chunk by chunk (one simulated minute, or one
        trial), appending each chunk's host seconds to ``minute_s``.
        ``on_minute(i, n)`` is called, untimed, before chunk ``i`` of ``n``
        (the harness calibrates host speed there and starts keeping full
        trace spans at the last one)."""
        raise NotImplementedError

    def collect(self, ctx: Any) -> Outcome:
        raise NotImplementedError

    def setup_sample(self, seed: int, minutes: int) -> float:
        """Host seconds of one set-up (scenario build, placement, specs)."""
        start = time.perf_counter()
        self.build(seed, minutes)
        return time.perf_counter() - start


# -- fleet workloads ------------------------------------------------------------


@dataclass
class _FleetRun:
    """A built pipeline scenario plus what ``collect`` needs to judge it."""

    scenario: Scenario
    obs: Observability
    seconds: int
    #: Names of ground-truth antagonist jobs.
    antagonist_jobs: frozenset = frozenset()
    task_ticks: int = 0


@dataclass
class _SoakRun(_FleetRun):
    """The soak's churn generator state and kill schedule."""

    seed: int = 0
    kill_ticks: tuple[int, ...] = ()
    churn_rng: Any = None
    waves: int = 0
    arrivals: int = 0


def _resident(scenario: Scenario) -> int:
    return sum(m.num_tasks for m in scenario.simulation.machines.values())


def _pending(scenario: Scenario) -> int:
    return sum(len(job.pending_tasks())
               for job in scenario.simulation.scheduler.jobs.values())


def _incident_rows(scenario: Scenario) -> list[tuple]:
    """Incidents without their process-global ids, in (time, machine) order."""
    rows = []
    for i in scenario.pipeline.all_incidents():
        target = i.decision.target
        rows.append((i.time_seconds, i.machine, i.victim_taskname,
                     i.decision.action.value,
                     target.name if target is not None else None,
                     float(i.victim_cpi),
                     [(s.taskname, float(s.correlation)) for s in i.suspects],
                     None if i.post_cpi is None else float(i.post_cpi),
                     i.recovered))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def _fleet_digest(run: _FleetRun) -> str:
    pipeline = run.scenario.pipeline
    return canonical_digest({
        "aggregator": pipeline.aggregator.export_state(),
        "incidents": _incident_rows(run.scenario),
        "counters": export_state(run.obs.metrics),
        "samples": pipeline.total_samples,
        "now": run.scenario.simulation.now,
    })


def _identification(run: _FleetRun) -> dict[str, float]:
    """Accuracy against ground truth, with the repo's empty-set conventions
    (``experiments/chaos.py``): nothing identified means no wrong blame."""
    scenario = run.scenario
    incidents = scenario.pipeline.all_incidents()
    identified = [i for i in incidents if i.decision.target is not None]
    true_hits = [i for i in identified
                 if i.decision.target.job.name in run.antagonist_jobs]
    placed = {t.name for name in run.antagonist_jobs
              for t in scenario.jobs[name].tasks}
    named = {i.decision.target.name for i in true_hits}
    first_cap: dict[str, int] = {}
    for i in true_hits:
        if i.decision.action is PolicyAction.THROTTLE:
            first_cap.setdefault(i.decision.target.name, i.time_seconds)
    useful = sum(1 for i in incidents
                 if i.suspects
                 and i.suspects[0].correlation >= CORRELATION_THRESHOLD)
    return {
        "anomalies": sum(a.anomalies_seen
                         for a in scenario.pipeline.agents.values()),
        "incidents": len(incidents),
        "identified": len(identified),
        "caps": sum(1 for i in incidents
                    if i.decision.action is PolicyAction.THROTTLE),
        "ident_precision": (len(true_hits) / len(identified)
                            if identified else 1.0),
        "ident_recall": (len(named & placed) / len(placed)
                         if placed else 1.0),
        # Antagonists run from t=0, so first-cap time is the latency.
        "detect_latency_sim_s_p50": (float(median(first_cap.values()))
                                     if first_cap else 0.0),
        # Every incident is one suspect ranking that found co-tenants.
        "useful_frac": useful / len(incidents) if incidents else 0.0,
    }


class _FleetWorkload(Workload):
    """Shared simulate/collect for the four pipeline workloads."""

    def simulate(self, run: _FleetRun, minute_s: list[float],
                 on_minute: Callable[[int, int], None]) -> None:
        sim = run.scenario.simulation
        minutes = run.seconds // 60
        for minute in range(minutes):
            on_minute(minute, minutes)
            before = _resident(run.scenario)
            start = time.perf_counter()
            sim.run(60)
            # Trapezoid over the minute: exact while placement is static.
            run.task_ticks += (before + _resident(run.scenario)) * 30
            if (minute + 1) % 5 == 0:
                self.every_five_minutes(run)
            minute_s.append(time.perf_counter() - start)

    def every_five_minutes(self, run: _FleetRun) -> None:
        """Timed end-of-minute hook (the soak submits its churn wave here)."""

    def collect(self, run: _FleetRun) -> Outcome:
        pipeline = run.scenario.pipeline
        checks: list = []
        sim = _identification(run)
        emitted = pipeline.total_samples
        ingested = pipeline.aggregator.total_samples_ingested
        sim["samples_emitted"] = emitted
        sim["samples_delivered_frac"] = ingested / emitted if emitted else 0.0
        _check(checks, "samples_emitted", emitted > 0, f"{emitted} samples")
        self.check(run, sim, checks)
        return Outcome(task_ticks=run.task_ticks, sim=sim, checks=checks,
                       digest=_fleet_digest(run))

    def check(self, run: _FleetRun, sim: dict, checks: list) -> None:
        raise NotImplementedError

    def _check_clean_fleet(self, run: _FleetRun, sim: dict,
                           checks: list) -> None:
        """Clean fabric, sized to fit: nothing pending, no sample lost."""
        pending = _pending(run.scenario)
        _check(checks, "zero_pending", pending == 0, f"{pending} pending")
        _check(checks, "no_sample_lost",
               sim["samples_delivered_frac"] == 1.0,
               f"delivered {sim['samples_delivered_frac']!r} on a clean fabric")

    def _check_static_fleet(self, run: _FleetRun, sim: dict,
                            checks: list, tasks: int) -> None:
        """Clean fleets without churn: also every task resident and sampled."""
        self._check_clean_fleet(run, sim, checks)
        resident = _resident(run.scenario)
        _check(checks, "all_resident", resident == tasks,
               f"{resident} of {tasks} tasks resident")
        # One window per task per sampling period; a task idling under the
        # sampler's usage floor for a whole window is a counted discard.
        windows = run.seconds // run.scenario.pipeline.config.sampling_period
        expected = tasks * windows
        emitted = sim["samples_emitted"]
        _check(checks, "expected_sample_count",
               0.98 * expected <= emitted <= expected,
               f"{emitted} samples for {expected} task-windows")


def _job_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(np.random.SeedSequence((0xBE2C, seed)))
    return [int(s) for s in rng.integers(2**31, size=count)]


class FleetDense(_FleetWorkload):
    name = "fleet_dense"
    why = ("8 machines x 80 tasks, clean, no specs: numpy planes (demand, "
           "physics, charge ledger, window close) do nearly all the work")
    minutes = 16
    machines = 8
    jobs_per_class = 5
    tasks_per_job = 64  # 10 jobs x 64 = 640 tasks = 80 per machine
    shard_probe = True

    def build(self, seed: int, minutes: int) -> _FleetRun:
        obs = Observability()
        scenario = build_cluster(self.machines, seed=seed,
                                 config=CpiConfig(), obs=obs)
        seeds = _job_seeds(seed, 2 * self.jobs_per_class)
        # Limits sized so every task places: 40 x 0.3 latency-sensitive
        # (12 of 24 cores) + 40 x 0.5 batch = 32 <= 36 (1.5x overcommit).
        for i in range(self.jobs_per_class):
            scenario.submit(make_service_job_spec(
                f"svc-{i}", num_tasks=self.tasks_per_job, seed=seeds[i],
                demand_level=0.3, cpu_limit_per_task=0.3))
        for i in range(self.jobs_per_class):
            scenario.submit(make_batch_job_spec(
                f"batch-{i}", num_tasks=self.tasks_per_job,
                seed=seeds[self.jobs_per_class + i],
                demand_level=0.45, cpu_limit_per_task=0.5))
        return _FleetRun(scenario, obs, minutes * 60)

    def check(self, run, sim, checks) -> None:
        self._check_static_fleet(
            run, sim, checks, 2 * self.jobs_per_class * self.tasks_per_job)
        _check(checks, "no_incidents_without_specs", sim["incidents"] == 0,
               f"{sim['incidents']} incidents")


class FleetWide(_FleetWorkload):
    name = "fleet_wide"
    why = ("120 machines x 5 tasks, clean: per-machine Python loops, agent "
           "hooks and one sampler/aggregator call per machine dominate; "
           "placement makes set-up heavy")
    minutes = 7
    machines = 120
    tasks_per_machine = 5

    def build(self, seed: int, minutes: int) -> _FleetRun:
        obs = Observability()
        scenario = build_cluster(self.machines, seed=seed,
                                 config=CpiConfig(), obs=obs)
        seeds = _job_seeds(seed, self.tasks_per_machine)
        # Worst-fit placement spreads each job one task per machine.
        for i in range(3):
            scenario.submit(make_service_job_spec(
                f"svc-{i}", num_tasks=self.machines, seed=seeds[i]))
        for i in range(2):
            scenario.submit(make_batch_job_spec(
                f"batch-{i}", num_tasks=self.machines, seed=seeds[3 + i]))
        return _FleetRun(scenario, obs, minutes * 60)

    def check(self, run, sim, checks) -> None:
        self._check_static_fleet(run, sim, checks,
                                 self.machines * self.tasks_per_machine)
        per_machine = {m.num_tasks
                       for m in run.scenario.simulation.machines.values()}
        _check(checks, "evenly_spread",
               per_machine == {self.tasks_per_machine},
               f"tasks per machine: {sorted(per_machine)}")


class IncidentStorm(_FleetWorkload):
    name = "incident_storm"
    why = ("12 machines, 8 victim services with bootstrapped specs, 4 "
           "antagonist kinds: anomalies fire every window, so outlier -> "
           "identify -> policy -> throttle -> follow-up is hot; has ground "
           "truth for accuracy")
    minutes = 28
    smoke_minutes = 10  # 3 violations in 5 minutes, then a cap
    #: Accuracy floors need the caps and follow-ups of a full-length run.
    floors_from_seconds = 1200
    machines = 12
    kinds = (AntagonistKind.VIDEO_PROCESSING, AntagonistKind.CACHE_THRASHER,
             AntagonistKind.MEMBW_HOG, AntagonistKind.SCIENTIFIC_SIMULATION)

    def build(self, seed: int, minutes: int) -> _FleetRun:
        obs = Observability()
        scenario = build_cluster(self.machines, seed=seed,
                                 config=CpiConfig(), obs=obs)
        n = self.machines
        seeds = _job_seeds(seed, 8 + len(self.kinds) + 2)
        antagonists = []
        # Antagonists first: worst-fit then lands one of each kind on every
        # third machine before the victims fill in around them.
        for k, kind in enumerate(self.kinds):
            name = f"ant-{kind.value}"
            scenario.submit(make_antagonist_job_spec(
                name, kind, num_tasks=n // 2, seed=seeds[8 + k],
                demand_scale=1.3, cpu_limit_per_task=5.0))
            antagonists.append(name)
        for i in range(8):
            scenario.submit(make_service_job_spec(
                f"victim-{i}", num_tasks=2 * n, seed=seeds[i], base_cpi=1.0,
                demand_level=0.5, cpu_limit_per_task=0.6))
            scenario.bootstrap_service_spec(f"victim-{i}", 1.05, 0.08)
        for i in range(2):
            scenario.submit(make_batch_job_spec(
                f"filler-{i}", num_tasks=3 * n, seed=seeds[-1 - i],
                demand_level=0.3, cpu_limit_per_task=0.5))
        return _FleetRun(scenario, obs, minutes * 60,
                         antagonist_jobs=frozenset(antagonists))

    def check(self, run, sim, checks) -> None:
        self._check_clean_fleet(run, sim, checks)
        _check(checks, "incidents_raised", sim["incidents"] > 0,
               f"{sim['incidents']} incidents")
        _check(checks, "caps_applied", sim["caps"] > 0, f"{sim['caps']} caps")
        if run.seconds >= self.floors_from_seconds:
            # Floors, not expectations: ten seeds gave precision 0.975-0.996,
            # recall 0.75-0.92 and a median first cap at 130-220 s.
            _check(checks, "ident_precision_floor",
                   sim["ident_precision"] >= 0.9,
                   f"precision {sim['ident_precision']:.3f} >= 0.9")
            _check(checks, "ident_recall_floor", sim["ident_recall"] >= 0.5,
                   f"recall {sim['ident_recall']:.3f} >= 0.5")
            _check(checks, "detect_latency_ceiling",
                   0 < sim["detect_latency_sim_s_p50"] <= 600,
                   f"median first cap at "
                   f"{sim['detect_latency_sim_s_p50']:.0f} sim-s <= 600")


def _finite(spec, lifetime: float):
    """``spec`` with tasks that complete after ``lifetime`` granted CPU-s."""
    base = spec.workload_factory

    def factory(index: int):
        workload = base(index)
        original = workload.on_tick

        def on_tick(t, granted, capped):
            outcome = original(t, granted, capped)
            if outcome is None and workload.granted_cpu_seconds > lifetime:
                return "completed"
            return outcome

        workload.on_tick = on_tick
        return workload

    return replace(spec, workload_factory=factory)


class ChaosSoak(_FleetWorkload):
    name = "chaos_soak"
    why = ("16 machines, moderate faults, aggregator kills, durable spec "
           "store, telemetry, churn waves: the only workload where fault "
           "plane, checkpoints, WAL/snapshot, rescheduling and TSDB scrape "
           "run at all")
    minutes = 32
    smoke_minutes = 5  # one churn wave
    machines = 16
    kill_period = 900
    outage_seconds = 60

    def build(self, seed: int, minutes: int) -> _FleetRun:
        seconds = minutes * 60
        kill_ticks = tuple(range(self.kill_period, seconds, self.kill_period))
        profile = FAULT_PROFILES["moderate"].with_overrides(
            name="bench-soak", aggregator_kill_ticks=kill_ticks,
            aggregator_outage_seconds=self.outage_seconds)
        obs = Observability()
        scenario = build_cluster(
            self.machines, seed=seed, config=soak_config(),
            fault_profile=profile, fault_seed=seed + 1, obs=obs,
            telemetry=True, spec_store=DurableSpecStore(obs=obs))
        seeds = _job_seeds(seed, 2)
        scenario.submit(make_service_job_spec(
            "stable-svc", num_tasks=2 * self.machines, seed=seeds[0]))
        scenario.submit(make_batch_job_spec(
            "stable-batch", num_tasks=2 * self.machines, seed=seeds[1],
            demand_level=0.6, cpu_limit_per_task=1.0))
        scenario.pipeline.host.attach_reference()
        return _SoakRun(
            scenario, obs, seconds, seed=seed, kill_ticks=kill_ticks,
            churn_rng=np.random.default_rng(
                np.random.SeedSequence((0xC4A05, seed))))

    def every_five_minutes(self, run: _SoakRun) -> None:
        """One churn wave: a short-lived batch job; every 4th, an antagonist."""
        wave = run.waves
        run.waves += 1
        rng = run.churn_rng
        specs = [make_batch_job_spec(
            f"churn-batch-{wave}", num_tasks=int(rng.integers(2, 6)),
            seed=run.seed + wave,
            demand_level=float(rng.uniform(0.4, 1.5)))]
        if wave % 4 == 0:
            kinds = list(AntagonistKind)
            name = f"churn-ant-{wave}"
            specs.append(make_antagonist_job_spec(
                name, kinds[wave % len(kinds)], num_tasks=1,
                seed=run.seed + 1000 + wave, demand_scale=1.2))
            run.antagonist_jobs = run.antagonist_jobs | {name}
        for spec in specs:
            run.scenario.submit(_finite(spec, float(rng.uniform(600, 1800))))
            run.arrivals += 1

    def check(self, run, sim, checks) -> None:
        pipeline = run.scenario.pipeline
        host = pipeline.host
        plane = pipeline.faults
        metrics = run.obs.metrics
        drift = host.reference_drift()
        _check(checks, "zero_spec_drift", drift["exact"],
               f"{drift['specs_compared']} specs, "
               f"{drift['accumulators_compared']} accumulators compared")
        injected = plane.total_faults_injected
        observed = int(metrics.total("transport_faults")
                       + metrics.total("agent_crashes"))
        _check(checks, "faults_all_observed", injected == observed,
               f"injected {injected}, observed {observed}")
        kills = len(run.kill_ticks)
        # A kill inside the final outage window has not restarted yet.
        due = sum(1 for k in run.kill_ticks
                  if k + self.outage_seconds < run.seconds)
        _check(checks, "every_kill_recovered", host.restarts == due,
               f"{host.restarts} restarts for {due} due of {kills} kills")
        sim.update({
            "faults_injected": injected,
            "faults_observed": observed,
            "kills": kills,
            "restarts": host.restarts,
            "restarts_recovered_frac": host.restarts / due if due else 1.0,
            "wal_replayed": host.records_replayed,
            "snapshots": host.store.snapshots_taken,
            "arrivals": run.arrivals,
            "agent_crashes": sum(a.crash_count
                                 for a in pipeline.agents.values()),
        })


# -- trial corpus ------------------------------------------------------------------


class _StopAfterBuild(Exception):
    """Raised by the set-up probe at a trial's first machine tick."""


class TrialCorpus(Workload):
    name = "trial_corpus"
    why = ("Section-7 manual-capping trials, run_trials(jobs=1): single "
           "8-10-task machines, build-heavy, per-machine engine, no fused "
           "fleet, no pipeline; the traffic most users actually run")
    minutes = 20  # one chunk is one trial
    setup_in_build = False
    #: Simulated minutes in one trial (TrialConfig: 600 + 900 + 300 s).
    chunk_minutes = 30

    def build(self, seed: int, minutes: int) -> dict:
        set_default_observability(Observability())
        return {"seed_base": self.seed_base(seed), "count": minutes,
                "trials": []}

    @staticmethod
    def seed_base(seed: int) -> int:
        """First trial seed of a run: corpora of different runs are disjoint."""
        return seed * 1000

    def setup_sample(self, seed: int, minutes: int) -> float:
        """Host seconds to construct every trial's machine and tenants.

        ``run_trial`` builds and simulates in one call, so the probe runs
        each trial up to its first ``Machine.tick`` and stops it there.
        """
        def stop(self, t):
            raise _StopAfterBuild

        original = Machine.tick
        Machine.tick = stop
        try:
            start = time.perf_counter()
            for i in range(minutes):
                try:
                    run_trial(self.seed_base(seed) + i)
                except _StopAfterBuild:
                    pass
            return time.perf_counter() - start
        finally:
            Machine.tick = original

    def simulate(self, ctx: dict, minute_s: list[float],
                 on_minute: Callable[[int, int], None]) -> None:
        # One run_trials call per trial is the same serial loop the corpus
        # runs (trials share no state) and yields a per-trial host time.
        for i in range(ctx["count"]):
            on_minute(i, ctx["count"])
            start = time.perf_counter()
            ctx["trials"] += run_trials(1, seed_base=ctx["seed_base"] + i,
                                        jobs=1)
            minute_s.append(time.perf_counter() - start)

    def collect(self, ctx: dict) -> Outcome:
        trials = ctx["trials"]
        rates = detection_rates(trials, CORRELATION_THRESHOLD)
        declared = [t for t in trials if t.anomaly_detected
                    and t.top_correlation >= CORRELATION_THRESHOLD]
        with_antagonist = [t for t in trials if t.has_antagonist]
        named = [t for t in with_antagonist if t.picked_true_antagonist
                 and t.top_correlation >= CORRELATION_THRESHOLD]
        checks: list = []
        _check(checks, "all_trials_ran", len(trials) == ctx["count"],
               f"{len(trials)} of {ctx['count']} trials")
        _check(checks, "specs_calibrated",
               all(t.spec_mean > 0 and t.spec_stddev > 0 for t in trials),
               "every trial calibrated a positive spec")
        sim = {
            "trials": len(trials),
            "declared": rates.declared,
            "tp_rate": rates.true_positive_rate,
            "ident_precision": (sum(t.picked_true_antagonist
                                    for t in declared) / len(declared)
                                if declared else 1.0),
            "ident_recall": (len(named) / len(with_antagonist)
                             if with_antagonist else 1.0),
        }
        rows = [(t.seed, t.band.value, t.has_antagonist, t.num_tenants,
                 t.utilization, t.spec_mean, t.spec_stddev,
                 t.anomaly_detected, t.pre_cpi, t.top_suspect,
                 t.top_correlation, t.post_cpi, t.pre_l3_mpi, t.post_l3_mpi)
                for t in trials]
        return Outcome(
            task_ticks=(sum(t.num_tenants for t in trials)
                        * self.chunk_minutes * 60),
            sim=sim, checks=checks, digest=canonical_digest(rows))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (FleetDense(), FleetWide(), IncidentStorm(),
                        ChaosSoak(), TrialCorpus())
}
