"""The shard worker: one persistent process executing slices of the fleet.

Each worker rebuilds the *full* deterministic scenario from a module-level
builder plus kwargs (the "replicated build" — no machine state ever
crosses a process boundary), then restricts execution to its shard of
machines.  Per-machine RNG streams are spawned from the root seed before
the restriction (`ClusterSimulation.__init__`), so which shard a machine
lands on cannot change any draw — determinism by construction.

Workers are *persistent* (:class:`~repro.cluster.shards.ShardPool`): one
process serves many runs, looping on ``("run", spec)`` requests.  The
process-spawn cost is paid once per pool lifetime, and after a scenario
key has run twice the worker *prebuilds* the next fresh replica during
the idle gap after ``("release",)`` — so warm reruns of the same scenario
(bench sweeps, repeated trials) start with both spawn and build already
amortized.

The worker owns everything machine-local: physics, samplers, agents
(detection, throttling, follow-ups), and, under a fault profile, the
machine-side fabric (uplinks, ack links, spec links, upload clients, crash
injectors).  The coordinator (:mod:`repro.cluster.shards`) owns the
control plane: the canonical aggregator, spec refresh decisions, the
sample log, and merged telemetry.

Synchronization happens at the natural barrier — every sampler
window-close tick (``t >= duration and (t - duration) % period == 0``; all
samplers share the duty cycle, so the schedule is global).  At a barrier
the worker sends its closed windows and captured fabric arrivals, as
columnar :class:`~repro.core.samplebatch.SampleColumns` batches, over its
pipe, and blocks for the coordinator's spec-refresh verdict before
letting its agents consume the windows — the exact order the
single-process pipeline interleaves these effects in.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.perf.profiling import StageTimers

__all__ = ["ShardSpec", "ShardedRunUnsupported", "COORDINATOR_COUNTERS",
           "barrier_ticks", "check_shardable", "run_pool_worker"]

#: Counters owned by the coordinator and excluded from every worker
#: export: the tick clock (accounted once, coordinator-side) and the
#: durable aggregator host's recovery instruments (the worker's replica
#: host is schedule-tracking only, but its replicated *build* can WAL
#: bootstrap specs before the demotion — those appends must not
#: double-count against the canonical host's).
COORDINATOR_COUNTERS = (
    "sim_ticks",
    "aggregator_crashes",
    "aggregator_restarts",
    "wal_records_appended",
    "wal_replayed_records",
    "snapshot_compactions",
    "wal_torn_tail",
)

#: Runs of one scenario key before the worker starts prebuilding the next
#: replica at release time.  One-off scenarios (most tests) never pay a
#: wasted build; repeated ones (bench sweeps, parity suites) hit a warm
#: prebuilt scenario from their third run on.
PREBUILD_AFTER_RUNS = 2


class ShardedRunUnsupported(RuntimeError):
    """The scenario uses a feature the sharded engine cannot replay.

    Sharded execution keeps the scheduler on the coordinator and never
    consults it mid-run, so scenarios that re-place tasks (pending work at
    build time, or ``enable_migration``) must run single-process.
    """


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs: rebuild the world, run its slice.

    Attributes:
        index: this shard's position in the plan (0-based).
        builder: module-level callable returning a
            :class:`~repro.experiments.scenarios.Scenario`-like object
            (``.simulation`` + ``.pipeline``); must be importable by the
            worker process.
        kwargs: keyword arguments for ``builder``.
        machines: the machine names this worker executes.
        seconds: simulated seconds to run.
    """

    index: int
    builder: Callable[..., Any]
    kwargs: dict
    machines: tuple[str, ...]
    seconds: int

    def scenario_key(self) -> tuple:
        """Identity of the *replica build* (shard-independent).

        Two specs with the same key build byte-identical scenarios, so a
        prebuilt replica for one can serve the other — the shard
        restriction and run length are applied after the build.
        """
        return (self.builder, tuple(sorted(
            (name, repr(value)) for name, value in self.kwargs.items())))


def barrier_ticks(sampler_config, seconds: int) -> list[int]:
    """Every global window-close tick in ``[0, seconds)``.

    Windows open on period boundaries and close ``duration`` seconds
    later; every machine shares the duty cycle, so close ticks are fleet-
    global and both sides of the pipe can compute the same schedule
    independently.
    """
    duration = sampler_config.duration_seconds
    period = sampler_config.period_seconds
    return [t for t in range(duration, seconds)
            if (t - duration) % period == 0]


def check_shardable(scenario) -> None:
    """Raise :class:`ShardedRunUnsupported` unless the scenario can shard."""
    pipeline = getattr(scenario, "pipeline", None)
    simulation = getattr(scenario, "simulation", None)
    if pipeline is None or simulation is None:
        raise TypeError("builder must return a Scenario-like object with "
                        ".simulation and .pipeline attributes, got "
                        f"{type(scenario).__name__}")
    if pipeline.enable_migration:
        raise ShardedRunUnsupported(
            "enable_migration moves tasks across machines mid-run; the "
            "sharded engine cannot replay that — run single-process")
    pending = sorted(
        job.name for job in simulation.scheduler.jobs.values()
        if job.pending_tasks())
    if pending:
        raise ShardedRunUnsupported(
            "scenario has unplaced tasks at build time; the periodic "
            "rescheduler would mutate placement mid-run, which the sharded "
            f"engine cannot replay (pending jobs: {pending})")


def _portable_incidents(agents, shard: tuple[str, ...]) -> list[tuple]:
    """Final incidents, sanitised for pickling.

    Live incidents reference scheduler tasks (which drag whole jobs,
    machines, and workload closures along); targets are replaced with
    name-only stubs carrying exactly what reporting reads (``.name`` and
    ``.job.name``).  Each entry is ``(time, machine, seq, incident)`` —
    the coordinator merge key reconstructing global creation order.
    """
    from dataclasses import replace

    out = []
    for name in shard:
        for seq, incident in enumerate(agents[name].incidents):
            decision = incident.decision
            target = decision.target
            if target is not None:
                target = _TaskRef(name=target.name,
                                  job=_JobRef(name=target.job.name))
                decision = replace(decision, target=target)
            out.append((incident.time_seconds, incident.machine, seq,
                        replace(incident, decision=decision, trace=None)))
    return out


@dataclass(frozen=True)
class _JobRef:
    """Picklable stand-in for a job on a shipped incident."""

    name: str


@dataclass(frozen=True)
class _TaskRef:
    """Picklable stand-in for an incident's target task."""

    name: str
    job: _JobRef


@dataclass
class _Prebuilt:
    """A fresh replica built ahead of its run (see PREBUILD_AFTER_RUNS)."""

    key: tuple
    scenario: Any
    obs: Any
    build_seconds: float


def _build_scenario(spec: ShardSpec):
    """One fresh, isolated replica build: new default facade, then build."""
    from repro.obs import Observability, set_default_observability

    obs = Observability()
    set_default_observability(obs)
    scenario = spec.builder(**spec.kwargs)
    check_shardable(scenario)
    return scenario, obs


def run_pool_worker(conn) -> None:
    """Persistent worker entry point: loop run requests until stopped.

    Protocol (worker side): receive ``("run", spec)``; reply
    ``("ready", index)`` once the replica is built and restricted; run the
    barrier loop; send ``("finished", index, summary)``; block for
    ``("release",)``; optionally prebuild; loop.  ``("stop",)`` exits.
    Any per-run failure is reported as ``("error", index, traceback)`` and
    kills the process — the pool discards and respawns crashed workers.
    """
    spec: Optional[ShardSpec] = None
    try:
        prebuilt: Optional[_Prebuilt] = None
        run_counts: dict[tuple, int] = {}
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            spec = message[1]
            key = spec.scenario_key()
            run_counts[key] = run_counts.get(key, 0) + 1
            _run_one(conn, spec, prebuilt)
            prebuilt = None
            if run_counts[key] >= PREBUILD_AFTER_RUNS:
                start = time.perf_counter()
                scenario, obs = _build_scenario(spec)
                prebuilt = _Prebuilt(key, scenario, obs,
                                     time.perf_counter() - start)
    except EOFError:
        # Coordinator went away without a stop message (its process is
        # exiting); nothing left to serve.
        return
    except BaseException:
        try:
            index = spec.index if spec is not None else -1
            machines = ", ".join(spec.machines) if spec is not None else "?"
            conn.send(("error", index,
                       f"shard {index} (machines {machines}):\n"
                       f"{traceback.format_exc()}"))
        except Exception:
            pass
        raise
    finally:
        conn.close()


def _run_one(conn, spec: ShardSpec, prebuilt: Optional[_Prebuilt]) -> None:
    from repro.obs import set_default_observability
    from repro.obs.metrics import export_state

    timers = StageTimers()
    key = spec.scenario_key()
    if prebuilt is not None and prebuilt.key == key:
        scenario, obs = prebuilt.scenario, prebuilt.obs
        set_default_observability(obs)
        timers.add("worker_prebuild", prebuilt.build_seconds, calls=1)
    else:
        with timers.stage("worker_build"):
            scenario, obs = _build_scenario(spec)
    with timers.stage("worker_restrict"):
        sim = scenario.simulation
        pipeline = scenario.pipeline
        pipeline.restrict_to_shard(spec.machines)
        shard = tuple(sorted(spec.machines))
        agents = pipeline.agents
        plane = pipeline.faults
        # Telemetry plane: the coordinator owns the fleet TSDB, so the
        # worker ships a registry snapshot at every barrier instead of
        # scraping locally.  sim_ticks is excluded everywhere a worker
        # exports state — the coordinator accounts for it exactly once.
        telemetry = pipeline.obs.timeseries is not None
        registry = pipeline.obs.metrics
        arrivals: list = []
        if plane is not None:
            arrivals = plane.capture_arrivals()
        barriers = set(barrier_ticks(sim.config.sampler, spec.seconds))
    conn.send(("ready", spec.index))
    if sim._c_ticks is not None and spec.seconds:
        sim._c_ticks.inc(spec.seconds)
    compute = 0.0
    waiting = 0.0
    mark = time.perf_counter()
    for _ in range(spec.seconds):
        t = sim.now
        sim._tick_machines(t)
        closed = sim._tick_samplers(t)
        if t in barriers:
            if plane is not None:
                # The machine-side upward path: hand each closed window to
                # the retrying upload client (the single-process sink does
                # this per machine before anything else at this tick).
                for name, samples in closed:
                    plane.upload(t, name, samples)
            conn.send(("window", t,
                       [(name, samples.columns) for name, samples in closed],
                       arrivals))
            arrivals.clear()
            now = time.perf_counter()
            compute += now - mark
            reply = conn.recv()
            mark = time.perf_counter()
            waiting += mark - now
            specs = reply[1]
            if specs is not None:
                # The downward path: exactly what the single-process
                # pipeline does when a refresh fires — clean mode updates
                # agents directly, faulted mode ships spec pushes through
                # each machine's faulty spec link.
                if plane is not None:
                    plane.push_specs(t, specs, only=shard)
                else:
                    for name in shard:
                        agents[name].update_specs(specs, now=t)
            # The local path, after the refresh (as in _on_samples).
            for name, samples in closed:
                agents[name].ingest_samples(t, samples,
                                            columns=samples.columns)
            if telemetry:
                # After the ingest loop, so the scrape sees every effect
                # of tick t — the same point in the tick the
                # single-process step hook scrapes at.
                conn.send(("scrape", t,
                           export_state(
                               registry,
                               exclude_counters=COORDINATOR_COUNTERS)))
        elif closed:  # pragma: no cover - schedule invariant
            raise AssertionError(
                f"windows closed off the barrier schedule at t={t}")
        sim._finish_step(t)
    compute += time.perf_counter() - mark
    timers.add("worker_compute", compute, calls=spec.seconds)
    timers.add("worker_barrier_wait", waiting, calls=len(barriers))
    conn.send(("finished", spec.index, {
        "arrivals": arrivals,
        "incidents": _portable_incidents(agents, shard),
        "forensics": [(row.time_seconds, row.machine, i, row)
                      for i, row in enumerate(pipeline.forensics.records)],
        "machine_seconds": pipeline.machine_seconds,
        "crash_counts": {name: agents[name].crash_count for name in shard},
        "fault_tallies": plane.fault_tallies() if plane is not None else {},
        "machine_faults": (plane.machine_fault_tallies()
                           if plane is not None else {}),
        "anomalies": {name: agents[name].anomalies_seen for name in shard},
        "degraded": {name: agents[name].degraded for name in shard},
        "metrics": export_state(registry,
                                exclude_counters=COORDINATOR_COUNTERS),
        "timers": [(name, entry["seconds"], int(entry["calls"]))
                   for name, entry in timers.report().items()],
    }))
    # Wait for the coordinator's release: prebuilding the next replica
    # must not compete with its merge of this run.
    conn.recv()
