"""Sharded multi-core fleet execution: the coordinator side.

The paper's scalability argument — "anomalies are detected locally, which
enables rapid responses and increases scalability" — makes the fleet
embarrassingly parallel per machine: all cross-machine coupling flows
through the central aggregation service.  :func:`run_sharded` exploits
exactly that structure: machines are partitioned across N persistent
worker processes (:mod:`repro.cluster.shardworker`), each rebuilding the
full deterministic scenario and executing only its shard, while this
coordinator keeps the control plane — the canonical
:class:`~repro.core.aggregator.CpiAggregator`, the spec-refresh decision,
the sample log, incident forensics, and merged telemetry.

**The worker pool.**  Workers live in a :class:`ShardPool` that survives
across runs (trials, experiments, bench iterations): process spawn is
paid once per pool lifetime, and workers prebuild the next scenario
replica during idle time once they have seen the same scenario twice —
so warm reruns start with ``coordinator_spawn`` near zero.  A module-wide
:func:`default_pool` serves every ``run_sharded`` call that does not
bring its own; any failure mid-run resets the pool (workers terminated),
so no run ever observes another run's leftovers.

**The wire.**  Everything — run/finished/release handshakes, barrier
payloads, spec verdicts, scrape snapshots — rides one pipe per worker.
Sample data crosses it as pickled columnar
:class:`~repro.core.samplebatch.SampleColumns` batches: a handful of
numpy buffers per window, a few tens of KiB per barrier.

**Barriers.**  Workers free-run through machine physics and fault-plane
pumping, and synchronize only at sampler window-close ticks (the schedule
is fleet-global because every machine shares the duty cycle).  At a
barrier each worker ships its closed windows and captured fabric
arrivals, then blocks for the coordinator's spec-refresh
verdict.  The periodic reschedule point needs no barrier: sharded runs
refuse scenarios with pending or migratable work, making the rescheduler
a no-op by construction
(:func:`~repro.cluster.shardworker.check_shardable`).

**Determinism.**  Each machine owns a private generator spawned from the
root seed *before* shard restriction, and per-machine fault components are
seeded in sorted-name order independent of sharding — so no RNG stream
ever depends on shard placement.  The coordinator replays cross-shard
effects in the exact single-process order: windows in sorted-machine
order, fabric arrivals in (tick, machine) order, the refresh decision
interleaved between window ingests just as ``CpiPipeline._on_samples``
does.  ``tests/test_shards.py`` pins byte-identical output for 1/2/4
shards, clean and faulted.

**Merged telemetry.**  Worker registries fold into the coordinator's at
the end of the run — counters, histogram buckets, and gauge contributions
all sum exactly (every instrument has one writing process), worker
:class:`~repro.perf.profiling.StageTimers` fold into the coordinator's,
and incidents/forensics rows are renumbered into global chronological
order.  When the telemetry plane is on (``pipeline.obs.timeseries``),
workers additionally ship a registry snapshot at every barrier; the
coordinator merges those into its TSDB scrape and evaluates the alert
rules, making the scraped series, alert history, and fleet console
byte-identical at any ``--jobs`` count.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Optional

from repro.cluster.shardworker import (ShardSpec, ShardedRunUnsupported,
                                       barrier_ticks, check_shardable,
                                       run_pool_worker)
from repro.obs.metrics import merge_state
from repro.perf.profiling import StageTimers
from repro.records import CpiSample

__all__ = ["ShardCrashed", "ShardedRunUnsupported", "ShardedRunResult",
           "ShardPool", "default_pool", "plan_shards", "run_sharded"]


class ShardCrashed(RuntimeError):
    """A shard worker died (or broke protocol) mid-run.

    Carries the shard's index and machine names so the operator knows
    which slice of the fleet went dark instead of staring at a hang.
    """

    def __init__(self, index: int, machines: Iterable[str], detail: str = ""):
        self.shard_index = index
        self.machines = tuple(machines)
        message = (f"shard worker {index} "
                   f"(machines: {', '.join(self.machines)}) died mid-run")
        if detail:
            message += f": {detail}"
        super().__init__(message)


def plan_shards(names: Iterable[str], jobs: int) -> tuple[tuple[str, ...], ...]:
    """Partition machine names round-robin across ``jobs`` shards.

    Names are dealt from sorted order so the plan is deterministic, and
    round-robin keeps heterogeneous fleets (mixed platforms cycle through
    the name sequence) balanced.  ``jobs`` is clamped to the machine
    count — no shard is ever empty.
    """
    ordered = sorted(names)
    if not ordered:
        raise ValueError("cannot shard zero machines")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, len(ordered))
    return tuple(tuple(ordered[i::jobs]) for i in range(jobs))


@dataclass
class _PoolWorker:
    """Coordinator-side handle for one persistent shard worker process.

    ``index`` and ``machines`` describe the worker's *current run
    assignment* (set at lease time); ``slot`` is its stable position in
    the pool.
    """

    slot: int
    process: Any
    conn: Any
    index: int = -1
    machines: tuple[str, ...] = ()


class ShardPool:
    """A persistent fleet of shard worker processes.

    Workers are generic — any worker can run any :class:`ShardSpec` — so
    the pool grows to the largest ``jobs`` it has served and reuses those
    processes for every subsequent run (not thread-safe: one run at a
    time).  :meth:`reset` is the failure path: terminate everything,
    start from scratch on the next lease.
    """

    def __init__(self, mp_context=None):
        self._ctx = mp_context or mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._workers: list[_PoolWorker] = []
        #: Processes ever started — bench asserts warm reruns add zero.
        self.spawned_total = 0

    def lease(self, count: int) -> list[_PoolWorker]:
        """Hand out ``count`` live workers, replacing dead ones as needed."""
        for i, worker in enumerate(self._workers):
            if not worker.process.is_alive():
                self._dispose(worker, terminate=True)
                self._workers[i] = self._spawn(worker.slot)
        while len(self._workers) < count:
            self._workers.append(self._spawn(len(self._workers)))
        return self._workers[:count]

    def _spawn(self, slot: int) -> _PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=run_pool_worker, args=(child_conn,),
            name=f"repro-shard-{slot}", daemon=True)
        process.start()
        child_conn.close()
        self.spawned_total += 1
        return _PoolWorker(slot=slot, process=process, conn=parent_conn)

    def _dispose(self, worker: _PoolWorker, terminate: bool = False) -> None:
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if terminate and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5)

    def reset(self) -> None:
        """Failure path: kill every worker.

        Called whenever a run leaves the pool in an unknown protocol
        state (worker crash, coordinator exception, KeyboardInterrupt);
        the next :meth:`lease` starts fresh.
        """
        workers, self._workers = self._workers, []
        for worker in workers:
            self._dispose(worker, terminate=True)

    def shutdown(self) -> None:
        """Graceful exit: ask every worker to stop, then join it."""
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=5)
            self._dispose(worker, terminate=True)

    @property
    def size(self) -> int:
        return len(self._workers)


_DEFAULT_POOL: Optional[ShardPool] = None


def default_pool() -> ShardPool:
    """The process-wide pool behind every plain :func:`run_sharded` call."""
    global _DEFAULT_POOL
    if _DEFAULT_POOL is None:
        _DEFAULT_POOL = ShardPool()
        atexit.register(_DEFAULT_POOL.shutdown)
    return _DEFAULT_POOL


def _recv(worker: _PoolWorker, timeout: Optional[float] = None):
    """Receive one control message, surfacing worker death over hanging."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            if worker.conn.poll(0.05):
                message = worker.conn.recv()
                if message[0] == "error":
                    raise ShardCrashed(worker.index, worker.machines,
                                       f"worker error\n{message[2]}")
                return message
        except (EOFError, OSError):
            raise ShardCrashed(worker.index, worker.machines,
                               "connection closed")
        if not worker.process.is_alive() and not worker.conn.poll(0):
            raise ShardCrashed(worker.index, worker.machines,
                               f"exit code {worker.process.exitcode}")
        if deadline is not None and time.monotonic() > deadline:
            raise ShardCrashed(worker.index, worker.machines,
                               f"no message within {timeout}s")


def _send(worker: _PoolWorker, message) -> None:
    try:
        worker.conn.send(message)
    except (BrokenPipeError, OSError):
        raise ShardCrashed(worker.index, worker.machines,
                           "connection closed on send")


@dataclass
class ShardedRunResult:
    """Everything a sharded run produced, merged back into one view.

    ``scenario`` is the coordinator's replica: its pipeline holds the
    canonical aggregator (published specs), the merged metrics registry,
    and the forensics store; its simulation never ran.
    """

    scenario: Any
    jobs: int
    seconds: int
    shards: tuple[tuple[str, ...], ...]
    total_samples: int = 0
    sample_log: list[CpiSample] = field(default_factory=list)
    incidents: list = field(default_factory=list)
    machine_seconds: int = 0
    crash_counts: dict[str, int] = field(default_factory=dict)
    fault_tallies: dict[str, int] = field(default_factory=dict)
    machine_faults: dict[str, dict[str, int]] = field(default_factory=dict)
    machine_anomalies: dict[str, int] = field(default_factory=dict)
    machine_degraded: dict[str, bool] = field(default_factory=dict)
    timers: StageTimers = field(default_factory=StageTimers)

    @property
    def pipeline(self):
        return self.scenario.pipeline

    @property
    def simulation(self):
        return self.scenario.simulation

    @property
    def obs(self):
        return self.scenario.pipeline.obs

    @property
    def total_faults_injected(self) -> int:
        return sum(self.fault_tallies.values())

    def all_incidents(self) -> list:
        """Merged incidents in global chronological order (ids renumbered)."""
        return list(self.incidents)

    def fleet_console(self):
        """The per-machine health scoreboard, from worker-shipped facts.

        Byte-identical to ``CpiPipeline.fleet_console()`` on a
        single-process run of the same scenario: every input (anomaly
        counts, caps gauges, degraded flags, crash counts, fault tallies,
        alert history, scrape count) merges deterministically.
        """
        from repro.obs.console import build_console

        pipeline = self.pipeline
        rows = {
            name: {
                "anomalies": self.machine_anomalies.get(name, 0),
                "caps_active": int(pipeline.obs.metrics.value(
                    "caps_active", machine=name) or 0),
                "degraded": self.machine_degraded.get(name, False),
                "crashes": self.crash_counts.get(name, 0),
                "faults": self.machine_faults.get(name, {}),
            }
            for name in pipeline.agents
        }
        engine = pipeline.obs.alerts
        tsdb = pipeline.obs.timeseries
        return build_console(
            rows, seconds=self.seconds,
            alerts_fired=engine.fired_counts() if engine is not None else {},
            alerts_active=engine.active() if engine is not None else [],
            scrapes=tsdb.scrapes if tsdb is not None else 0)


def run_sharded(
    builder: Callable[..., Any],
    kwargs: Optional[dict] = None,
    *,
    seconds: int,
    jobs: int,
    log_samples: bool = False,
    timers: Optional[StageTimers] = None,
    barrier_timeout: Optional[float] = 120.0,
    mp_context=None,
    pool: Optional[ShardPool] = None,
) -> ShardedRunResult:
    """Run ``builder(**kwargs)`` for ``seconds`` ticks across ``jobs`` workers.

    ``builder`` must be a module-level callable (workers import it by
    reference) returning a Scenario-like object; it is called once here
    for the coordinator replica and once per worker (amortised by the
    pool's prebuild on repeat runs).  Workers come from ``pool`` if
    given, else the process-wide :func:`default_pool` — unless
    ``mp_context`` is passed, which gets a throwaway pool on that context
    (contexts can't be mixed within a pool).  Raises
    :class:`ShardedRunUnsupported` for scenarios the sharded engine cannot
    replay and :class:`ShardCrashed` if any worker dies mid-run; either
    way the pool is reset, so the failure cannot leak into later runs.
    ``barrier_timeout`` bounds how long the coordinator waits at any
    barrier (``None`` waits forever).
    """
    kwargs = dict(kwargs or {})
    if seconds < 0:
        raise ValueError(f"seconds must be >= 0, got {seconds}")
    timers = timers if timers is not None else StageTimers()
    with timers.stage("coordinator_build"):
        scenario = builder(**kwargs)
        check_shardable(scenario)
        sim = scenario.simulation
        pipeline = scenario.pipeline
        shards = plan_shards(sim.machines, jobs)
        aggregator = pipeline.aggregator
        faulted = pipeline.faults is not None
        telemetry = pipeline.obs.timeseries is not None
        #: The coordinator's durable host is canonical: it is pumped
        #: tick-by-tick between barriers (crash schedule, snapshots,
        #: restores) with arrivals interleaved at their delivery ticks,
        #: reproducing the single-process order exactly.  Workers demoted
        #: their own hosts to schedule-tracking replicas.
        host = pipeline.host
        # Account for the clock exactly once, coordinator-side, the same
        # way ClusterSimulation.run batches it; workers exclude sim_ticks
        # from every state they ship.
        if seconds and sim._c_ticks is not None:
            sim._c_ticks.inc(seconds)
    result = ShardedRunResult(scenario=scenario, jobs=len(shards),
                              seconds=seconds, shards=shards, timers=timers)
    ephemeral: Optional[ShardPool] = None
    if pool is None:
        if mp_context is not None:
            pool = ephemeral = ShardPool(mp_context=mp_context)
        else:
            pool = default_pool()
    try:
        with timers.stage("coordinator_spawn"):
            workers = pool.lease(len(shards))
            for worker, (index, machines) in zip(workers, enumerate(shards)):
                worker.index = index
                worker.machines = machines
                _send(worker, ("run",
                               ShardSpec(index=index, builder=builder,
                                         kwargs=kwargs, machines=machines,
                                         seconds=seconds)))
            for worker in workers:
                message = _recv(worker, barrier_timeout)
                if message[0] != "ready":
                    raise ShardCrashed(worker.index, worker.machines,
                                       f"protocol error: expected ready, "
                                       f"got {message[0]!r}")
        for t in barrier_ticks(sim.config.sampler, seconds):
            windows: list = []
            arrivals: list = []
            with timers.stage("coordinator_wait"):
                for worker in workers:
                    message = _recv(worker, barrier_timeout)
                    if message[0] != "window" or message[1] != t:
                        raise ShardCrashed(
                            worker.index, worker.machines,
                            f"protocol error: expected window@{t}, "
                            f"got {message[:2]}")
                    windows.extend(message[2])
                    arrivals.extend(message[3])
            with timers.stage("coordinator_ingest"):
                sim.now = t  # replica events/clock track the run
                refreshed = _replay_barrier(result, aggregator, t, windows,
                                            arrivals, faulted, log_samples,
                                            host=host)
            for worker in workers:
                _send(worker, ("specs", refreshed))
            if telemetry:
                states = []
                with timers.stage("coordinator_scrape"):
                    for worker in workers:
                        message = _recv(worker, barrier_timeout)
                        if message[0] != "scrape" or message[1] != t:
                            raise ShardCrashed(
                                worker.index, worker.machines,
                                f"protocol error: expected scrape@{t}, "
                                f"got {message[:2]}")
                        states.append(message[2])
                    pipeline.scrape_shards(t, states)
        summaries = []
        with timers.stage("coordinator_wait"):
            for worker in workers:
                message = _recv(worker, barrier_timeout)
                if message[0] != "finished":
                    raise ShardCrashed(worker.index, worker.machines,
                                       f"protocol error: expected finished, "
                                       f"got {message[0]!r}")
                summaries.append(message[2])
        with timers.stage("coordinator_merge"):
            sim.now = seconds
            _merge_summaries(result, aggregator, summaries, host=host)
        # Release last: workers loop back for the next lease (and may
        # prebuild the next replica) only once the merge is done.
        for worker in workers:
            _send(worker, ("release",))
    except BaseException:
        # The pool's protocol state is unknowable mid-run: scrap it.
        # Terminates workers (ShardCrashed, KeyboardInterrupt, and
        # coordinator bugs all land here).
        pool.reset()
        raise
    finally:
        if ephemeral is not None:
            ephemeral.shutdown()
    return result


def _pump_host_through(host, through: int, arrivals: list) -> None:
    """Advance the durable host to ``through``, one tick at a time.

    ``arrivals`` must already be (tick, machine)-sorted.  Each tick pumps
    the host first (restore, crash draw, snapshot — the single-process
    ``CpiPipeline.begin_tick`` order), then applies that tick's fabric
    arrivals, so a crash lands between exactly the same ingests as it
    would have in one process.
    """
    index = 0
    for tick in range(host.pumped_through + 1, through + 1):
        host.pump(tick)
        while index < len(arrivals) and arrivals[index][0] <= tick:
            arrived_at, _machine, columns = arrivals[index]
            host.ingest_columns(arrived_at, columns)
            index += 1


def _replay_barrier(result: ShardedRunResult, aggregator, t: int,
                    windows: list, arrivals: list, faulted: bool,
                    log_samples: bool, host=None):
    """Apply one barrier's shipped state in single-process order.

    Fabric arrivals first (the single-process pump phase precedes the
    sampler phase), in (arrival tick, machine) order; then each closed
    window in sorted-machine order — ingest (clean mode only; faulted
    windows travel via the upload fabric), then the refresh check, exactly
    the per-machine interleave of ``CpiPipeline._on_samples``.  With a
    durable ``host``, every mutation routes through it (WAL + kill
    schedule) with the host clock caught up tick-by-tick first.  Returns
    the refreshed spec map, or ``None``.
    """
    arrivals.sort(key=lambda entry: (entry[0], entry[1]))
    if host is not None:
        _pump_host_through(host, t, arrivals)
    else:
        for _arrived_at, _machine, columns in arrivals:
            aggregator.ingest_batch(columns)
    windows.sort(key=lambda entry: entry[0])
    refreshed = None
    for _machine, columns in windows:
        result.total_samples += len(columns)
        if log_samples:
            result.sample_log.extend(columns.to_samples())
        if not faulted:
            if host is not None:
                host.ingest_columns(t, columns)
            else:
                aggregator.ingest_batch(columns)
        published = (host.maybe_recompute(t) if host is not None
                     else aggregator.maybe_recompute(t))
        if published is not None:
            refreshed = published
    return refreshed


def _merge_summaries(result: ShardedRunResult, aggregator,
                     summaries: list[dict], host=None) -> None:
    """Fold worker end-of-run summaries into the coordinator view."""
    pipeline = result.pipeline
    # Fabric arrivals delivered after the last barrier.
    leftovers = [entry for summary in summaries
                 for entry in summary["arrivals"]]
    leftovers.sort(key=lambda entry: (entry[0], entry[1]))
    if host is not None:
        # Run the host's clock out to the end of the run: kills after the
        # last barrier still happen, exactly as single-process.
        _pump_host_through(host, result.seconds - 1, leftovers)
    else:
        for _arrived_at, _machine, columns in leftovers:
            aggregator.ingest_batch(columns)
    # Incidents and forensics rows, renumbered into global creation order
    # (sorted-machine order within a tick matches the single-process
    # sampler dispatch; at most one incident per machine-tick).
    incident_entries = [entry for summary in summaries
                        for entry in summary["incidents"]]
    incident_entries.sort(key=lambda entry: entry[:3])
    result.incidents = [
        replace(incident, incident_id=new_id)
        for new_id, (_t, _machine, _seq, incident)
        in enumerate(incident_entries, start=1)]
    forensic_entries = [entry for summary in summaries
                        for entry in summary["forensics"]]
    forensic_entries.sort(key=lambda entry: entry[:3])
    for new_id, (_t, _machine, _seq, row) in enumerate(forensic_entries,
                                                       start=1):
        pipeline.forensics.add_record(replace(row, incident_id=new_id))
    # Worker registries fold in whole: counters and histogram buckets sum
    # exactly; gauges sum because each one has a single writing process
    # (per-machine gauges belong to the owning worker, inc/dec gauges are
    # additive by construction).
    registry = pipeline.obs.metrics
    for summary in summaries:
        merge_state(registry, summary["metrics"])
        for name, seconds_spent, calls in summary["timers"]:
            result.timers.add(name, seconds_spent, calls)
        result.machine_seconds += summary["machine_seconds"]
        result.crash_counts.update(summary["crash_counts"])
        result.machine_anomalies.update(summary["anomalies"])
        result.machine_degraded.update(summary["degraded"])
        result.machine_faults.update(summary["machine_faults"])
        for kind, count in summary["fault_tallies"].items():
            result.fault_tallies[kind] = (
                result.fault_tallies.get(kind, 0) + count)
    # Make the replica pipeline report like the single-process one.
    pipeline.total_samples = result.total_samples
    pipeline.sample_log = result.sample_log
    pipeline.machine_seconds = result.machine_seconds
