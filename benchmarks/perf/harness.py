"""The in-process measurement protocol for one workload.

One call of :func:`measure` is one benchmark run:

1. one short warm-up (caches fill, numpy and the allocator settle),
2. ``gc.collect()`` then :data:`REPEATS` timed repeats with tracing off —
   each builds a fresh scenario from the seed (timed as set-up), simulates
   it minute by simulated minute (each minute timed) and only then collects
   checks and the ``sim_digest``,
3. with ``trace=True``: :data:`ROUNDS_TRACED` rounds instead, each an
   untraced repeat followed by one under the layer tracer, so both sides of
   the overhead figure see the same host.

``--seconds`` sets how long a repeat is (simulated length scales with it;
:data:`NOMINAL_SECONDS` gives each workload's ``minutes``), never how many
repeats there are: the same arguments always mean the same work.

Simulated metrics must be identical across every repeat of a seed, traced or
not; that is itself a correctness check.

**How the times are made steady.**  The sandbox this was written in is a
shared host: identical runs differ by 20-35% in wall time, now and then by
10x, from bursts lasting seconds and phases lasting minutes (CPU time
inflates with wall time, so it is clock speed or a sibling, not
descheduling).  The noise is one-sided — contention only ever adds time —
so both estimators below look for the host left alone:

* *Bursts.*  Every repeat simulates the same minutes, so simulated minute
  ``i`` is timed as its **fastest execution across the repeats**, and a
  repeat's simulation time is the sum of those.  A burst has to hit the
  same minute in every repeat to show.
* *Phases.*  A fixed reference kernel — CPython bytecode plus small-array
  ufuncs, the workloads' own instruction mix, independent of ``repro`` —
  runs in ~5 ms slices before every simulated minute, outside the timed
  sections.  The run's **speed factor** is the lower quartile of the slice
  times over the nominal slice time, and every reported time is measured
  host seconds divided by it: seconds on a box where the kernel runs at
  nominal speed.

Raw per-repeat seconds with median, quartiles and ``n``, every minute of
every repeat, every slice and the factor are kept in the results file
beside the reported values.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Optional

import numpy as np

from tracer import MANUAL_SPANS, SPAN_TARGETS, Tracer
from workloads import WORKLOADS, Outcome, Workload

__all__ = ["END_TO_END", "PER_LAYER_EXTRA", "Calibrator", "per_layer_names",
           "measure", "hygiene"]

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "task_ticks_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics besides ``<span>.self_s`` / ``<span>.calls``.
PER_LAYER_EXTRA: dict[str, str] = {
    # Counts at the layer boundaries (simulated: exact for a seed).
    "core.agent.anomalies": "count",
    "core.identify.rank_calls": "count",
    "core.identify.useful_frac": "frac",
    "core.throttle.caps_applied": "count",
    "core.aggregator.samples_delivered_frac": "frac",
    "core.specstore.wal_replayed": "count",
    "core.specstore.snapshots": "count",
    "core.specstore.restarts_recovered_frac": "frac",
    "faults.injected": "count",
    "faults.observed": "count",
    "cluster.fused.fallback_ticks": "count",
    "cluster.fused.us_per_task_tick": "us",
    # Detection quality against ground truth (simulated: exact for a seed).
    "quality.ident_precision": "frac",
    "quality.ident_recall": "frac",
    "quality.detect_latency_sim_s_p50": "s",
    "quality.tp_rate": "frac",
    "experiments.trials.trials_per_s": "1/s",
    # Host time per simulated minute over the untraced repeats.
    "sim.minute_ms_p50": "ms",
    "sim.minute_ms_p90": "ms",
    "trace.overhead_frac": "frac",
    # Measured over nominal reference-kernel time across the run.
    "host.speed_factor": "x",
    # Shard probe (workloads with shard_probe, nproc >= 2; zero elsewhere).
    "cluster.shards.wall_s_1w": "s",
    "cluster.shards.wall_s_2w": "s",
    "cluster.shards.speedup_2w": "x",
    "cluster.shards.coordinator_build_s": "s",
    "cluster.shards.coordinator_wait_s": "s",
    "cluster.shards.coordinator_ingest_s": "s",
    "cluster.shards.coordinator_spawn_s": "s",
}

#: Timed repeats of an untraced run.  Fixed, not filled to a time budget:
#: the per-minute minimum below would otherwise favour whichever commit is
#: fast enough to fit one more repeat.
REPEATS = 5
#: (untraced, traced) pairs of repeats in a traced run.
ROUNDS_TRACED = 3
#: ``--seconds`` at which a workload's ``minutes`` is one repeat's length.
NOMINAL_SECONDS = 8
#: Keep building until set-up samples cover this much host time: a 10 ms
#: build needs many samples for a steady median, a 0.5 s one does not.
SETUP_SAMPLE_SECONDS = 1.0
SETUP_SAMPLE_CAP = 60


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    names: dict[str, str] = {}
    for span in list(SPAN_TARGETS) + list(MANUAL_SPANS):
        names[f"{span}.self_s"] = "s"
        names[f"{span}.calls"] = "count"
    names.update(PER_LAYER_EXTRA)
    return names


def hygiene(cleared_env: list[str], thread_pins: dict[str, str]) -> dict:
    """What the run was measured on, for the results file."""
    root = Path(__file__).resolve().parents[2]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "loadavg_start": list(os.getloadavg()),
        "thread_env": thread_pins,
        "cleared_env": cleared_env,
    }


def _quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


class Calibrator:
    """Times slices of a fixed reference kernel to track host speed."""

    #: Host seconds one slice takes at reference speed (this box, unloaded).
    NOMINAL_SLICE_S = 0.0045
    ITERATIONS = 2500

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._a = np.arange(640, dtype=np.float64)
        self._b = np.empty_like(self._a)

    def slice(self) -> None:
        """Run the kernel once: interpreter work plus small-array ufuncs."""
        a, b = self._a, self._b
        start = time.perf_counter()
        acc = 0.0
        seen: dict[int, float] = {}
        for i in range(self.ITERATIONS):
            np.multiply(a, 1.0001, b)
            np.add(b, 0.5, b)
            acc += float(b[3])
            seen[i & 63] = acc
            [x for x in range(20)]
        self.slices.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Host slowness over every slice so far (1.0 = reference speed).

        The lower quartile, not the median: contention only ever adds
        time, so the fast slices say how fast the host was when it was left
        alone — the conditions the per-minute minima below select.  (Of
        fifteen estimator pairs re-scored over eighteen ten-run batches
        this one spread least; the first decile finds clean 5 ms slices
        even in weather where no whole simulated minute escapes.)
        """
        return (statistics.quantiles(self.slices, n=4)[0]
                / self.NOMINAL_SLICE_S)


class _Repeat:
    """Raw host seconds and outcome of one build -> simulate -> collect."""

    def __init__(self, workload: Workload, seed: int, minutes: int,
                 cal: Calibrator, tracer: Optional[Tracer] = None) -> None:
        gc.collect()
        cal.slice()
        start = time.perf_counter()
        if tracer is None:
            ctx = workload.build(seed, minutes)
        else:
            ctx = tracer.call("experiments.scenarios.build",
                              workload.build, seed, minutes)
        self.setup_s = time.perf_counter() - start
        #: Host seconds of each simulated minute, calibration excluded.
        self.minute_s: list[float] = []

        def on_minute(minute: int, of: int) -> None:
            cal.slice()
            if tracer is not None and minute == of - 1:
                tracer.start_recording()

        workload.simulate(ctx, self.minute_s, on_minute)
        self.sim_s = sum(self.minute_s)
        self.outcome: Outcome = workload.collect(ctx)


def _setup_samples(workload: Workload, seed: int, minutes: int,
                   cal: Calibrator, have: list[float], at_least: int,
                   top_up: bool) -> list[float]:
    """``have`` plus extra raw set-up samples: ``at_least`` in all, and with
    ``top_up`` enough to cover :data:`SETUP_SAMPLE_SECONDS` of host time."""
    samples = list(have)
    while len(samples) < at_least or (
            top_up and sum(samples) < SETUP_SAMPLE_SECONDS
            and len(samples) < SETUP_SAMPLE_CAP):
        gc.collect()
        cal.slice()
        samples.append(workload.setup_sample(seed, minutes))
    return samples


def _undisturbed_sim_s(repeats: list[_Repeat]) -> float:
    """Host seconds of one repeat's simulation with the bursts taken out:
    each simulated minute at its fastest across the repeats, summed."""
    return sum(min(column) for column in zip(*(r.minute_s for r in repeats)))


def _shard_probe() -> dict[str, float]:
    """Best-of-3 warm sharded runs at 1 and 2 workers (public API only)."""
    from repro.cluster.shards import ShardPool, run_sharded
    from repro.experiments.scenarios import scale_scenario
    from repro.perf.profiling import StageTimers

    kwargs = dict(num_machines=8, seed=11, tasks_per_job=8)
    pool = ShardPool()
    best: dict[int, tuple[float, StageTimers]] = {}
    try:
        for jobs in (1, 2):
            for attempt in range(4):  # first is the cold spawn + prebuild
                timers = StageTimers()
                start = time.perf_counter()
                run_sharded(scale_scenario, kwargs, seconds=240, jobs=jobs,
                            timers=timers, pool=pool)
                wall = time.perf_counter() - start
                if attempt and (jobs not in best or wall < best[jobs][0]):
                    best[jobs] = (wall, timers)
    finally:
        pool.shutdown()
    wall_1w, wall_2w = best[1][0], best[2][0]
    timers = best[2][1]
    return {
        "cluster.shards.wall_s_1w": wall_1w,
        "cluster.shards.wall_s_2w": wall_2w,
        "cluster.shards.speedup_2w": wall_1w / wall_2w,
        "cluster.shards.coordinator_build_s":
            timers.seconds("coordinator_build"),
        "cluster.shards.coordinator_wait_s":
            timers.seconds("coordinator_wait"),
        "cluster.shards.coordinator_ingest_s":
            timers.seconds("coordinator_ingest"),
        "cluster.shards.coordinator_spawn_s":
            timers.seconds("coordinator_spawn"),
    }


def _layer_metrics(workload: Workload, tracer: Tracer,
                   traced: list[_Repeat], untraced: list[_Repeat],
                   speed: float) -> dict[str, float]:
    """The per-layer values of one traced run, by BENCHMARK.json name.

    Span times and calls are per repeat: the tracer's totals over the
    traced repeats, divided by how many there were.
    """
    n = len(traced)
    values = dict.fromkeys(per_layer_names(), 0.0)
    for span in tracer.names:
        values[f"{span}.self_s"] = tracer.self_seconds(span) / n / speed
        values[f"{span}.calls"] = tracer.calls(span) / n
    outcome = traced[0].outcome
    sim = outcome.sim
    traced_sim_s = _undisturbed_sim_s(traced) / speed
    values.update({
        "core.agent.anomalies": sim.get("anomalies", 0),
        "core.identify.rank_calls":
            tracer.calls("core.identify.rank_cotenant_suspects") / n,
        "core.identify.useful_frac": sim.get("useful_frac", 0.0),
        "core.throttle.caps_applied": tracer.calls("core.throttle.cap") / n,
        "core.aggregator.samples_delivered_frac":
            sim.get("samples_delivered_frac", 0.0),
        "core.specstore.wal_replayed": sim.get("wal_replayed", 0),
        "core.specstore.snapshots": sim.get("snapshots", 0),
        "core.specstore.restarts_recovered_frac":
            sim.get("restarts_recovered_frac", 0.0),
        "faults.injected": sim.get("faults_injected", 0),
        "faults.observed": sim.get("faults_observed", 0),
        # Per-machine ticks of a run that also stepped a fused fleet.
        "cluster.fused.fallback_ticks":
            tracer.calls("cluster.machine.tick") / n
            if tracer.calls("cluster.fused.step") else 0,
        "cluster.fused.us_per_task_tick":
            1e6 * tracer.total_seconds("cluster.fused.step") / n / speed
            / max(1, outcome.task_ticks),
        "quality.ident_precision": sim["ident_precision"],
        "quality.ident_recall": sim["ident_recall"],
        "quality.detect_latency_sim_s_p50":
            sim.get("detect_latency_sim_s_p50", 0.0),
        "quality.tp_rate": sim.get("tp_rate", 0.0),
        "experiments.trials.trials_per_s":
            sim["trials"] / traced_sim_s if "trials" in sim else 0.0,
        "host.speed_factor": speed,
    })
    minute_ms = sorted(1e3 * s / speed / workload.chunk_minutes
                       for r in untraced for s in r.minute_s)
    values["sim.minute_ms_p50"] = statistics.median(minute_ms)
    values["sim.minute_ms_p90"] = minute_ms[round(0.9 * (len(minute_ms) - 1))]
    values["trace.overhead_frac"] = (
        _undisturbed_sim_s(traced) / _undisturbed_sim_s(untraced) - 1.0)
    return values


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False,
            trace_path: Optional[Path] = None) -> dict[str, Any]:
    """Run workload ``name`` once under the protocol; returns the record.

    A traced run writes its last simulated minute of spans to ``trace_path``
    as Chrome trace-event JSON.
    """
    workload = WORKLOADS[name]
    minutes = round(workload.minutes * seconds / NOMINAL_SECONDS)
    if smoke:
        minutes //= 10
    minutes = max(workload.smoke_minutes, minutes)
    rounds = 1 if smoke else (ROUNDS_TRACED if trace else REPEATS)
    cal = Calibrator()
    tracer = Tracer() if trace else None

    if not smoke:  # a smoke run checks outputs; its timings are not used
        _Repeat(workload, seed, max(workload.smoke_minutes, minutes // 5), cal)
        del cal.slices[:]

    # A round is one untraced repeat and, when tracing, one traced repeat
    # right after it: alternating keeps both sides in the same host weather.
    repeats: list[_Repeat] = []
    traced: list[_Repeat] = []
    for _ in range(rounds):
        repeats.append(_Repeat(workload, seed, minutes, cal))
        if tracer is not None:
            with tracer.installed():
                traced.append(_Repeat(workload, seed, minutes, cal, tracer))

    setup = _setup_samples(
        workload, seed, minutes, cal,
        [r.setup_s for r in repeats] if workload.setup_in_build else [],
        at_least=len(repeats), top_up=not smoke)

    every = repeats + traced
    first = every[0].outcome
    checks = list(first.checks)
    stable = all(r.outcome.digest == first.digest
                 and r.outcome.sim == first.sim for r in every)
    checks.append(("sim_digest_stable", stable,
                   f"{len(repeats)} untraced + {len(traced)} traced "
                   f"repeats: {sorted({r.outcome.digest[:12] for r in every})}"))
    for r in every[1:]:
        checks.extend(c for c in r.outcome.checks if not c[1])

    speed = cal.factor()
    # Lower quartile, not minimum: the sample count varies with build cost.
    setup_s = (statistics.quantiles(setup, n=4)[0] if len(setup) > 1
               else setup[0]) / speed
    sim_s = _undisturbed_sim_s(repeats) / speed
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "sim_minutes": minutes,
        "sim_digest": first.digest,
        "sim": first.sim,
        "task_ticks": first.task_ticks,
        "checks": [{"name": n, "passed": p, "detail": d}
                   for n, p, d in checks],
        "attempted": len(checks),
        "failed": sum(1 for _, p, _ in checks if not p),
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": setup_s + sim_s,
            "task_ticks_per_s": first.task_ticks / sim_s,
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "speed_factor": speed,
        "calibration": {"nominal_slice_s": Calibrator.NOMINAL_SLICE_S,
                        "slice_s": _quartiles(cal.slices)},
        # Host seconds as measured, per repeat, before any estimator.
        "raw": {
            "setup_s": _quartiles(setup),
            "sim_s": _quartiles([r.sim_s for r in repeats]),
            "wall_s": _quartiles([r.setup_s + r.sim_s for r in repeats]),
            "task_ticks_per_s": _quartiles(
                [r.outcome.task_ticks / r.sim_s for r in repeats]),
            "minute_s": [r.minute_s for r in repeats],
            "slice_s": cal.slices,
        },
    }
    if tracer is not None:
        layers = _layer_metrics(workload, tracer, traced, repeats, speed)
        if workload.shard_probe and not smoke and (os.cpu_count() or 1) >= 2:
            layers.update(_shard_probe())
        record["per_layer"] = layers
        record["spans"] = tracer.summary()
        record["absent_spans"] = tracer.absent
        record["raw"]["traced_sim_s"] = _quartiles([r.sim_s for r in traced])
        if trace_path is not None:
            tracer.write_chrome_trace(trace_path)
    return record
