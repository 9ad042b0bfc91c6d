"""Meta-benchmark: fleet-scale throughput (50 machines, 500 tasks).

The pre-vectorization tick loop made this size impractical (~5x the
reference workload's per-tick work); the cluster-fused vector engine runs
all 500 tasks' physics as one batch per tick, so the per-machine Python
overhead is amortized and throughput should *rise* with density, not fall.

On top of that single-process floor, the shard sweep measures the multi-
core engine (``repro.cluster.shards``): the same workload partitioned
across 1/2/4 worker processes, byte-identical output (pinned by
``tests/test_shards.py``), wall-clock scaling gated only where the runner
actually has the cores.

Results merge into ``BENCH_throughput.json`` next to the reference
benchmark's before/after numbers.
"""

import os
import time

from conftest import run_once

from repro.cluster.shards import run_sharded
from repro.experiments.reporting import ExperimentReport
from repro.experiments.scenarios import scale_scenario
from repro.perf.profiling import StageTimers

SIM_MINUTES = 10
NUM_MACHINES = 50
NUM_TASKS = 500
SHARD_JOBS = (1, 2, 4)


def run_scaled_workload() -> dict:
    """50 machines, 500 tasks, full CPI2 pipeline, 10 simulated minutes."""
    timers = StageTimers()
    with timers.stage("build"):
        scenario = scale_scenario(num_machines=NUM_MACHINES)
    with timers.stage("simulate"):
        scenario.simulation.run_minutes(SIM_MINUTES)
    with timers.stage("analyze"):
        samples = scenario.pipeline.total_samples
    elapsed = timers.seconds("simulate")
    sim_seconds = SIM_MINUTES * 60
    task_ticks = sim_seconds * NUM_TASKS
    return {
        "wall_seconds": elapsed,
        "sim_seconds_per_wall_second": sim_seconds / elapsed,
        "task_ticks_per_wall_second": task_ticks / elapsed,
        "samples": samples,
        "stages": timers.report(),
    }


def test_scale_fleet_throughput(benchmark, report_sink, bench_json_sink):
    stats = run_once(benchmark, run_scaled_workload)

    report = ExperimentReport("meta_scale_fleet",
                              "Fleet-scale simulator throughput")
    report.add("task-ticks / wall second", "-",
               stats["task_ticks_per_wall_second"],
               "50 machines, 500 tasks, pipeline on")
    report.add("simulated seconds / wall second", "-",
               stats["sim_seconds_per_wall_second"])
    report.add("CPI samples produced", "500 x 10", stats["samples"])
    report_sink(report)
    bench_json_sink(
        "scale_fleet",
        {
            "workload": (f"{NUM_MACHINES} machines x {NUM_TASKS} tasks, "
                         f"full CPI2 pipeline, {SIM_MINUTES} sim-minutes"),
            "result": stats,
        },
        summary=(f"scale-fleet: "
                 f"{stats['task_ticks_per_wall_second']:,.0f} task-ticks/s "
                 f"({NUM_MACHINES} machines / {NUM_TASKS} tasks)"))

    assert stats["samples"] == NUM_TASKS * SIM_MINUTES
    # Must clear the same floor as the reference workload: fleet scale is
    # the point of the fused engine.
    assert stats["task_ticks_per_wall_second"] > 30_000


def test_shard_sweep_throughput(report_sink, bench_json_sink):
    """The same fleet at 1/2/4 worker processes, on a persistent pool.

    Each job count runs three times against one :class:`ShardPool` —
    first touch pays process spawn and a replicated build per worker;
    by the third run every worker starts from a prebuilt replica, so the
    ``coordinator_spawn`` stage shows the warm-pool amortization.  The
    recorded throughput is the
    best (warm) run.  Correctness (sample count) is asserted
    unconditionally; the scaling gates only fire where the runner
    actually has the cores — a 1-core container records honest flat
    numbers (with ``cpu_count`` stamped) instead of a vacuous pass.
    """
    from conftest import warn_if_oversubscribed

    from repro.cluster.shards import ShardPool

    seconds = SIM_MINUTES * 60
    cores = os.cpu_count() or 1
    rounds = 3
    sweep: dict[str, dict] = {}
    pool = ShardPool()
    try:
        for jobs in SHARD_JOBS:
            warn_if_oversubscribed(jobs, "shard_sweep")
            walls = []
            spawn_seconds = []
            for _ in range(rounds):
                timers = StageTimers()
                start = time.perf_counter()
                result = run_sharded(scale_scenario,
                                     dict(num_machines=NUM_MACHINES),
                                     seconds=seconds, jobs=jobs,
                                     timers=timers, pool=pool)
                walls.append(time.perf_counter() - start)
                spawn_seconds.append(timers.seconds("coordinator_spawn"))
                assert result.total_samples == NUM_TASKS * SIM_MINUTES
                assert result.jobs == jobs
                stages = {name: entry["seconds"]
                          for name, entry in timers.report().items()
                          if name.startswith("coordinator")}
            wall = min(walls)
            sweep[str(jobs)] = {
                "wall_seconds": wall,
                "wall_seconds_cold": walls[0],
                "task_ticks_per_wall_second": seconds * NUM_TASKS / wall,
                "coordinator_spawn_cold": spawn_seconds[0],
                "coordinator_spawn_warm": spawn_seconds[-1],
                "coordinator_stages": stages,  # last (warmest) round
            }
    finally:
        pool.shutdown()
    base = sweep["1"]["task_ticks_per_wall_second"]
    for jobs in SHARD_JOBS:
        cell = sweep[str(jobs)]
        cell["speedup_vs_1_worker"] = (
            cell["task_ticks_per_wall_second"] / base)

    report = ExperimentReport("meta_shard_sweep",
                              "Sharded fleet execution throughput")
    for jobs in SHARD_JOBS:
        cell = sweep[str(jobs)]
        report.add(f"{jobs} worker(s): task-ticks / wall second", "-",
                   cell["task_ticks_per_wall_second"],
                   f"{cell['speedup_vs_1_worker']:.2f}x vs 1 worker, "
                   f"warm spawn {cell['coordinator_spawn_warm']:.3f}s")
    report_sink(report)
    bench_json_sink(
        "shard_sweep",
        {
            "workload": (f"{NUM_MACHINES} machines x {NUM_TASKS} tasks, "
                         f"full CPI2 pipeline, {SIM_MINUTES} sim-minutes, "
                         f"run_sharded at jobs in {list(SHARD_JOBS)}, "
                         f"best of {rounds} on one persistent pool"),
            "cpu_count": cores,
            "jobs": sweep,
        },
        summary=("shard-sweep: " + ", ".join(
            f"{jobs}w {sweep[str(jobs)]['task_ticks_per_wall_second']:,.0f}"
            for jobs in SHARD_JOBS)
            + f" task-ticks/s ({cores} cores)"),
        parallel=True)

    # Scaling gates, only where the hardware can express them.  (On an
    # undersized box even the warm-spawn collapse can't show: prebuilds
    # have no spare core to overlap into, so reruns still wait on them.)
    warm4 = sweep["4"]
    if cores >= 2:
        assert sweep["2"]["speedup_vs_1_worker"] > 1.4, sweep["2"]
    else:
        print(f"SKIP shard scaling gate (2w > 1.4x): "
              f"only {cores} core(s) on this runner")
    if cores >= 4:
        assert warm4["speedup_vs_1_worker"] >= 2.5, warm4
        # The pool's point: warm reruns never pay process spawn again,
        # and prebuilt replicas collapse the ready-wait too.
        assert (warm4["coordinator_spawn_warm"]
                < max(0.5 * warm4["coordinator_spawn_cold"], 0.05)), warm4
    else:
        print(f"SKIP shard scaling gate (4w >= 2.5x, warm spawn ~0): "
              f"only {cores} core(s) on this runner")
