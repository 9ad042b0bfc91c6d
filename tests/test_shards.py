"""Golden-parity tests: sharded multi-core execution vs single-process.

``run_sharded`` must be *bit-identical* to running the same scenario in
one process — same CPI sample stream, same published specs, same
incidents, same fault and quarantine counters — at any worker count.
These tests pin that contract at 1/2/4 shards, clean and under injected
chaos (including corrupted samples crossing the columnar wire into the
aggregator's quarantine), comparing floats by their hex representation so
"close enough" can never creep in.

The unit tests at the bottom pin the building blocks: deterministic shard
planning, the global barrier schedule, lossless columnar round-trips,
the shardability guards, and crash surfacing (a dead worker must raise
:class:`~repro.cluster.shards.ShardCrashed` naming its machines, never
hang the coordinator).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.cluster.shards import (ShardCrashed, ShardPool,
                                  ShardedRunUnsupported, plan_shards,
                                  run_sharded)
from repro.cluster.shardworker import barrier_ticks, check_shardable
from repro.core.aggregator import CpiAggregator
from repro.core.config import CpiConfig
from repro.core.samplebatch import SampleColumns
from repro.experiments.chaos import ANTAGONIST_JOBS, chaos_scenario
from repro.experiments.scenarios import build_cluster, scale_scenario
from repro.perf.sampler import SamplerConfig
from repro.records import CpiSample
from repro.workloads import make_batch_job_spec

#: Fleet-total counters that must merge exactly (per-worker counters like
#: ``sim_ticks`` intentionally count worker work, not fleet work).
COMPARED_COUNTERS = (
    "samples_ingested",
    "samples_quarantined",
    "aggregator_samples_rejected",
    "transport_faults",
    "agent_crashes",
    "anomalies_detected",
    "caps_applied",
    "analyses_dropped",
)


def _hex(x) -> str:
    return float(x).hex()


def _canon_samples(samples) -> list[tuple]:
    """Byte-faithful canonical form of a CpiSample stream."""
    return [(s.jobname, s.platforminfo, s.timestamp, _hex(s.cpu_usage),
             _hex(s.cpi), s.taskname) for s in samples]


def _canon_incidents(incidents) -> list[tuple]:
    """Canonical incidents, minus the (per-process) incident_id.

    Works for live incidents (scheduler-task targets) and shipped ones
    (name-only stubs) alike — both expose ``.name`` / ``.job.name``.
    """
    return [(
        i.machine, i.time_seconds, i.victim_taskname, i.victim_jobname,
        _hex(i.victim_cpi), _hex(i.cpi_threshold),
        tuple((s.taskname, s.jobname, _hex(s.correlation))
              for s in i.suspects),
        i.decision.action.value,
        None if i.decision.target is None else i.decision.target.name,
        None if i.decision.target is None else i.decision.target.job.name,
        None if i.post_cpi is None else _hex(i.post_cpi),
        i.recovered,
    ) for i in incidents]


def _canon_specs(aggregator) -> list[tuple]:
    """The published spec map, hex-canonical and sorted by key."""
    return sorted(
        (key.jobname, key.platforminfo, spec.num_samples,
         _hex(spec.cpu_usage_mean), _hex(spec.cpi_mean),
         _hex(spec.cpi_stddev))
        for key, spec in aggregator.specs().items())


def _counter_totals(obs) -> dict[str, float]:
    return {name: obs.metrics.total(name) for name in COMPARED_COUNTERS}


def _precision(canon_incidents) -> tuple[int, int, int]:
    """(incidents, identified, correctly identified) from canonical form."""
    identified = [i for i in canon_incidents if i[8] is not None]
    true_identified = [i for i in identified if i[9] in ANTAGONIST_JOBS]
    return len(canon_incidents), len(identified), len(true_identified)


def _single(builder, kwargs, seconds: int, counters: bool) -> dict:
    scenario = builder(**kwargs)
    pipeline = scenario.pipeline
    pipeline.log_samples = True
    scenario.simulation.run(seconds)
    return {
        "samples": _canon_samples(pipeline.sample_log),
        "incidents": _canon_incidents(pipeline.all_incidents()),
        "specs": _canon_specs(pipeline.aggregator),
        "total": pipeline.total_samples,
        "faults": (pipeline.faults.total_faults_injected
                   if pipeline.faults is not None else 0),
        "counters": _counter_totals(pipeline.obs) if counters else None,
    }


def _sharded(builder, kwargs, seconds: int, jobs: int,
             counters: bool) -> dict:
    result = run_sharded(builder, kwargs, seconds=seconds, jobs=jobs,
                         log_samples=True)
    pipeline = result.pipeline
    return {
        "samples": _canon_samples(result.sample_log),
        "incidents": _canon_incidents(result.all_incidents()),
        "specs": _canon_specs(pipeline.aggregator),
        "total": result.total_samples,
        "faults": result.total_faults_injected,
        "counters": _counter_totals(pipeline.obs) if counters else None,
    }


# -- end-to-end golden parity -------------------------------------------------


#: Small enough to run four times in a test, big enough that shard plans
#: at 2 and 4 workers split both jobs and platforms across processes.
SCALE_KWARGS = dict(num_machines=6, seed=11, num_service_jobs=2,
                    num_batch_jobs=2, tasks_per_job=6,
                    config=CpiConfig(spec_refresh_period=600,
                                     min_samples_per_task=5))

#: The chaos experiment's workload: transport faults, crashes, retries.
CHAOS_KWARGS = dict(seed=0, num_machines=4, fault_profile="moderate",
                    fault_seed=1)

#: Parameters chosen (by scan) so corrupted batches actually reach the
#: aggregator and get quarantined — exercising ``ingest_batch``'s reject
#: path across the columnar wire.
QUARANTINE_KWARGS = dict(seed=0, num_machines=3, fault_profile="heavy",
                         fault_seed=2)


def test_sharded_clean_parity():
    """Clean fleet: byte-identical samples/specs at 1, 2, and 4 shards."""
    seconds = 20 * 60
    baseline = _single(scale_scenario, SCALE_KWARGS, seconds, counters=False)
    assert len(baseline["samples"]) > 400      # not vacuously equal
    assert len(baseline["specs"]) > 0          # refresh actually published
    for jobs in (1, 2, 4):
        assert _sharded(scale_scenario, SCALE_KWARGS, seconds, jobs,
                        counters=False) == baseline, f"jobs={jobs}"


def test_sharded_chaos_parity():
    """Moderate chaos: samples, incidents, faults, and counters all match.

    The chaos headline numbers (precision / recall inputs) are derived
    from the incident stream, so their parity is checked here too.
    """
    seconds = 3600
    baseline = _single(chaos_scenario, CHAOS_KWARGS, seconds, counters=True)
    assert baseline["faults"] > 0              # the profile must inject
    assert len(baseline["incidents"]) > 0      # detection must fire
    base_quality = _precision(baseline["incidents"])
    assert base_quality[2] > 0                 # antagonist correctly named
    for jobs in (1, 2, 4):
        sharded = _sharded(chaos_scenario, CHAOS_KWARGS, seconds, jobs,
                           counters=True)
        assert sharded == baseline, f"jobs={jobs}"
        assert _precision(sharded["incidents"]) == base_quality


def test_sharded_quarantine_parity():
    """Heavy chaos: corrupted samples cross the wire and are rejected.

    Pins that ``ingest_batch``'s quarantine path — fed columnar batches
    shipped from worker processes — rejects exactly the samples the
    single-process scalar path does, reason counters included.
    """
    seconds = 3600
    baseline = _single(chaos_scenario, QUARANTINE_KWARGS, seconds,
                       counters=True)
    assert baseline["counters"]["aggregator_samples_rejected"] > 0
    sharded = _sharded(chaos_scenario, QUARANTINE_KWARGS, seconds, jobs=2,
                       counters=True)
    assert sharded == baseline


# -- crash surfacing ----------------------------------------------------------


def _crashing_scenario():
    """A shardable fleet whose machine ``m1`` kills its process at t>=120."""
    scenario = scale_scenario(num_machines=4, seed=11, num_service_jobs=1,
                              num_batch_jobs=1, tasks_per_job=4)

    def hook(t, machine, result):
        if machine.name == "m1" and t >= 120:
            os._exit(3)

    scenario.simulation.add_tick_hook(hook)
    return scenario


def test_worker_death_raises_shard_crashed():
    """A dying worker surfaces as ShardCrashed naming its machines — no hang."""
    pool = ShardPool()
    try:
        with pytest.raises(ShardCrashed) as excinfo:
            run_sharded(_crashing_scenario, seconds=240, jobs=2,
                        barrier_timeout=60.0, pool=pool)
        error = excinfo.value
        assert "m1" in error.machines
        assert "m1" in str(error)
        assert "died mid-run" in str(error)
        # The crash reset the pool (unknown protocol state)...
        assert pool.size == 0
        # ...and the very next lease serves a clean run.
        result = run_sharded(scale_scenario, _POOL_KWARGS,
                             seconds=300, jobs=2, pool=pool)
        assert result.total_samples > 0
    finally:
        pool.shutdown()


# -- pool lifecycle and process hygiene ---------------------------------------


#: Small but real: two shards, a few windows, a spec refresh.
_POOL_KWARGS = dict(num_machines=4, seed=3, num_service_jobs=1,
                    num_batch_jobs=1, tasks_per_job=4,
                    config=CpiConfig(spec_refresh_period=600,
                                     min_samples_per_task=5))


def test_warm_pool_reuses_workers_and_prebuilds():
    """Reruns spawn no processes, and the third run hits a prebuilt replica."""
    pool = ShardPool()
    try:
        results = [run_sharded(scale_scenario, _POOL_KWARGS, seconds=300,
                               jobs=2, pool=pool) for _ in range(3)]
        assert pool.spawned_total == 2          # paid once, not per run
        first, second, third = (r.timers.report() for r in results)
        assert first["worker_build"]["calls"] == 2
        assert "worker_prebuild" not in first
        # Same scenario twice seen -> workers prebuild after run 2's
        # release, so run 3 starts on a warm replica and never builds.
        assert "worker_build" not in third
        assert third["worker_prebuild"]["calls"] == 2
        # Parity is untouched by pool temperature.
        assert [_canon_specs(r.pipeline.aggregator) for r in results[1:]] \
            == [_canon_specs(results[0].pipeline.aggregator)] * 2
    finally:
        pool.shutdown()


def _watched_workers(pool: ShardPool, count: int = 2) -> list:
    """Spawn the pool's workers up front and return their processes."""
    return [worker.process for worker in pool.lease(count)]


def test_no_worker_leak_after_clean_run():
    pool = ShardPool()
    processes = _watched_workers(pool)
    try:
        run_sharded(scale_scenario, _POOL_KWARGS, seconds=300, jobs=2,
                    pool=pool)
    finally:
        pool.shutdown()
    assert not any(process.is_alive() for process in processes)


def test_no_worker_leak_after_worker_crash():
    pool = ShardPool()
    processes = _watched_workers(pool)
    try:
        with pytest.raises(ShardCrashed):
            run_sharded(_crashing_scenario, seconds=240, jobs=2,
                        barrier_timeout=60.0, pool=pool)
        # The reset killed the surviving worker, not just the dead one.
        assert not any(process.is_alive() for process in processes)
    finally:
        pool.shutdown()


def test_no_worker_leak_after_keyboard_interrupt(monkeypatch):
    """Ctrl-C mid-barrier resets the pool and kills every worker."""
    import repro.cluster.shards as shards_module

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    pool = ShardPool()
    processes = _watched_workers(pool)
    try:
        monkeypatch.setattr(shards_module, "_replay_barrier", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_sharded(scale_scenario, _POOL_KWARGS, seconds=300, jobs=2,
                        pool=pool)
        assert pool.size == 0
        assert not any(process.is_alive() for process in processes)
    finally:
        pool.shutdown()


def test_sharded_run_never_starts_the_resource_tracker():
    """A sharded run leaves no helper process to be orphaned at exit.

    ``multiprocessing``'s resource tracker, once started, outlives its
    parent under PID 1.  Shards share nothing that needs tracking, so a
    fresh interpreter must finish a run with the tracker never started.
    """
    code = (
        "import multiprocessing.resource_tracker as rt\n"
        "from repro.cluster.shards import ShardPool, run_sharded\n"
        "from repro.experiments.scenarios import scale_scenario\n"
        "pool = ShardPool()\n"
        "run_sharded(scale_scenario, dict(num_machines=4, seed=3,\n"
        "            num_service_jobs=1, num_batch_jobs=1, tasks_per_job=4),\n"
        "            seconds=300, jobs=2, pool=pool)\n"
        "pool.shutdown()\n"
        "print(rt._resource_tracker._pid)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"


# -- shard planning and the barrier schedule ----------------------------------


def test_plan_shards_round_robin():
    assert plan_shards(["m3", "m0", "m2", "m1"], 2) == (("m0", "m2"),
                                                        ("m1", "m3"))
    assert plan_shards(["m0", "m1", "m2"], 2) == (("m0", "m2"), ("m1",))


def test_plan_shards_clamps_to_machine_count():
    assert plan_shards(["a", "b"], 8) == (("a",), ("b",))


def test_plan_shards_rejects_bad_input():
    with pytest.raises(ValueError):
        plan_shards([], 2)
    with pytest.raises(ValueError):
        plan_shards(["a"], 0)


def test_barrier_ticks_are_window_close_ticks():
    assert barrier_ticks(SamplerConfig(10, 60), 200) == [10, 70, 130, 190]
    assert barrier_ticks(SamplerConfig(10, 60), 10) == []


# -- the columnar wire format -------------------------------------------------


def _mixed_samples() -> list[CpiSample]:
    return [
        CpiSample("job-a", "westmere-2.6", 1_000_000, 0.5, 1.25, "job-a/0"),
        CpiSample("job-a", "westmere-2.6", 1_000_001, 0.75, 1.5, "job-a/1"),
        CpiSample("job-b", "clovertown-2.3", 1_000_002, 1.5, 0.875, "job-b/0"),
        CpiSample("job-a", "westmere-2.6", 1_000_003, 0.1, 3.0, "job-a/0"),
        CpiSample("job-c", "westmere-2.6", 1_000_004, 2.0, 1.125, None),
    ]


def test_sample_columns_round_trip_is_lossless():
    originals = _mixed_samples()
    batch = SampleColumns.from_samples(originals)
    assert len(batch) == len(originals)
    assert len(batch.keys) == 3       # (job, platform) pairs dedup
    assert len(batch.tasks) == 4      # task names dedup (None included)
    assert _canon_samples(batch.to_samples()) == _canon_samples(originals)
    assert batch.to_samples() == originals
    assert batch.nbytes == len(originals) * (4 + 4 + 8 + 8 + 8)


def test_sample_columns_empty_batch():
    batch = SampleColumns.from_samples([])
    assert len(batch) == 0
    assert batch.to_samples() == []
    CpiAggregator(CpiConfig()).ingest_batch(batch)  # no-op, no error


# -- shardability guards ------------------------------------------------------


def test_check_shardable_refuses_migration():
    scenario = build_cluster(2, seed=0, enable_migration=True)
    with pytest.raises(ShardedRunUnsupported, match="enable_migration"):
        check_shardable(scenario)


def test_check_shardable_refuses_pending_tasks():
    scenario = build_cluster(1, seed=0)
    scenario.submit(make_batch_job_spec("big", num_tasks=400, seed=1,
                                        cpu_limit_per_task=2.0))
    with pytest.raises(ShardedRunUnsupported, match="big"):
        check_shardable(scenario)


def test_check_shardable_rejects_non_scenario():
    with pytest.raises(TypeError):
        check_shardable(object())


def test_run_sharded_rejects_unsupported_scenarios():
    with pytest.raises(ShardedRunUnsupported):
        run_sharded(build_cluster, dict(num_machines=2, seed=0,
                                        enable_migration=True),
                    seconds=60, jobs=2)
