"""Meta-benchmark: the demand/allocation plane (tick phases 1-3 and 5b-6).

After the tick physics fused (PR 3) and analysis vectorized (PR 5), the
demand plane — per-task demand closures, cgroup clipping, charging, and
``on_tick`` accounting — was the last big Python loop on the hot path:
three closure calls per task per simulated second.  The compiled demand
engine (``repro.cluster.demandplane``) lowers the combinators' spec forms
into struct-of-arrays programs, bit-identical to the closures
(``tests/test_demand_plane.py`` pins that), so this benchmark only has to
prove it is *faster*: it times exactly the input/finish phases on a
100-task machine under both engines and writes the ``demand_plane`` entry
of ``BENCH_throughput.json`` for CI to gate at >= 2x.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.job import Job, JobSpec
from repro.cluster.machine import Machine, TickResult
from repro.cluster.platform import get_platform
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.testing import QUIET_PROFILE
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant, on_off, phased, scaled, with_noise
from repro.workloads.diurnal import DiurnalPattern

NUM_JOBS = 10
TASKS_PER_JOB = 10
TICKS = 600
MIN_SPEEDUP = 2.0


def _demand_for(job: int, index: int, rng: np.random.Generator):
    """A realistic mix: noisy services, bursty batch, diurnal frontends."""
    kind = job % 4
    if kind == 0:
        return with_noise(constant(0.4 + 0.05 * index), 0.08, rng)
    if kind == 1:
        return with_noise(
            on_off(1.2, 0.2, 300, duty=0.4, phase=int(rng.integers(300))),
            0.1, rng)
    if kind == 2:
        return with_noise(
            scaled(constant(0.6), DiurnalPattern(amplitude=0.25)), 0.08, rng)
    return phased([(120, 0.3), (240, 0.9), (120, 0.5)])


def _build_machine(demand_engine: str) -> Machine:
    machine = Machine("bench", get_platform("westmere-2.6"),
                      cpi_noise_sigma=0.0, demand_engine=demand_engine)
    for j in range(NUM_JOBS):
        tier = (SchedulingClass.LATENCY_SENSITIVE if j % 3 == 0 else
                SchedulingClass.BATCH if j % 3 == 1 else
                SchedulingClass.BEST_EFFORT)
        job = Job(JobSpec(
            name=f"job-{j}", num_tasks=TASKS_PER_JOB,
            scheduling_class=tier,
            priority_band=PriorityBand.NONPRODUCTION,
            cpu_limit_per_task=1.5,
            workload_factory=lambda i, j=j: SyntheticWorkload(
                base_cpi=1.0 + 0.01 * i, profile=QUIET_PROFILE,
                demand=_demand_for(j, i, np.random.default_rng(
                    np.random.SeedSequence((j, i)))))))
        for task in job.tasks:
            machine.place(task)
    return machine


def _time_phases(machine: Machine, t0: int) -> float:
    """Seconds for TICKS rounds of the input + finish phases only, at
    simulated seconds ``t0 ..`` (charge times must strictly increase)."""
    table = machine._task_table()
    start = time.perf_counter()
    for t in range(t0, t0 + TICKS):
        result = TickResult(t=t, departures=[])
        grants, capped, _ = machine._tick_inputs(t, table)
        machine._tick_finish(t, table, result, grants, capped)
    return time.perf_counter() - start


def test_demand_plane_speedup(bench_json_sink):
    scalar_m = _build_machine("scalar")
    vector_m = _build_machine("vector")
    assert vector_m._task_table().demand_columns is not None
    assert scalar_m._task_table().demand_columns is None

    # Same seeds, same closures: one parity spot-check before timing (the
    # exhaustive bit-parity suite lives in tests/test_demand_plane.py).
    g_s, c_s, b_s = scalar_m._tick_inputs(0, scalar_m._task_table())
    g_v, c_v, b_v = vector_m._tick_inputs(0, vector_m._task_table())
    assert [float(g).hex() for g in g_s] == [float(g).hex() for g in g_v]
    assert c_s == list(c_v) and list(b_s) == list(b_v)

    # Warm, then take the best of three (1-core CI boxes are noisy).
    scalar_s = min(_time_phases(scalar_m, k * TICKS) for k in range(3))
    vector_s = min(_time_phases(vector_m, k * TICKS) for k in range(3))

    n = NUM_JOBS * TASKS_PER_JOB
    payload = {
        "workload": (f"{n}-task machine, {TICKS} ticks of the input/finish "
                     f"phases (demand, clipping, allocation, charging, "
                     f"on_tick accounting)"),
        "scalar_task_ticks_per_second": n * TICKS / scalar_s,
        "vector_task_ticks_per_second": n * TICKS / vector_s,
        "speedup": scalar_s / vector_s,
    }
    bench_json_sink(
        "demand_plane", payload,
        summary=(f"demand_plane: {payload['speedup']:.1f}x "
                 f"({payload['scalar_task_ticks_per_second']:,.0f} -> "
                 f"{payload['vector_task_ticks_per_second']:,.0f} "
                 f"task-ticks/s, {n} tasks)"))
    print(f"\ndemand plane: scalar {scalar_s:.3f}s, vector {vector_s:.3f}s "
          f"-> {payload['speedup']:.2f}x")
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"demand plane speedup {payload['speedup']:.2f}x < {MIN_SPEEDUP}x")
