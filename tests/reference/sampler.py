"""Reference window close: the original per-task loop of :class:`CpiSampler`.

This is how the sampler opened and closed windows before the close became
columnar: opening snapshots every resident cgroup's counters into a dict,
and closing walks the resident tasks in name order, differences each
task's counters against its snapshot, applies the discard guards in order
(counters, then instructions, then usage), reads usage through
``Cgroup.usage_between``, and builds one ``CpiSample`` per survivor.  The
list is wrapped in a ``WindowSamples`` so it flows through the same sinks.
Snapshots and deltas are this module's own dict code, reading counters
only through ``CounterSet.read``.

Tests swap both methods in for every sampler with :func:`install`.
"""

import math

from repro.core.samplebatch import SampleColumns, WindowSamples
from repro.perf.events import CounterEvent
from repro.perf.sampler import CpiSampler
from repro.records import MICROSECONDS_PER_SECOND, CpiSample


def install(monkeypatch) -> None:
    monkeypatch.setattr(CpiSampler, "_open_window", open_window)
    monkeypatch.setattr(CpiSampler, "_close_window", close_window)


def open_window(sampler: CpiSampler, t: int) -> None:
    sampler._window_start = t
    sampler._snapshots = {
        name: _snapshot(sampler.machine.counters.counters_for(name))
        for name in sampler.machine.resident_cgroup_names()
    }


def close_window(sampler: CpiSampler, end: int) -> WindowSamples:
    assert sampler._window_start is not None
    start = sampler._window_start
    samples: list[CpiSample] = []
    for task in sampler.machine.resident_tasks():
        snapshot = sampler._snapshots.get(task.cgroup.name)
        if snapshot is None:
            continue  # task arrived mid-window; skip it this round
        deltas = _delta_since(
            sampler.machine.counters.counters_for(task.cgroup.name), snapshot)
        cycles = deltas[CounterEvent.CPU_CLK_UNHALTED_REF]
        instructions = deltas[CounterEvent.INSTRUCTIONS_RETIRED]
        if not (math.isfinite(cycles) and math.isfinite(instructions)):
            # A corrupted counter read; CPI would be NaN/inf and poison
            # every consumer downstream.  Guard at the source.
            sampler._discard_window(task.name, "non_finite_counters")
            continue
        if instructions <= 0.0:
            # No retired instructions -> CPI undefined; no sample.
            sampler._discard_window(task.name, "zero_instructions")
            continue
        usage = task.cgroup.usage_between(start + 1, end + 1)
        if not math.isfinite(usage):
            sampler._discard_window(task.name, "non_finite_usage")
            continue
        samples.append(CpiSample(
            jobname=task.job.name,
            platforminfo=sampler.machine.platform.name,
            timestamp=end * MICROSECONDS_PER_SECOND,
            cpu_usage=usage,
            cpi=cycles / instructions,
            taskname=task.name,
        ))
    return WindowSamples(SampleColumns.from_samples(samples))


def _snapshot(counters) -> dict:
    """Every event's current value, copied into a dict."""
    return {event: counters.read(event) for event in CounterEvent}


def _delta_since(counters, snapshot: dict) -> dict:
    """Per-event increase since ``snapshot``; a decrease is a bookkeeping
    bug."""
    deltas = {}
    for event in CounterEvent:
        before = snapshot[event]
        now = counters.read(event)
        if now < before:
            raise ValueError(
                f"counter {event.value} went backwards: {before} -> {now}")
        deltas[event] = now - before
    return deltas
