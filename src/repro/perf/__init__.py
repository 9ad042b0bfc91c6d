"""Simulated hardware performance-counter substrate.

The production CPI2 reads ``CPU_CLK_UNHALTED.REF`` and
``INSTRUCTIONS_RETIRED`` through perf_event in *counting* mode, per cgroup,
with counters saved/restored on context switches between cgroups.  We cannot
assume real counters here, so this package provides the same interface backed
by the cluster simulator: per-cgroup monotonically increasing counter sets, a
bank per machine, and the sampling daemon that turns counter deltas into the
paper's once-a-minute, 10-second CPI samples.
"""

from repro.perf.events import CounterEvent
from repro.perf.counters import CounterSet, CounterBank, EVENT_ORDER
from repro.perf.profiling import StageTimers, profile_call
from repro.perf.sampler import CpiSampler, SamplerConfig

__all__ = [
    "CounterEvent",
    "CounterSet",
    "CounterBank",
    "EVENT_ORDER",
    "CpiSampler",
    "SamplerConfig",
    "StageTimers",
    "profile_call",
]
