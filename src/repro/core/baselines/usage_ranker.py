"""Passive heuristic baseline: blame the biggest CPU consumer.

This is the first heuristic the paper's hypothetical active scheme would
rank-order by ("CPU usage and cache miss rate"), used *without* the
probe step: just accuse the top consumer outright.  It is cheap and
plausible — and wrong whenever the hungriest co-tenant is an innocent
compute-bound spinner.  The active probe
(:mod:`~repro.core.baselines.active_probe`) tries suspects in this order.
"""

from __future__ import annotations

from repro.cluster.machine import Machine
from repro.cluster.task import Task

__all__ = ["rank_by_usage"]


def _suspects(machine: Machine, victim: Task) -> list[Task]:
    return [t for t in machine.resident_tasks() if t.job.name != victim.job.name]


def rank_by_usage(machine: Machine, victim: Task,
                  window: tuple[int, int]) -> list[tuple[Task, float]]:
    """Co-tenants ranked by mean CPU usage over ``window = (start, end)``.

    Returns (task, mean usage) pairs, hungriest first.
    """
    start, end = window
    scored = [
        (task, task.cgroup.usage_between(start, end))
        for task in _suspects(machine, victim)
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0].name))
    return scored
