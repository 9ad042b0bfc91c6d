"""A process-wide worker pool for coarse-grained experiment fan-outs.

``run_trials(jobs=N)`` and ``run_experiments(jobs=N)`` both fan
independent units of work across a ``multiprocessing.Pool``; before this
module each call built (and tore down) its own pool, so short corpora
paid more in process spawning than they saved in parallelism — a
serial-vs-parallel trials benchmark measured 0.74x *against* serial on the
default corpus.  :func:`shared_pool` keeps one fork-preferred pool alive for
the life of the process instead (the coarse-fan-out sibling of
:class:`repro.cluster.shards.ShardPool`), growing it when a caller asks
for more workers and shutting it down atexit.

Fork is preferred where available (Linux): workers inherit the warm
interpreter and imported modules instead of re-importing them.  Results
never depend on the pool shape — every entry point uses ordered
``pool.map`` over per-unit seeds.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
from typing import Optional

__all__ = ["shared_pool", "shutdown_pool"]

_POOL: Optional[mp.pool.Pool] = None
_POOL_SIZE = 0


def shared_pool(processes: int) -> mp.pool.Pool:
    """Return the persistent pool, sized for at least ``processes`` workers.

    Growing replaces the pool (a ``Pool``'s worker count is fixed at
    construction); shrinking never does — extra idle workers cost a few
    sleeping processes, far less than a rebuild.  ``Pool`` replaces any
    worker that dies, so one crashed unit of work doesn't poison later
    fan-outs.
    """
    global _POOL, _POOL_SIZE
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if _POOL is not None and _POOL_SIZE < processes:
        _POOL.terminate()
        _POOL = None
    if _POOL is None:
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        _POOL = ctx.Pool(processes=processes)
        _POOL_SIZE = processes
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (atexit, and tests that count spawns)."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_SIZE = 0


atexit.register(shutdown_pool)
