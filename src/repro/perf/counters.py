"""Per-cgroup counting-mode performance counters.

Per the paper (Section 3.1): counters are "counted simultaneously, and
collected on a per-cgroup basis.  (Per-CPU counting wouldn't work because
several unrelated tasks frequently timeshare a single CPU.  Per-thread
counting would require too much memory ...)  The counters are saved/restored
when a context switch changes to a thread from a different cgroup, which
costs a couple of microseconds.  Total CPU overhead is less than 0.1%."

:class:`CounterSet` is one cgroup's monotonically increasing counters;
:class:`CounterBank` is a machine's collection of them plus the
context-switch save/restore overhead ledger against which
``tests/test_machine.py::test_context_switch_overhead_below_claim``
checks the <0.1% claim at the simulated context-switch rate.

Storage is a small numpy array per cgroup (one slot per
:class:`~repro.perf.events.CounterEvent`).  The tick re-backs those arrays
with rows of one matrix (:meth:`CounterBank.matrix_view`) and burns a whole
tick's counter increments with :meth:`CounterBank.burn_matrix` — one
validation pass over the event matrix and one array add.  The sampler
copies the matrix at a window's open and differences it at the close with
:func:`delta_matrix`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.perf.events import CounterEvent

__all__ = ["CounterSet", "CounterBank", "CONTEXT_SWITCH_COST_SECONDS",
           "EVENT_ORDER", "delta_matrix"]

#: Cost of one counter save/restore at a cross-cgroup context switch — the
#: paper says "a couple of microseconds".
CONTEXT_SWITCH_COST_SECONDS = 2e-6

#: The fixed event layout of every counter array (enum definition order).
EVENT_ORDER: tuple[CounterEvent, ...] = tuple(CounterEvent)

_EVENT_INDEX: dict[CounterEvent, int] = {e: i for i, e in enumerate(EVENT_ORDER)}


class CounterSet:
    """Monotonic counters for one cgroup.

    Values only increase; sampling works by differencing two snapshots, which
    is exactly how perf_event counting mode is consumed.  Backed by one
    float64 array in :data:`EVENT_ORDER` layout — a row of the matrix the
    tick burns (:meth:`CounterBank.matrix_view`), which is the only way
    counters advance.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values = np.zeros(len(EVENT_ORDER), dtype=np.float64)

    def read(self, event: CounterEvent) -> float:
        """Current cumulative value of ``event``."""
        return float(self._values[_EVENT_INDEX[event]])


def delta_matrix(now: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Per-event increases for many cgroups at once.

    Over the :meth:`CounterBank.matrix_view` layout: ``before`` is an
    earlier copy of the matrix (rows aligned to the same cgroups), and the
    result is the elementwise increase — one float64 subtraction per slot.

    Raises:
        ValueError: if any counter went backwards (a bookkeeping bug), naming
            the first offender in row-major (cgroup-then-:data:`EVENT_ORDER`)
            order.
    """
    if now.shape != before.shape:
        raise ValueError(
            f"snapshot shape {before.shape} does not match {now.shape}")
    regressed = np.less(now, before)
    if regressed.any():
        r, c = (int(i) for i in np.argwhere(regressed)[0])
        raise ValueError(
            f"counter {EVENT_ORDER[c].value} went backwards: "
            f"{float(before[r, c])} -> {float(now[r, c])}")
    return now - before


class CounterBank:
    """All cgroup counter sets on one machine, plus overhead accounting."""

    def __init__(self) -> None:
        self._sets: dict[str, CounterSet] = {}
        self._context_switches = 0
        self._overhead_seconds = 0.0

    def counters_for(self, cgroup_name: str) -> CounterSet:
        """The counter set for ``cgroup_name``, created on first use."""
        counters = self._sets.get(cgroup_name)
        if counters is None:
            counters = CounterSet()
            self._sets[cgroup_name] = counters
        return counters

    def drop(self, cgroup_name: str) -> None:
        """Forget a departed cgroup's counters (no-op if unknown)."""
        self._sets.pop(cgroup_name, None)

    def known_cgroups(self) -> list[str]:
        """Names of cgroups with live counter sets."""
        return sorted(self._sets)

    def matrix_view(self, cgroup_names: Sequence[str],
                    out: np.ndarray | None = None) -> np.ndarray:
        """Re-back the named counter sets with rows of one shared matrix.

        Returns a ``(len(cgroup_names), len(EVENT_ORDER))`` float64 matrix
        whose row ``i`` *is* the storage of ``cgroup_names[i]``'s
        :class:`CounterSet` (current values preserved; sets are created on
        first use).  A whole machine-tick of increments then burns as a
        single ``matrix += events`` (:meth:`burn_matrix`) while
        :meth:`CounterSet.read` keeps working, since it goes through the
        set's backing array.

        ``out``, when given, is used as that matrix — typically a slice of
        a larger arena shared with other machines (:mod:`repro.cluster.fused`).
        The sets' previous backing matrix is left as it was.

        The view stays valid until the next :meth:`matrix_view` call for the
        same names; callers re-request it whenever their task set changes.

        Raises:
            ValueError: if ``out`` is not a float64 matrix of that shape.
        """
        shape = (len(cgroup_names), len(EVENT_ORDER))
        if out is None:
            matrix = np.empty(shape, dtype=np.float64)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 matrix of shape {shape}, got "
                f"{out.dtype} {out.shape}")
        else:
            matrix = out
        for i, name in enumerate(cgroup_names):
            counters = self.counters_for(name)
            matrix[i] = counters._values
            counters._values = matrix[i]
        return matrix

    @staticmethod
    def burn_matrix(matrix: np.ndarray, events: np.ndarray) -> None:
        """Accumulate a tick's event matrix onto a :meth:`matrix_view` matrix.

        Counters are monotonic, and one NaN would poison every later delta
        and every CPI computed from it, so every increment must be finite
        and >= 0.  Enforced with two reductions over the whole matrix
        (``min`` flags negatives and NaN, ``max`` flags +inf); a rejected
        matrix leaves the counters untouched.  A static method: the matrix
        may be an arena holding rows of many machines' banks.
        """
        if events.shape != matrix.shape:
            raise ValueError(
                f"event matrix shape {events.shape} does not match "
                f"{matrix.shape}")
        if events.size:
            lo = float(events.min())
            if not lo >= 0.0:
                raise ValueError(
                    f"counter increments must be finite and >= 0, got {lo}")
            if float(events.max()) == math.inf:
                raise ValueError("counter increments must be finite")
        matrix += events

    # -- context-switch overhead ledger --------------------------------------

    def record_context_switches(self, count: int) -> None:
        """Charge ``count`` cross-cgroup switches' worth of save/restore cost."""
        if count < 0:
            raise ValueError(f"context switch count must be >= 0, got {count}")
        self._context_switches += count
        self._overhead_seconds += count * CONTEXT_SWITCH_COST_SECONDS

    @property
    def context_switches(self) -> int:
        """Total cross-cgroup context switches recorded."""
        return self._context_switches

    @property
    def overhead_seconds(self) -> float:
        """Cumulative CPU seconds spent saving/restoring counters."""
        return self._overhead_seconds

    def overhead_fraction(self, total_cpu_seconds: float) -> float:
        """Monitoring overhead as a fraction of ``total_cpu_seconds`` burned.

        The paper's claim is that this stays below 0.1%.
        """
        if total_cpu_seconds <= 0:
            raise ValueError(
                f"total_cpu_seconds must be positive, got {total_cpu_seconds}")
        return self._overhead_seconds / total_cpu_seconds
