"""The per-machine CPI sampling daemon.

"The CPI data is sampled periodically by a system daemon using the perf_event
tool in counting mode ... We gather CPI data for a 10 second period once a
minute; we picked this fraction to give other measurement tools time to use
the counters."  (Section 3.1.)

:class:`CpiSampler` is driven by the simulation clock: at the start of each
minute it snapshots every resident cgroup's counters; 10 seconds later it
differences them and emits one sample (one row of a
:class:`~repro.core.samplebatch.SampleColumns`) per task that executed
instructions during the window.

The window close is columnar: a snapshot is one array copy of the
machine's index-aligned counter matrix, window usage is one window mean
over the task table's usage history, and deltas / validity masks / CPI
run as full-width ufunc passes that emit a
:class:`~repro.core.samplebatch.SampleColumns` record directly.  No
``CpiSample`` objects exist between the sampler and the aggregator.

The original per-task loop is the test oracle ``tests/reference/sampler.py``;
``tests/test_sampler_plane.py`` pins byte-identical samples, incidents,
counters, and discard events between the two.  The invariants that make
this possible are documented in ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.records import MICROSECONDS_PER_SECOND, SpecKey
from repro.perf.events import CounterEvent
from repro.perf.counters import EVENT_ORDER, delta_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Machine
    from repro.core.samplebatch import SampleColumns
    from repro.obs import Observability

__all__ = ["SamplerConfig", "CpiSampler"]

#: Fixed column positions of the two events the CPI formula reads.
_CYCLES_COL = EVENT_ORDER.index(CounterEvent.CPU_CLK_UNHALTED_REF)
_INSTRUCTIONS_COL = EVENT_ORDER.index(CounterEvent.INSTRUCTIONS_RETIRED)

_EMPTY_SNAPSHOT = np.empty((0, len(EVENT_ORDER)))


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling duty cycle (paper Table 2 defaults).

    Attributes:
        duration_seconds: counter-collection window length (10 s).
        period_seconds: one window starts every this many seconds (60 s).
    """

    duration_seconds: int = 10
    period_seconds: int = 60

    def __post_init__(self) -> None:
        if self.duration_seconds < 1:
            raise ValueError(
                f"duration_seconds must be >= 1, got {self.duration_seconds}")
        if self.period_seconds < self.duration_seconds:
            raise ValueError(
                "period_seconds must be >= duration_seconds "
                f"({self.period_seconds} < {self.duration_seconds})")

    def acts_at(self, t: int) -> bool:
        """Whether a sampler on this duty cycle, ticked at every such
        second from its start, opens or closes a window at second ``t``.

        Windows open on period boundaries and close ``duration`` seconds
        later, so at every other second :meth:`CpiSampler.tick` is a no-op
        (50 of every 60 by default).  Every sampler of a simulation shares
        one config, so the simulation asks this once per tick and skips
        all its samplers at once.
        """
        period = self.period_seconds
        phase = t % period
        return phase == 0 or phase == self.duration_seconds % period

    def next_edge(self, t: int) -> int:
        """The first second ``>= t`` at which :meth:`acts_at` is true.

        In closed form from ``t``'s phase: the window closes at phase
        ``duration % period`` (0 when a window spans the whole period,
        so only openings remain) and opens at phase 0.
        """
        period = self.period_seconds
        phase = t % period
        if phase == 0:
            return t
        close = self.duration_seconds % period
        if phase <= close:
            return t + close - phase
        return t + period - phase


class CpiSampler:
    """Samples one machine's per-cgroup counters on the paper's duty cycle.

    Call :meth:`tick` *after* the machine has executed a second: every
    second, or only at the seconds :meth:`SamplerConfig.acts_at` names (at
    any other, ``tick`` is a no-op).  A window opened at time ``t0``
    snapshots the counters as of the end of second ``t0`` and closes
    ``duration`` seconds later, so its deltas cover exactly seconds
    ``t0+1 .. t0+duration``.
    """

    def __init__(self, machine: "Machine", config: SamplerConfig | None = None,
                 obs: "Optional[Observability]" = None):
        # Deferred import: repro.core pulls in the agent, which imports the
        # machine, which imports this module.
        from repro.core.samplebatch import SampleColumns

        self.machine = machine
        self.config = config or SamplerConfig()
        #: Telemetry handle; the simulation injects its own when attached.
        self.obs = obs
        self._window_start: int | None = None
        #: The open window's snapshot: (cgroup-name tuple, counter-matrix
        #: copy).
        self._snapshot_columns: tuple[tuple[str, ...], np.ndarray] | None = None
        #: What :meth:`tick` returns when no window closed.
        self._no_window = SampleColumns.empty()
        # Per-reason discard-counter handles, so a storm of bad windows
        # under heavy chaos doesn't pay a labelled registry lookup per
        # discard.  Keyed by the obs identity the cache was built against:
        # the simulation injects obs after construction (set_observability),
        # and tests swap facades freely.
        self._discard_counters: dict[str, object] = {}
        self._discard_obs: "Optional[Observability]" = None
        #: Per-table emission cache: (table, tasknames, jobnames) — the
        #: name properties chase task -> spec attribute chains, and the
        #: table object is stable between placement changes.
        self._names_cache: tuple = (None, (), ())

    def _discard_window(self, taskname: str, reason: str) -> None:
        """Count a window that produced no sample — bad windows must be
        visible at the source, not discovered downstream."""
        obs = self.obs
        if obs is None:
            return
        if obs is not self._discard_obs:
            self._discard_counters = {}
            self._discard_obs = obs
        counter = self._discard_counters.get(reason)
        if counter is None:
            counter = obs.metrics.counter("sampler_windows_discarded",
                                          reason=reason)
            self._discard_counters[reason] = counter
        counter.inc()
        obs.events.event("sampler_window_discarded", reason=reason,
                         machine=self.machine.name, task=taskname)

    def tick(self, t: int) -> "SampleColumns":
        """Advance to second ``t``; returns the window's samples if one closed.

        The result is a :class:`~repro.core.samplebatch.SampleColumns`,
        empty (and falsy) when no window closed at ``t``.
        """
        samples = self._no_window
        if (self._window_start is not None
                and t - self._window_start >= self.config.duration_seconds):
            samples = self._close_window(end=t)
            self._window_start = None
            self._snapshot_columns = None
        if self._window_start is None and t % self.config.period_seconds == 0:
            self._open_window(t)
        return samples

    def _open_window(self, t: int) -> None:
        self._window_start = t
        # One memcpy of the index-aligned counter matrix instead of one dict
        # per cgroup.  The matrix rows ARE the cgroups' live counter storage
        # (CounterBank.matrix_view), so the copy is the same values a
        # per-cgroup snapshot() sweep would record.
        table = self.machine._task_table()
        matrix = table.counter_matrix
        self._snapshot_columns = (
            table.cgroup_names,
            matrix.copy() if matrix is not None else _EMPTY_SNAPSHOT)

    # -- the window close -----------------------------------------------------
    #
    # Bit-identical to the scalar reference loop by construction: same task
    # order (the task table is name-sorted, exactly resident_tasks() order),
    # the same float64 subtraction per counter slot, the same IEEE division
    # for CPI, and a window usage summed from 0.0 in the same time order as
    # Cgroup.usage_between, from the same usage history.  Discard reasons
    # apply in the same precedence and emit events in the same task order.

    def _close_window(self, end: int) -> "SampleColumns":
        # Deferred import: see __init__.
        from repro.core.samplebatch import SampleColumns

        assert self._window_start is not None
        assert self._snapshot_columns is not None
        start = self._window_start
        machine = self.machine
        snap_names, snap = self._snapshot_columns
        table = machine._task_table()
        names = table.cgroup_names
        if not names:
            return self._no_window
        cached_table, tasknames_all, jobnames_all = self._names_cache
        if cached_table is not table:
            tasknames_all = tuple(task.name for task in table.tasks)
            jobnames_all = tuple(task.job.name for task in table.tasks)
            self._names_cache = (table, tasknames_all, jobnames_all)
        if names == snap_names:
            # The common window: no placement change, rows already aligned.
            current = table.counter_matrix
            snapshot = snap
            row_tasknames = tasknames_all
            row_jobnames = jobnames_all
            rows = slice(None)
        else:
            # Tasks arrived (no snapshot row: skipped, like the scalar
            # reference) and/or departed (snapshot row no longer resident:
            # simply not iterated) mid-window; align by cgroup name.
            index = {name: j for j, name in enumerate(snap_names)}
            keep = [(i, index[name]) for i, name in enumerate(names)
                    if name in index]
            if not keep:
                return self._no_window
            rows = np.asarray([i for i, _ in keep], dtype=np.intp)
            current = table.counter_matrix[rows]
            snapshot = snap[np.asarray([j for _, j in keep], dtype=np.intp)]
            row_tasknames = tuple(tasknames_all[i] for i, _ in keep)
            row_jobnames = tuple(jobnames_all[i] for i, _ in keep)
        deltas = delta_matrix(current, snapshot)
        cycles = deltas[:, _CYCLES_COL]
        instructions = deltas[:, _INSTRUCTIONS_COL]
        finite = np.isfinite(cycles) & np.isfinite(instructions)
        positive = instructions > 0.0
        # Mean usage over seconds start+1 .. end; seconds the history's
        # clock has not reached (the machine skipped ticks) read 0.0.
        # Reading rows the scalar reference would discard first is
        # unobservable: the read is pure.
        usage = table.usage.means(rows, start + 1, end - start)
        ok = finite & positive & np.isfinite(usage)
        if not ok.all():
            # Discards interleave nothing but their own counters/events, so
            # replaying them row-by-row in task order reproduces exactly
            # the scalar reference's event stream.  Precedence per row matches
            # the scalar guard order: counters, then instructions, then
            # usage.
            for j in np.flatnonzero(~ok).tolist():
                if not finite[j]:
                    self._discard_window(row_tasknames[j],
                                         "non_finite_counters")
                elif not positive[j]:
                    self._discard_window(row_tasknames[j],
                                         "zero_instructions")
                else:
                    self._discard_window(row_tasknames[j],
                                         "non_finite_usage")
        good = np.flatnonzero(ok)
        n = len(good)
        # Emit SampleColumns directly — the same tables from_samples would
        # build over the equivalent sample list: keys in first-appearance
        # order (platform is constant per machine, so keys are distinct
        # jobnames), tasknames unique per machine so the task table is the
        # emission order itself.
        platform = machine.platform.name
        key_index: dict[str, int] = {}
        keys: list[SpecKey] = []
        codes: list[int] = []
        tasknames = []
        for j in good.tolist():
            jobname = row_jobnames[j]
            code = key_index.get(jobname)
            if code is None:
                code = len(keys)
                key_index[jobname] = code
                keys.append(SpecKey(jobname, platform))
            codes.append(code)
            tasknames.append(row_tasknames[j])
        key_code = np.asarray(codes, dtype=np.int32)
        return SampleColumns(
            keys, tasknames, key_code,
            np.arange(n, dtype=np.int32),
            np.full(n, end * MICROSECONDS_PER_SECOND, dtype=np.int64),
            usage[good],
            np.divide(cycles[good], instructions[good]))
