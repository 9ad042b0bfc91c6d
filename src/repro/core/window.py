"""Columnar per-task sample windows (the correlation window's raw material).

The agent used to keep each task's recent samples as a deque of
:class:`~repro.records.CpiSample` objects and walk it attribute-by-attribute
on every analysis (victim series, follow-up CPI, checkpointing).
:class:`ColumnarWindow` stores the same window as numpy ring buffers —
microsecond timestamps, truncated-second timestamps, CPU usage, and CPI —
so the analysis plane reads contiguous float64/int64 slices instead of
boxed Python floats, and batch ingest writes scalars straight from
:class:`~repro.core.samplebatch.SampleColumns` columns.

Two compatibility contracts are preserved exactly:

* ``window.samples`` materialises the window as ``CpiSample`` objects that
  are field-equal to what the old deque held.  An agent checkpoint holds
  :meth:`ColumnarWindow.copy` snapshots and runs this view only when
  ``AgentCheckpoint.to_dict`` serialises one, so the checkpoint JSON is
  byte-identical to the deque era's.
* The capacity is the old ``deque(maxlen=64)``: appending to a full window
  evicts the oldest sample.

The buffers are allocated at twice the capacity so the live region is
always one contiguous slice; when the write cursor hits the end, the last
``capacity`` rows are copied back to the front (amortised O(1) per append,
like a deque, but with zero-copy reads in between).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.core.records import CpiSample

__all__ = ["WINDOW_CAPACITY", "ColumnarWindow"]

#: Samples retained per task — the old ``deque(maxlen=64)``.
WINDOW_CAPACITY = 64


class ColumnarWindow:
    """Recent samples for one task, stored column-wise."""

    __slots__ = ("taskname", "capacity", "_ts_us", "_ts_sec", "_usage",
                 "_cpi", "_meta", "_start", "_end")

    def __init__(self, taskname: str, capacity: int = WINDOW_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.taskname = taskname
        self.capacity = capacity
        size = 2 * capacity
        self._ts_us = np.empty(size, dtype=np.int64)
        self._ts_sec = np.empty(size, dtype=np.int64)
        self._usage = np.empty(size, dtype=np.float64)
        self._cpi = np.empty(size, dtype=np.float64)
        #: Per-sample (jobname, platforminfo), evicted in lockstep with the
        #: columns.  Kept for lossless checkpoint round-trips; in practice
        #: every entry is the same tuple object (a task's job and the
        #: machine's platform never change), so this costs one pointer per
        #: sample.
        self._meta: deque[tuple[str, str]] = deque(maxlen=capacity)
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def append(self, timestamp_us: int, timestamp_sec: int, cpu_usage: float,
               cpi: float, jobname: str, platforminfo: str) -> None:
        """Append one sample, evicting the oldest at capacity."""
        end = self._end
        if end == len(self._ts_us):
            # Compact: copy the live tail back to the front.  Amortised:
            # this runs once per ``capacity`` appends.
            start = self._start
            n = end - start
            for column in (self._ts_us, self._ts_sec, self._usage, self._cpi):
                column[:n] = column[start:end]
            self._start = 0
            self._end = end = n
        self._ts_us[end] = timestamp_us
        self._ts_sec[end] = timestamp_sec
        self._usage[end] = cpu_usage
        self._cpi[end] = cpi
        self._meta.append((jobname, platforminfo))
        self._end = end + 1
        if self._end - self._start > self.capacity:
            self._start += 1

    def append_sample(self, sample: CpiSample) -> None:
        """Append one :class:`CpiSample` object (checkpoint restore)."""
        self.append(sample.timestamp, int(sample.timestamp_seconds),
                    sample.cpu_usage, sample.cpi, sample.jobname,
                    sample.platforminfo)

    # -- columnar reads (zero-copy views, oldest first) -----------------------

    @property
    def timestamps_us(self) -> np.ndarray:
        """Microsecond timestamps, oldest first (int64 view)."""
        return self._ts_us[self._start:self._end]

    @property
    def timestamps_sec(self) -> np.ndarray:
        """Truncated-second timestamps (``int(timestamp_seconds)``), oldest
        first (int64 view)."""
        return self._ts_sec[self._start:self._end]

    @property
    def cpu_usage(self) -> np.ndarray:
        """CPU usage column, oldest first (float64 view)."""
        return self._usage[self._start:self._end]

    @property
    def cpi(self) -> np.ndarray:
        """CPI column, oldest first (float64 view)."""
        return self._cpi[self._start:self._end]

    # -- object-view compatibility -------------------------------------------

    @property
    def samples(self) -> list[CpiSample]:
        """The window as sample objects, field-equal to what was appended.

        This is the serialisation view: ``AgentCheckpoint.to_dict`` runs
        ``repro.core.storage.sample_to_dict`` over it, so a persisted
        checkpoint holds exactly the dicts the deque-based window produced.
        """
        ts = self._ts_us[self._start:self._end].tolist()
        usage = self._usage[self._start:self._end].tolist()
        cpi = self._cpi[self._start:self._end].tolist()
        return [
            CpiSample(jobname=jobname, platforminfo=platforminfo,
                      timestamp=t, cpu_usage=u, cpi=c,
                      taskname=self.taskname)
            for (jobname, platforminfo), t, u, c in zip(self._meta, ts,
                                                        usage, cpi)
        ]

    def copy(self) -> "ColumnarWindow":
        """An independent, compacted copy: the live rows moved to the front.

        Checkpoints snapshot with this and restores copy again, so appends
        to the live window never write into a snapshot and one snapshot can
        be restored any number of times.
        """
        clone = ColumnarWindow(self.taskname, capacity=self.capacity)
        start, end = self._start, self._end
        n = end - start
        clone._ts_us[:n] = self._ts_us[start:end]
        clone._ts_sec[:n] = self._ts_sec[start:end]
        clone._usage[:n] = self._usage[start:end]
        clone._cpi[:n] = self._cpi[start:end]
        clone._meta.extend(self._meta)
        clone._end = n
        return clone

    @classmethod
    def from_samples(cls, taskname: str, samples: Iterable[CpiSample],
                     capacity: int = WINDOW_CAPACITY) -> "ColumnarWindow":
        """Build a window from sample objects (checkpoint restore)."""
        window = cls(taskname, capacity=capacity)
        for sample in samples:
            window.append_sample(sample)
        return window

    def __repr__(self) -> str:
        return (f"ColumnarWindow({self.taskname!r}, n={len(self)}, "
                f"capacity={self.capacity})")
