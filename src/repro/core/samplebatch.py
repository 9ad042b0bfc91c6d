"""Columnar CPI sample batches: the sharded pipeline's wire format.

A closed sampling window's samples cross two boundaries on their way into
the aggregator — machine -> coordinator (a process boundary under
``--jobs N``, where batches are pickled onto the worker's pipe) and
pipeline -> :meth:`CpiAggregator.ingest_batch`.  Shipping them as a list
of :class:`~repro.records.CpiSample` dataclasses means one pickled Python
object per sample plus one attribute walk per sample on arrival.  :class:`SampleColumns` is the struct-of-arrays alternative: two
small string tables (aggregation keys and tasknames) and five numpy
columns, so a 500-sample window pickles as a handful of buffers and
ingests as one tight loop.

The format is *lossless*: ``to_samples`` reconstructs samples that compare
equal, field by field, to the originals (float64 round-trips exactly), so
the single-process path can use the same objects without changing a byte of
output — which the golden-parity tests in ``tests/test_shards.py`` pin.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Iterable, Sequence

import numpy as np

from repro.records import CpiSample, SpecKey

__all__ = ["SampleColumns", "WindowSamples"]


class SampleColumns:
    """One batch of CPI samples as a struct of arrays.

    Attributes:
        keys: table of distinct (job, platform) aggregation keys.
        tasks: table of distinct tasknames.
        key_code: per-sample index into :attr:`keys` (int32).
        task_code: per-sample index into :attr:`tasks` (int32).
        timestamp: per-sample microseconds since the epoch (int64).
        cpu_usage: per-sample CPU-sec/sec (float64).
        cpi: per-sample cycles/instruction (float64).
    """

    __slots__ = ("keys", "tasks", "key_code", "task_code", "timestamp",
                 "cpu_usage", "cpi")

    def __init__(self, keys: Sequence[SpecKey], tasks: Sequence[str],
                 key_code: np.ndarray, task_code: np.ndarray,
                 timestamp: np.ndarray, cpu_usage: np.ndarray,
                 cpi: np.ndarray):
        self.keys = tuple(keys)
        self.tasks = tuple(tasks)
        self.key_code = key_code
        self.task_code = task_code
        self.timestamp = timestamp
        self.cpu_usage = cpu_usage
        self.cpi = cpi

    def __len__(self) -> int:
        return len(self.cpi)

    @classmethod
    def from_samples(cls, samples: Iterable[CpiSample]) -> "SampleColumns":
        """Encode an ordered sample stream (order is preserved exactly)."""
        samples = list(samples)
        n = len(samples)
        key_index: dict[tuple[str, str], int] = {}
        keys: list[SpecKey] = []
        task_index: dict[str, int] = {}
        tasks: list[str] = []
        key_code = np.empty(n, dtype=np.int32)
        task_code = np.empty(n, dtype=np.int32)
        timestamp = np.empty(n, dtype=np.int64)
        cpu_usage = np.empty(n, dtype=np.float64)
        cpi = np.empty(n, dtype=np.float64)
        for i, s in enumerate(samples):
            k = (s.jobname, s.platforminfo)
            kc = key_index.get(k)
            if kc is None:
                kc = len(keys)
                key_index[k] = kc
                keys.append(SpecKey(s.jobname, s.platforminfo))
            tc = task_index.get(s.taskname)
            if tc is None:
                tc = len(tasks)
                task_index[s.taskname] = tc
                tasks.append(s.taskname)
            key_code[i] = kc
            task_code[i] = tc
            timestamp[i] = s.timestamp
            cpu_usage[i] = s.cpu_usage
            cpi[i] = s.cpi
        return cls(keys, tasks, key_code, task_code, timestamp, cpu_usage,
                   cpi)

    @classmethod
    def empty(cls) -> "SampleColumns":
        """A zero-sample batch (what a window with no survivors encodes to)."""
        return cls((), (), np.empty(0, dtype=np.int32),
                   np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64))

    def to_samples(self) -> list[CpiSample]:
        """Decode back to sample objects, field-equal to the originals.

        Only valid for batches of *plausible* samples: :class:`CpiSample`
        rejects negative values at construction, so corrupted in-flight
        batches should stay columnar (``ingest_batch`` never materialises
        objects).
        """
        keys = self.keys
        tasks = self.tasks
        return [
            CpiSample(jobname=keys[kc].jobname,
                      platforminfo=keys[kc].platforminfo,
                      timestamp=ts, cpu_usage=usage, cpi=cpi, taskname=tasks[tc])
            for kc, tc, ts, usage, cpi in zip(
                self.key_code.tolist(), self.task_code.tolist(),
                self.timestamp.tolist(), self.cpu_usage.tolist(),
                self.cpi.tolist())
        ]

    @property
    def nbytes(self) -> int:
        """Bytes held by the numeric columns."""
        return (self.key_code.nbytes + self.task_code.nbytes
                + self.timestamp.nbytes + self.cpu_usage.nbytes
                + self.cpi.nbytes)

    def __repr__(self) -> str:
        return (f"SampleColumns(n={len(self)}, keys={len(self.keys)}, "
                f"tasks={len(self.tasks)})")


class WindowSamples(SequenceABC):
    """A closed sampling window: columns first, objects only on demand.

    The sampler emits :class:`SampleColumns` directly — no
    :class:`~repro.records.CpiSample` objects exist on the clean path.  But
    the window still flows through consumers written against sample lists
    (``sample_log.extend``, the fault plane's upload clients, tests
    indexing ``samples[0]``), so this wrapper *is* a sequence of samples:
    materialization via :meth:`SampleColumns.to_samples` happens lazily on
    the first element access and is cached.  Consumers that only need
    ``len``/truthiness or the columns (the simulation's dispatch guard, the
    pipeline's empty-window skip, the aggregator's and the agent's ingest)
    never build an object.

    Equality against lists/tuples compares the materialized samples, so the
    golden-parity suites can diff a window field by field against a list.
    """

    __slots__ = ("columns", "_samples")

    def __init__(self, columns: SampleColumns):
        self.columns = columns
        self._samples: list[CpiSample] | None = None

    def _list(self) -> list[CpiSample]:
        samples = self._samples
        if samples is None:
            samples = self.columns.to_samples()
            self._samples = samples
        return samples

    def __len__(self) -> int:
        return len(self.columns)

    def __bool__(self) -> bool:
        return len(self.columns) > 0

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other) -> bool:
        if isinstance(other, WindowSamples):
            return self._list() == other._list()
        if isinstance(other, (list, tuple)):
            return self._list() == list(other)
        return NotImplemented

    __hash__ = None  # mutable cache; matches list semantics

    def __repr__(self) -> str:
        state = "materialized" if self._samples is not None else "columnar"
        return f"WindowSamples(n={len(self)}, {state})"
