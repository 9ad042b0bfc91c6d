"""Columnar CPI sample batches: the one runtime form of a sampling window.

A closed sampling window's samples travel from the machine's
:class:`~repro.perf.sampler.CpiSampler` to the local agent
(:meth:`~repro.core.agent.MachineAgent.ingest_samples`) and up to the
aggregator (:meth:`~repro.core.aggregator.CpiAggregator.ingest_batch`) —
directly in clean mode, or as the payload of a
:class:`~repro.faults.retry.SampleBatch` over the fault plane's upload
links.  Every hop carries the same :class:`SampleColumns`: two small string
tables (aggregation keys and tasknames) and five numpy columns, so a
500-sample window is a handful of arrays and ingests as one tight loop.
Holders treat a batch as immutable; the wire corrupter damages a copy.

:class:`~repro.records.CpiSample` objects exist only where a sample is
written out or read back: the pipeline's ``sample_log``, the spec store's
WAL lines, agent checkpoints and :mod:`repro.core.storage`, and offline
replay.  The format is *lossless* both ways: ``to_samples`` reconstructs
samples that compare equal, field by field, to what ``from_samples``
encoded (float64 round-trips exactly).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.records import CpiSample, SpecKey

__all__ = ["SampleColumns"]


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
        """A zero-sample batch: what the sampler returns when no window
        closed, and what a window with no survivors encodes to."""
        return cls((), (), np.empty(0, dtype=np.int32),
                   np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64))

    def to_samples(self) -> list[CpiSample]:
        """Decode to sample objects, field-equal to what was encoded.

        The edge where a window is written out — the pipeline's
        ``sample_log``, the spec store's WAL lines, the shard plane's
        sample log — or read by an experiment as objects.  Wire damage
        (NaN, zero or huge CPI, NaN usage) decodes fine; only a negative
        value, which no producer makes, is refused by :class:`CpiSample`.
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
