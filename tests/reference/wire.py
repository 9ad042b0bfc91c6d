"""Reference upload wire: a window shipped as a tuple of sample objects.

This is how the fault plane carried a closed window before the upload
batch carried the sampler's columns: :class:`SampleBatch` held one
``CpiSample`` per row, :func:`corrupt_sample_batch` damaged one of them with
``dataclasses.replace``, and the spec store's WAL records listed
``sample_to_dict`` of each object (:func:`wire_record`,
:func:`ingest_record`).  Tests compare the columnar corrupter and WAL
writers against these, value for value and byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.storage import sample_to_dict
from repro.records import CpiSample

#: The damage menu for one corrupted sample: (description, transform).
SAMPLE_DAMAGE = (
    ("nan_cpi", lambda s: replace(s, cpi=float("nan"))),
    ("huge_cpi", lambda s: replace(s, cpi=s.cpi * 1e6 + 1e6)),
    ("zero_cpi", lambda s: replace(s, cpi=0.0)),
    ("nan_usage", lambda s: replace(s, cpu_usage=float("nan"))),
)


@dataclass(frozen=True)
class SampleBatch:
    """One machine's closed sampling window, as sample objects."""

    batch_id: str
    machine: str
    sent_at: int
    samples: tuple[CpiSample, ...]


def corrupt_sample_batch(batch: SampleBatch,
                         rng: np.random.Generator) -> SampleBatch:
    """Damage one sample; empty batches pass through."""
    if not batch.samples:
        return batch
    index = int(rng.integers(len(batch.samples)))
    _, transform = SAMPLE_DAMAGE[int(rng.integers(len(SAMPLE_DAMAGE)))]
    samples = list(batch.samples)
    samples[index] = transform(samples[index])
    return replace(batch, samples=tuple(samples))


def wire_record(t: int, batch: SampleBatch) -> dict:
    """The WAL record ``log_wire_batch`` appends, before its ``seq``."""
    return {"op": "wire", "t": t, "batch": batch.batch_id,
            "machine": batch.machine,
            "samples": [sample_to_dict(s) for s in batch.samples]}


def ingest_record(t: int, samples: list[CpiSample]) -> dict:
    """The WAL record ``log_ingest`` appends, before its ``seq``."""
    return {"op": "ingest", "t": t,
            "samples": [sample_to_dict(s) for s in samples]}
