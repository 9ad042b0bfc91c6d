"""SampleColumns over the shard wire: a pickle on the worker's pipe.

Sharded runs ship every closed window and fabric arrival from worker to
coordinator as a pickled :class:`SampleColumns`.  These tests pin the
property parity depends on: the round-trip is lossless (bit-exact floats,
NaN quarantine candidates included) and order-preserving.
"""

import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.samplebatch import SampleColumns
from repro.records import CpiSample

from tests.conftest import make_sample

names = st.text(min_size=0, max_size=12)
metrics = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)

samples = st.builds(
    CpiSample,
    jobname=names,
    platforminfo=names,
    timestamp=st.integers(min_value=0, max_value=2**62),
    cpu_usage=metrics,
    cpi=metrics,
    taskname=names,
)


def roundtrip(batch: SampleColumns) -> SampleColumns:
    """What the coordinator receives for ``batch``."""
    return pickle.loads(pickle.dumps(batch))


def assert_batches_equal(left: SampleColumns, right: SampleColumns) -> None:
    assert left.keys == right.keys
    assert left.tasks == right.tasks
    for column in ("key_code", "task_code", "timestamp"):
        assert np.array_equal(getattr(left, column), getattr(right, column))
    for column in ("cpu_usage", "cpi"):
        # Bit-exact, not just value-equal: NaN payloads must survive too.
        assert (getattr(left, column).tobytes()
                == getattr(right, column).tobytes())


class TestWireFormat:
    @given(batch=st.lists(samples, max_size=40))
    @settings(max_examples=50)
    def test_roundtrip_is_lossless(self, batch):
        columns = SampleColumns.from_samples(batch)
        decoded = roundtrip(columns)
        assert_batches_equal(decoded, columns)
        assert decoded.to_samples() == batch

    def test_empty_batch(self):
        decoded = roundtrip(SampleColumns.from_samples([]))
        assert len(decoded) == 0
        assert decoded.keys == ()
        assert decoded.tasks == ()
        assert decoded.to_samples() == []

    def test_nan_cpi_quarantine_candidates_survive(self):
        # The aggregator quarantines non-finite CPI *after* transport;
        # the wire must deliver the NaN bit pattern intact.
        batch = SampleColumns.from_samples(
            [make_sample(cpi=float("nan")),
             make_sample(cpu_usage=float("nan"), cpi=0.0),
             make_sample(cpi=float("inf"))])
        decoded = roundtrip(batch)
        assert_batches_equal(decoded, batch)
        assert math.isnan(decoded.cpi[0])
        assert math.isnan(decoded.cpu_usage[1])
        assert decoded.cpi[1] == 0.0
        assert math.isinf(decoded.cpi[2])

    def test_unicode_and_empty_names(self):
        batch = [make_sample(jobname="ジョブ/0", platforminfo="pf-β",
                             taskname=""),
                 make_sample(jobname="", platforminfo="", taskname="t")]
        assert roundtrip(SampleColumns.from_samples(batch)).to_samples() \
            == batch
