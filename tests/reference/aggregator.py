"""Reference Section 3.1 aggregator ingest: one sample at a time.

This is how :class:`repro.core.aggregator.CpiAggregator` accumulated
samples before :meth:`~repro.core.aggregator.CpiAggregator.ingest_batch`
became the only path: each sample runs the literal quarantine ladder
(shared with ``tests/reference/ingest.py``), and a plausible one folds
into its (job, platform) key's Welford accumulator.  It acts on the
aggregator's own period state and totals, so the result is compared
through ``export_state()`` and the rejection events.
"""

from repro.core.aggregator import _RunningStats
from tests.reference.ingest import quarantine_reason


def ingest(aggregator, sample) -> None:
    """Accumulate one sample into the current refresh period."""
    reason = quarantine_reason(sample, aggregator.config.quarantine_cpi_bound)
    if reason is not None:
        aggregator._reject(reason, sample.jobname, sample.platforminfo)
        return
    stats = aggregator._current.setdefault(sample.key(), _RunningStats())
    stats.count += 1
    delta = sample.cpi - stats.mean
    stats.mean += delta / stats.count
    stats.m2 += delta * (sample.cpi - stats.mean)
    stats.usage_sum += sample.cpu_usage
    task = sample.taskname or f"{sample.jobname}/?"
    stats.samples_per_task[task] = stats.samples_per_task.get(task, 0) + 1
    aggregator.total_samples_ingested += 1
    if aggregator._c_ingested is not None:
        aggregator._c_ingested.inc()


def ingest_many(aggregator, samples) -> None:
    """:func:`ingest` each sample, in order."""
    for sample in samples:
        ingest(aggregator, sample)
