"""CPI sample aggregation: learning each job's normal behaviour.

"The data aggregation component of CPI2 calculates the mean and standard
deviation of CPI for each job, which is called its CPI spec.  This
information is updated every 24 hours. ... Historical data about prior runs
is incorporated using age-weighting, by multiplying the CPI value from the
previous day by about 0.9 before averaging it with the most recent day's
data.  We do not perform CPI management for applications with fewer than 5
tasks or fewer than 100 CPI samples per task."  (Section 3.1.)

:class:`CpiAggregator` ingests the per-task samples streamed off machines,
keeps running (Welford) statistics per (job, platform) key for the current
refresh period, and on each refresh blends the period's statistics with the
previous spec using the paper's age-weighting before publishing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.records import CpiSpec, SpecKey
from repro.core.samplebatch import SampleColumns
from repro.faults.quarantine import quarantine_reason
from repro.obs import Observability

__all__ = ["CpiAggregator"]


@dataclass
class _RunningStats:
    """Welford accumulator for one (job, platform) key within one period."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    usage_sum: float = 0.0
    samples_per_task: dict[str, int] = field(default_factory=dict)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / self.count

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def usage_mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.usage_sum / self.count

    @property
    def num_tasks(self) -> int:
        return len(self.samples_per_task)

    @property
    def min_samples_per_task(self) -> int:
        if not self.samples_per_task:
            return 0
        return min(self.samples_per_task.values())


class CpiAggregator:
    """The cluster-level CPI-spec learner."""

    def __init__(self, config: CpiConfig = DEFAULT_CONFIG,
                 obs: Optional[Observability] = None):
        self.config = config
        self._current: dict[SpecKey, _RunningStats] = {}
        self._specs: dict[SpecKey, CpiSpec] = {}
        self._last_refresh: Optional[int] = None
        self.total_samples_ingested = 0
        self.total_samples_rejected = 0
        self._obs = obs
        # Cached so each batch pays one attribute increment.
        self._c_ingested = (obs.metrics.counter("samples_ingested")
                            if obs is not None else None)
        # Per-reason rejection counters, cached the same way on first use so
        # a fault-heavy run pays one dict lookup per rejected sample, not a
        # labelled registry lookup.
        self._c_rejected: dict[str, object] = {}

    # -- ingest -----------------------------------------------------------------

    def _reject(self, reason: str, jobname: str, platforminfo: str) -> None:
        self.total_samples_rejected += 1
        if self._obs is None:
            return
        counter = self._c_rejected.get(reason)
        if counter is None:
            counter = self._obs.metrics.counter(
                "aggregator_samples_rejected", reason=reason)
            self._c_rejected[reason] = counter
        counter.inc()
        self._obs.events.event("aggregator_sample_rejected", reason=reason,
                               job=jobname, platform=platforminfo)

    def ingest_batch(self, batch: SampleColumns) -> None:
        """Accumulate one columnar batch into the current refresh period.

        Implausible samples — non-finite CPI or usage, zero CPI, CPI above
        the quarantine bound (corrupted counter reads or wire damage) —
        are rejected in row order with a counted reason from
        :func:`~repro.faults.quarantine.quarantine_reason` instead of being
        folded into the running statistics, where one NaN would poison a
        whole spec.  Accepted samples run the Welford recurrence per key,
        in row order within the key; keys enter the period in order of
        their first accepted sample.  The per-sample transcription is the
        test oracle ``tests/reference/aggregator.py``.
        """
        n = len(batch)
        if n == 0:
            return
        bound = self.config.quarantine_cpi_bound
        cpi = batch.cpi.tolist()
        usage = batch.cpu_usage.tolist()
        key_code = batch.key_code.tolist()
        task_code = batch.task_code.tolist()
        keys = batch.keys
        isfinite = math.isfinite
        accepted: dict[int, list[int]] = {}
        for i in range(n):
            c = cpi[i]
            if isfinite(c) and isfinite(usage[i]) and c != 0.0 and c <= bound:
                group = accepted.get(key_code[i])
                if group is None:
                    accepted[key_code[i]] = [i]
                else:
                    group.append(i)
                continue
            key = keys[key_code[i]]
            self._reject(quarantine_reason(c, usage[i], bound),
                         key.jobname, key.platforminfo)
        current = self._current
        tasks = batch.tasks
        ingested = 0
        for code, idxs in accepted.items():
            key = keys[code]
            stats = current.get(key)
            if stats is None:
                stats = _RunningStats()
                current[key] = stats
            count = stats.count
            mean = stats.mean
            m2 = stats.m2
            usage_sum = stats.usage_sum
            per_task = stats.samples_per_task
            for i in idxs:
                c = cpi[i]
                count += 1
                delta = c - mean
                mean += delta / count
                m2 += delta * (c - mean)
                usage_sum += usage[i]
                task = tasks[task_code[i]] or f"{key.jobname}/?"
                per_task[task] = per_task.get(task, 0) + 1
            stats.count = count
            stats.mean = mean
            stats.m2 = m2
            stats.usage_sum = usage_sum
            ingested += len(idxs)
        self.total_samples_ingested += ingested
        if self._c_ingested is not None and ingested:
            self._c_ingested.inc(ingested)

    # -- spec publication ----------------------------------------------------------

    def _eligible(self, stats: _RunningStats) -> bool:
        """The Section 3.1 robustness gates."""
        return (stats.num_tasks >= self.config.min_tasks_for_spec
                and stats.count >= self.config.min_samples_per_task * stats.num_tasks)

    def _blend(self, key: SpecKey, stats: _RunningStats) -> CpiSpec:
        """Combine the period's statistics with the previous spec.

        The previous spec's values are multiplied by the age weight (~0.9)
        before averaging with the fresh period, so history decays
        geometrically day over day.
        """
        previous = self._specs.get(key)
        if previous is None:
            return CpiSpec(
                jobname=key.jobname,
                platforminfo=key.platforminfo,
                num_samples=stats.count,
                cpu_usage_mean=stats.usage_mean,
                cpi_mean=stats.mean,
                cpi_stddev=stats.stddev,
            )
        w_old = self.config.history_age_weight
        w_new = 1.0
        total = w_old + w_new
        mean = (w_old * previous.cpi_mean + w_new * stats.mean) / total
        variance = (w_old * previous.cpi_stddev ** 2
                    + w_new * stats.variance) / total
        usage = (w_old * previous.cpu_usage_mean + w_new * stats.usage_mean) / total
        effective = int(w_old * previous.num_samples) + stats.count
        return CpiSpec(
            jobname=key.jobname,
            platforminfo=key.platforminfo,
            num_samples=effective,
            cpu_usage_mean=usage,
            cpi_mean=mean,
            cpi_stddev=math.sqrt(variance),
        )

    def recompute(self, now: int) -> dict[SpecKey, CpiSpec]:
        """Close the current period and publish updated specs.

        Keys whose period data fails the robustness gates keep their previous
        spec (if any) unchanged — a job that shrank below 5 tasks stops
        getting fresher predictions but is not forgotten mid-run.

        Returns the full published spec map.
        """
        updated = 0
        for key, stats in self._current.items():
            if stats.count == 0 or not self._eligible(stats):
                continue
            self._specs[key] = self._blend(key, stats)
            updated += 1
        self._current = {}
        self._last_refresh = now
        if self._obs is not None:
            self._obs.metrics.counter("spec_refreshes").inc()
            self._obs.metrics.gauge("specs_published").set(len(self._specs))
            self._obs.events.event("specs_published", updated=updated,
                                   published=len(self._specs))
        return dict(self._specs)

    def maybe_recompute(self, now: int) -> Optional[dict[SpecKey, CpiSpec]]:
        """Recompute if a refresh period has elapsed since the last one."""
        if (self._last_refresh is None
                or now - self._last_refresh >= self.config.spec_refresh_period):
            return self.recompute(now)
        return None

    # -- spec access ------------------------------------------------------------------

    def specs(self) -> dict[SpecKey, CpiSpec]:
        """The currently published specs (a copy)."""
        return dict(self._specs)

    def spec_for(self, jobname: str, platforminfo: str) -> Optional[CpiSpec]:
        """The published spec for one (job, platform), or ``None``."""
        return self._specs.get(SpecKey(jobname, platforminfo))

    def set_spec(self, spec: CpiSpec) -> None:
        """Inject a spec directly.

        Models the paper's warm start from historical data: "if we have seen
        a previous run of a job, we don't have to build a new model of its
        CPI behavior from scratch."  Also the natural hook for tests.
        """
        self._specs[spec.key()] = spec

    # -- durable state ----------------------------------------------------------

    def export_state(self) -> dict:
        """The complete learned state as a JSON-able dict.

        Entries are ordered lists, not maps: dict insertion order is part
        of the aggregator's observable behaviour (``recompute`` iterates
        ``_current`` in insertion order), so :meth:`restore_state` must be
        able to rebuild the exact same ordering.  Floats survive a JSON
        round-trip bit-exactly (Python emits shortest-repr float64).
        """
        from repro.core.storage import spec_to_dict

        return {
            "specs": [spec_to_dict(spec) for spec in self._specs.values()],
            "current": [
                {"jobname": key.jobname, "platforminfo": key.platforminfo,
                 "count": stats.count, "mean": stats.mean, "m2": stats.m2,
                 "usage_sum": stats.usage_sum,
                 "samples_per_task": dict(stats.samples_per_task)}
                for key, stats in self._current.items()],
            "last_refresh": self._last_refresh,
            "total_ingested": self.total_samples_ingested,
            "total_rejected": self.total_samples_rejected,
        }

    def restore_state(self, state: dict) -> None:
        """Install a state exported by :meth:`export_state`.

        Replaces all learned state (specs, in-period Welford accumulators,
        refresh clock, ingest totals).  Metric counters are deliberately
        not rewound: monitoring is external to the process being restored.
        """
        from repro.core.storage import spec_from_dict

        self._specs = {}
        for data in state["specs"]:
            spec = spec_from_dict(data)
            self._specs[spec.key()] = spec
        self._current = {}
        for entry in state["current"]:
            key = SpecKey(entry["jobname"], entry["platforminfo"])
            self._current[key] = _RunningStats(
                count=entry["count"], mean=entry["mean"], m2=entry["m2"],
                usage_sum=entry["usage_sum"],
                samples_per_task=dict(entry["samples_per_task"]))
        self._last_refresh = state["last_refresh"]
        self.total_samples_ingested = state["total_ingested"]
        self.total_samples_rejected = state["total_rejected"]

    def reset_state(self) -> None:
        """Forget everything — the crash half of crash/restore."""
        self._current = {}
        self._specs = {}
        self._last_refresh = None
        self.total_samples_ingested = 0
        self.total_samples_rejected = 0
