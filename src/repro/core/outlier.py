"""Local CPI outlier and anomaly detection (paper Section 4.1).

"A CPI measurement is flagged as an outlier if it is larger than the 2-sigma
point on the predicted CPI distribution ... We ignore CPI measurements from
tasks that use less than 0.25 CPU-sec/sec since CPI sometimes increases
significantly if CPU usage drops to near zero.  To reduce occasional false
alarms from noisy data, a task is considered to be suffering anomalous
behavior only if it is flagged as an outlier at least 3 times in a 5 minute
window."

Detection is *local*: every machine's agent runs its own
:class:`OutlierDetector` against the specs the aggregator pushed down, "which
enables rapid responses and increases scalability".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.records import CpiSample, CpiSpec, SpecKey
from repro.core.samplebatch import SampleColumns
from repro.obs import Observability

__all__ = ["AnomalyEvent", "OutlierDetector"]


@dataclass(frozen=True)
class AnomalyEvent:
    """A task crossed the 3-in-5-minutes line: it is suffering interference."""

    taskname: str
    jobname: str
    platforminfo: str
    time_seconds: int
    cpi: float
    threshold: float
    violations: int
    #: When the oldest in-window outlier flag landed — the start of the
    #: detection episode, used as the trace's ``detect`` span start.
    first_flag_seconds: Optional[int] = None


class OutlierDetector:
    """Per-machine streak tracker implementing the Section 4.1 rules."""

    def __init__(self, config: CpiConfig = DEFAULT_CONFIG,
                 obs: Optional[Observability] = None):
        self.config = config
        #: Per-task timestamps (seconds) of recent outlier flags.
        self._flags: dict[str, deque[int]] = {}
        self.samples_seen = 0
        self.samples_skipped_low_usage = 0
        self.samples_skipped_no_spec = 0
        # Instruments are resolved once here so each batch pays a plain
        # attribute increment, nothing more.
        metrics = (obs.metrics if obs is not None else None)
        self._c_seen = metrics.counter("detector_samples_seen") if metrics else None
        self._c_no_spec = (metrics.counter("detector_samples_skipped",
                                           reason="no_spec")
                           if metrics else None)
        self._c_low_usage = (metrics.counter("detector_samples_skipped",
                                             reason="low_usage")
                             if metrics else None)
        self._c_flagged = (metrics.counter("detector_outliers_flagged")
                           if metrics else None)

    def observe_batch(
        self,
        timestamps_sec: np.ndarray,
        cpi: np.ndarray,
        usage: np.ndarray,
        thresholds: np.ndarray,
        has_spec: np.ndarray,
        task_code: np.ndarray,
        tasknames: Sequence[str],
        key_code: np.ndarray,
        keys: Sequence[SpecKey],
    ) -> list[tuple[int, AnomalyEvent]]:
        """Apply the Section 4.1 rules to one batch of samples, in row order.

        A row is skipped when its key has no spec or its CPU usage is
        under the gate; otherwise it is flagged when its CPI is not at or
        below the threshold (so a NaN threshold flags).  Before a row is
        judged, its task's flags older than ``anomaly_window`` seconds are
        expired (a flag exactly window-old still counts).  A flagged row
        whose task then holds ``anomaly_violations`` in-window flags
        declares an anomaly — re-declared on every such row; the caller's
        rate-limit on antagonist analysis is what stops that from causing
        repeated work.

        The spec lookup, usage gate, and threshold comparison run as array
        masks over the whole batch; only rows that actually touch streak
        state (flagged outliers, plus active samples of tasks with live
        flags, whose expiry must advance) fall into the sequential per-row
        loop.  The per-sample transcription of the same rules is the test
        oracle ``tests/reference/outlier.py``.

        Args:
            timestamps_sec: truncated-second timestamps per row (int64).
            cpi, usage: per-row CPI and CPU usage (float64).
            thresholds: per-row outlier threshold (valid where
                ``has_spec``; unread elsewhere).
            has_spec: per-row "a spec is published for this key".
            task_code: per-row index into ``tasknames``.
            tasknames: the batch's taskname table.
            key_code: per-row index into ``keys``.
            keys: the batch's aggregation-key table (jobname/platforminfo
                for the emitted anomalies).

        Returns:
            ``(row, anomaly)`` pairs in row order, one per declared
            anomaly.
        """
        n = len(cpi)
        self.samples_seen += n
        if self._c_seen is not None and n:
            self._c_seen.inc(n)
        no_spec = ~has_spec
        skipped_no_spec = int(no_spec.sum())
        if skipped_no_spec:
            self.samples_skipped_no_spec += skipped_no_spec
            if self._c_no_spec is not None:
                self._c_no_spec.inc(skipped_no_spec)
        low_usage = has_spec & (usage < self.config.min_cpu_usage)
        skipped_low_usage = int(low_usage.sum())
        if skipped_low_usage:
            self.samples_skipped_low_usage += skipped_low_usage
            if self._c_low_usage is not None:
                self._c_low_usage.inc(skipped_low_usage)
        active = has_spec & ~low_usage
        # ``~(cpi <= thr)`` rather than ``cpi > thr``: identical for real
        # thresholds, and a NaN threshold flags (nothing compares <= NaN).
        flagged = active & ~(cpi <= thresholds)
        flagged_count = int(flagged.sum())
        if flagged_count and self._c_flagged is not None:
            self._c_flagged.inc(flagged_count)
        anomalies: list[tuple[int, AnomalyEvent]] = []
        if not active.any():
            return anomalies
        # Rows that must replay sequentially: every flagged sample, plus
        # active samples of any task that is either already tracked or
        # becomes flagged in this batch (their expiry must advance row by
        # row).
        n_tasks = len(tasknames)
        touched = np.zeros(n_tasks, dtype=bool)
        for code, name in enumerate(tasknames):
            if self._flags.get(name):
                touched[code] = True
        if flagged_count:
            touched[task_code[flagged]] = True
        work = active & (flagged | touched[task_code])
        if not work.any():
            return anomalies
        anomaly_window = self.config.anomaly_window
        anomaly_violations = self.config.anomaly_violations
        flagged_list = flagged.tolist()
        for row in np.flatnonzero(work).tolist():
            taskname = tasknames[task_code[row]]
            t = int(timestamps_sec[row])
            flags = self._flags.get(taskname)
            if flags is None:
                flags = deque()
                self._flags[taskname] = flags
            horizon = t - anomaly_window
            while flags and flags[0] < horizon:
                flags.popleft()
            if not flagged_list[row]:
                continue
            flags.append(t)
            if len(flags) >= anomaly_violations:
                key = keys[key_code[row]]
                anomalies.append((row, AnomalyEvent(
                    taskname=taskname,
                    jobname=key.jobname,
                    platforminfo=key.platforminfo,
                    time_seconds=t,
                    cpi=float(cpi[row]),
                    threshold=float(thresholds[row]),
                    violations=len(flags),
                    first_flag_seconds=flags[0],
                )))
        return anomalies

    def observe_samples(self, samples: Sequence[CpiSample],
                        spec: Optional[CpiSpec]) -> list[AnomalyEvent]:
        """:meth:`observe_batch` over a sample stream judged by one spec.

        The replay form the trial harness and the ablation sweeps use:
        one victim's recorded samples against one (possibly absent) spec.
        Returns the declared anomalies in sample order.
        """
        columns = SampleColumns.from_samples(samples)
        n = len(columns)
        threshold = (spec.outlier_threshold(self.config.outlier_stddevs)
                     if spec is not None else 0.0)
        # int(timestamp_seconds) == int64(microseconds / 1e6).
        anomalies = self.observe_batch(
            timestamps_sec=(columns.timestamp / 1e6).astype(np.int64),
            cpi=columns.cpi,
            usage=columns.cpu_usage,
            thresholds=np.full(n, threshold),
            has_spec=np.full(n, spec is not None),
            task_code=columns.task_code,
            tasknames=columns.tasks,
            key_code=columns.key_code,
            keys=columns.keys,
        )
        return [anomaly for _row, anomaly in anomalies]

    def forget_task(self, taskname: str) -> None:
        """Drop state for a departed task."""
        self._flags.pop(taskname, None)

    # -- checkpoint support (agent crash/recovery) ------------------------------

    def export_flags(self) -> dict[str, list[int]]:
        """Per-task in-window outlier flag timestamps, JSON-able.

        This is the detector's only state that matters across an agent
        restart: losing a streak mid-anomaly would silently re-arm the
        3-in-5-minutes rule and delay detection.
        """
        return {name: list(flags)
                for name, flags in self._flags.items() if flags}

    def restore_flags(self, flags: dict[str, list[int]]) -> None:
        """Replace streak state from an :meth:`export_flags` snapshot."""
        self._flags = {name: deque(times) for name, times in flags.items()}

    def violations_for(self, taskname: str) -> int:
        """Current in-window outlier count for a task (0 if unknown)."""
        flags = self._flags.get(taskname)
        return len(flags) if flags else 0
