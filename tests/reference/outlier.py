"""Reference Section 4.1 detector: one sample at a time.

This is how :class:`repro.core.outlier.OutlierDetector` judged samples
before :meth:`~repro.core.outlier.OutlierDetector.observe_batch` became the
only path.  :func:`observe` transcribes the paper's rules literally — skip
a sample without a spec, skip it under the usage gate, flag it above the
2-sigma threshold, declare an anomaly at 3 flags in 5 minutes — against a
detector's own streak state (``_flags``) and counters, so a test can run
a production detector and a reference one over the same stream and
compare them field for field.
"""

from collections import deque

from repro.core.outlier import AnomalyEvent


def observe(detector, sample, spec):
    """Judge one sample; returns the declared :class:`AnomalyEvent` or None."""
    config = detector.config
    detector.samples_seen += 1
    if detector._c_seen is not None:
        detector._c_seen.inc()
    if spec is None:
        detector.samples_skipped_no_spec += 1
        if detector._c_no_spec is not None:
            detector._c_no_spec.inc()
        return None
    if sample.cpu_usage < config.min_cpu_usage:
        detector.samples_skipped_low_usage += 1
        if detector._c_low_usage is not None:
            detector._c_low_usage.inc()
        return None
    threshold = spec.outlier_threshold(config.outlier_stddevs)
    t = int(sample.timestamp_seconds)
    flags = detector._flags.setdefault(sample.taskname, deque())
    # Expire flags older than the window; a flag exactly window-seconds
    # old still counts.
    horizon = t - config.anomaly_window
    while flags and flags[0] < horizon:
        flags.popleft()
    # Nothing compares <= NaN, so a NaN threshold flags every sample.
    if sample.cpi <= threshold:
        return None
    flags.append(t)
    if detector._c_flagged is not None:
        detector._c_flagged.inc()
    if len(flags) < config.anomaly_violations:
        return None
    return AnomalyEvent(
        taskname=sample.taskname,
        jobname=sample.jobname,
        platforminfo=sample.platforminfo,
        time_seconds=t,
        cpi=sample.cpi,
        threshold=threshold,
        violations=len(flags),
        first_flag_seconds=flags[0],
    )
