"""Unit tests for repro.core.outlier (Section 4.1 rules)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CpiConfig
from repro.core.outlier import OutlierDetector
from tests.conftest import make_sample, make_spec


SPEC = make_spec(cpi_mean=1.0, cpi_stddev=0.1)  # threshold = 1.2


class TestFlagging:
    def test_above_two_sigma_flagged(self):
        detector = OutlierDetector()
        detector.observe_samples([make_sample(t=60, cpi=1.25)], SPEC)
        assert detector.violations_for("job/0") == 1
        assert SPEC.outlier_threshold(2.0) == pytest.approx(1.2)

    def test_at_or_below_threshold_not_flagged(self):
        detector = OutlierDetector()
        detector.observe_samples([make_sample(t=60, cpi=1.2),
                                  make_sample(t=120, cpi=0.9)], SPEC)
        assert detector.violations_for("job/0") == 0
        assert detector.samples_seen == 2

    def test_low_usage_gate(self):
        # "We ignore CPI measurements from tasks that use less than 0.25
        # CPU-sec/sec."
        detector = OutlierDetector()
        anomalies = detector.observe_samples(
            [make_sample(t=60, cpi=10.0, cpu_usage=0.2)], SPEC)
        assert anomalies == []
        assert detector.samples_skipped_low_usage == 1
        assert detector.samples_skipped_no_spec == 0
        assert detector.violations_for("job/0") == 0

    def test_usage_gate_boundary(self):
        detector = OutlierDetector()
        detector.observe_samples(
            [make_sample(t=60, cpi=10.0, cpu_usage=0.25)], SPEC)
        # Exactly at the gate counts.
        assert detector.samples_skipped_low_usage == 0
        assert detector.violations_for("job/0") == 1

    def test_missing_spec_skipped(self):
        detector = OutlierDetector()
        anomalies = detector.observe_samples(
            [make_sample(t=60, cpi=10.0)], None)
        assert anomalies == []
        assert detector.samples_skipped_no_spec == 1
        assert detector.samples_skipped_low_usage == 0
        assert detector.violations_for("job/0") == 0


def _declared(detector, samples, spec=SPEC):
    """Per sample, in order: the anomaly it declares, or None."""
    return [next(iter(detector.observe_samples([sample], spec)), None)
            for sample in samples]


class TestAnomalyWindow:
    def test_three_in_five_minutes_declares(self):
        anomalies = _declared(OutlierDetector(), [
            make_sample(t=60 * minute, cpi=2.0) for minute in range(1, 4)])
        assert anomalies[:2] == [None, None]
        assert anomalies[2] is not None
        assert anomalies[2].violations == 3

    def test_two_flags_insufficient(self):
        detector = OutlierDetector()
        anomalies = detector.observe_samples(
            [make_sample(t=t, cpi=2.0) for t in (60, 120)], SPEC)
        assert anomalies == []
        assert detector.violations_for("job/0") == 2

    def test_flags_expire_outside_window(self):
        detector = OutlierDetector()
        # Third flag 300+ seconds after the first: first has expired.
        anomalies = detector.observe_samples(
            [make_sample(t=t, cpi=2.0) for t in (60, 120, 420)], SPEC)
        assert anomalies == []
        assert detector.violations_for("job/0") == 2

    def test_interleaved_normal_samples_dont_reset(self):
        detector = OutlierDetector()
        anomalies = detector.observe_samples([
            make_sample(t=60, cpi=2.0),
            make_sample(t=120, cpi=1.0),  # normal
            make_sample(t=180, cpi=2.0),
            make_sample(t=240, cpi=2.0),
        ], SPEC)
        assert [a.time_seconds for a in anomalies] == [240]

    def test_anomaly_redeclared_while_condition_persists(self):
        declared = _declared(OutlierDetector(), [
            make_sample(t=60 * minute, cpi=2.0) for minute in range(1, 7)])
        assert [a is not None for a in declared] == [
            False, False, True, True, True, True]

    def test_tasks_tracked_independently(self):
        detector = OutlierDetector()
        anomalies = detector.observe_samples([
            make_sample(t=60, cpi=2.0, taskname="job/0"),
            make_sample(t=120, cpi=2.0, taskname="job/0"),
            make_sample(t=180, cpi=2.0, taskname="job/1"),
        ], SPEC)
        assert anomalies == []  # job/1 has only one flag
        assert detector.violations_for("job/0") == 2
        assert detector.violations_for("job/1") == 1

    def test_anomaly_event_fields(self):
        detector = OutlierDetector()
        anomalies = detector.observe_samples(
            [make_sample(t=60 * minute, cpi=2.5, jobname="search")
             for minute in range(1, 4)], SPEC)
        [anomaly] = anomalies
        assert anomaly.jobname == "search"
        assert anomaly.taskname == "search/0"
        assert anomaly.platforminfo == "westmere-2.6"
        assert anomaly.cpi == 2.5
        assert anomaly.threshold == pytest.approx(1.2)
        assert anomaly.time_seconds == 180
        assert anomaly.first_flag_seconds == 60


class TestConfigurability:
    def test_custom_sigma(self):
        detector = OutlierDetector(CpiConfig(outlier_stddevs=3.0))
        detector.observe_samples([make_sample(t=60, cpi=1.25)], SPEC)
        assert detector.violations_for("job/0") == 0  # 1.25 < 1.0 + 3*0.1

    def test_one_shot_anomaly_config(self):
        detector = OutlierDetector(CpiConfig(anomaly_violations=1))
        anomalies = detector.observe_samples([make_sample(t=60, cpi=2.0)],
                                             SPEC)
        assert len(anomalies) == 1

    def test_forget_task(self):
        detector = OutlierDetector()
        detector.observe_samples([make_sample(t=60, cpi=2.0)], SPEC)
        detector.forget_task("job/0")
        assert detector.violations_for("job/0") == 0


class TestWindowRuleOracle:
    """observe_samples against a brute-force scan of the paper's rule."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_declares_iff_enough_flags_in_window(self, data):
        config = CpiConfig(
            anomaly_violations=data.draw(st.integers(1, 4), label="k"),
            anomaly_window=data.draw(st.sampled_from([60, 180, 300]),
                                     label="window"))
        spec = data.draw(st.sampled_from([
            SPEC, make_spec(cpi_mean=math.nan), None]), label="spec")
        rows, t = [], 0
        for i in range(data.draw(st.integers(1, 40), label="n")):
            # Non-decreasing timestamps, repeats included.
            t += data.draw(st.sampled_from([0, 1, 30, 60, 120, 301]),
                           label=f"dt{i}")
            rows.append(make_sample(
                t=t, taskname=data.draw(st.sampled_from(["a/0", "b/0"]),
                                        label=f"task{i}"),
                cpu_usage=data.draw(st.sampled_from([0.1, 0.25, 1.0]),
                                    label=f"usage{i}"),
                cpi=data.draw(st.sampled_from([0.9, 1.2, 1.3, 3.0]),
                              label=f"cpi{i}")))
        threshold = (spec.outlier_threshold(config.outlier_stddevs)
                     if spec is not None else None)

        def flagged(sample):
            return (spec is not None
                    and sample.cpu_usage >= config.min_cpu_usage
                    and not sample.cpi <= threshold)

        expected = []
        for i, row in enumerate(rows):
            if not flagged(row):
                continue
            t_i = int(row.timestamp_seconds)
            # Every flagged row of the task so far (this one included)
            # inside the closed window [t - window, t].
            in_window = [int(prev.timestamp_seconds) for prev in rows[:i + 1]
                         if prev.taskname == row.taskname and flagged(prev)
                         and t_i - config.anomaly_window
                         <= int(prev.timestamp_seconds) <= t_i]
            if len(in_window) >= config.anomaly_violations:
                expected.append((row.taskname, t_i, len(in_window),
                                 min(in_window)))
        got = [(a.taskname, a.time_seconds, a.violations,
                a.first_flag_seconds)
               for a in OutlierDetector(config).observe_samples(rows, spec)]
        assert got == expected
