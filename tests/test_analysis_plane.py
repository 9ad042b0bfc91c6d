"""Golden-parity tests for the vectorized analysis plane.

The matrix identification path, the batch outlier detector, the columnar
task windows, and the parallel trial runner must all be **bit-identical**
to their scalar references (``tests/reference/identify.py``,
``tests/reference/outlier.py``, ``tests/reference/ingest.py``): same sample streams, same
incidents, same suspect rankings, same counters.  Floats are compared via
``float.hex()`` so "close enough" can never creep in, mirroring
``test_tick_parity.py`` for the simulation plane.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cgroup import USAGE_HISTORY_SECONDS, Cgroup
from repro.cluster.task import TaskState
from repro.core.agent import MachineAgent
from repro.core.config import CpiConfig
from repro.core.identify import (rank_cotenant_suspects,
                                 rank_suspects_matrix, suspect_usage_matrix)
from repro.core.outlier import OutlierDetector
from repro.core.window import WINDOW_CAPACITY, ColumnarWindow, WindowStore
from repro.experiments.scenarios import demo_scenario
from repro.obs import Observability
from repro.obs.exposition import render_prometheus
from repro.perf.sampler import CpiSampler, SamplerConfig
from repro.records import CpiSample, SpecKey
from repro.testing import make_quiet_machine, make_scripted_job
from tests.conftest import make_sample, make_spec
from tests.reference import identify as reference_identify
from tests.reference import ingest as reference_ingest
from tests.reference import outlier as reference_outlier


def _hex(x) -> str:
    return float(x).hex()


# ---------------------------------------------------------------------------
# Columnar task windows


class TestColumnarWindow:
    def _fill(self, n, start_t=60):
        window = ColumnarWindow("job/0")
        originals = []
        for i in range(n):
            sample = make_sample(t=start_t + 60 * i, cpu_usage=0.5 + i * 0.01,
                                 cpi=1.0 + i * 0.001, taskname="job/0")
            window.append_sample(sample)
            originals.append(sample)
        return window, originals

    def test_samples_round_trip_field_equal(self):
        window, originals = self._fill(10)
        assert window.samples == originals

    def test_eviction_keeps_newest_capacity_samples(self):
        n = WINDOW_CAPACITY + 17
        window, originals = self._fill(n)
        assert len(window) == WINDOW_CAPACITY
        assert window.samples == originals[-WINDOW_CAPACITY:]

    def test_compaction_past_buffer_end(self):
        # Append enough to wrap the 2x-capacity buffers several times.
        n = WINDOW_CAPACITY * 5 + 3
        window, originals = self._fill(n)
        assert window.samples == originals[-WINDOW_CAPACITY:]

    def test_views_match_sample_fields(self):
        window, originals = self._fill(8)
        assert window.timestamps_us.tolist() == [s.timestamp
                                                 for s in originals]
        assert window.timestamps_sec.tolist() == [
            int(s.timestamp_seconds) for s in originals]
        assert [_hex(u) for u in window.cpu_usage.tolist()] == [
            _hex(s.cpu_usage) for s in originals]
        assert [_hex(c) for c in window.cpi.tolist()] == [
            _hex(s.cpi) for s in originals]

    def test_from_samples_round_trip(self):
        _window, originals = self._fill(12)
        rebuilt = ColumnarWindow.from_samples("job/0", iter(originals))
        assert rebuilt.samples == originals


class TestWindowStore:
    """Batch appends into shared rows == a deque per task."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_append_rows_matches_a_deque_per_task(self, data):
        capacity = data.draw(st.integers(1, 4), label="capacity")
        store = WindowStore(capacity)
        windows: dict = {}
        expected: dict = {}
        released = []
        names = [f"t{i}" for i in range(6)]
        for step in range(data.draw(st.integers(1, 25), label="steps")):
            chosen = data.draw(st.lists(st.sampled_from(names), unique=True),
                               label="batch")
            for name in chosen:
                if name not in windows:
                    windows[name] = store.window(name)
                    expected[name] = deque(maxlen=capacity)
            batch = [windows[name] for name in chosen]
            if data.draw(st.booleans(), label="scalar"):
                for i, window in enumerate(batch):
                    window.append(1_000_000 * step + i, step, 0.5 + step,
                                  1.0 + i / 8, window.taskname.upper(), "p")
            else:
                store.append_rows(
                    batch,
                    np.array([1_000_000 * step + i
                              for i in range(len(batch))]),
                    np.full(len(batch), step),
                    np.array([0.5 + step for _ in batch]),
                    np.array([1.0 + i / 8 for i in range(len(batch))]),
                    [(name.upper(), "p") for name in chosen])
            for i, name in enumerate(chosen):
                expected[name].append(CpiSample(
                    jobname=name.upper(), platforminfo="p",
                    timestamp=1_000_000 * step + i, cpu_usage=0.5 + step,
                    cpi=1.0 + i / 8, taskname=name))
            gone = data.draw(st.sampled_from([None] + sorted(windows)),
                             label="release")
            if gone is not None:
                # A released window keeps its samples; its row is reused.
                store.release(windows[gone])
                released.append((windows.pop(gone),
                                 list(expected.pop(gone))))
        for name, window in windows.items():
            assert window.samples == list(expected[name])
            assert window.timestamps_sec.tolist() == [
                int(s.timestamp_seconds) for s in expected[name]]
        for window, samples in released:
            assert window.samples == samples


# ---------------------------------------------------------------------------
# Cgroup usage window view


class TestUsageWindowView:
    def _charged(self, n, start=0):
        cgroup = Cgroup("job/0", 4.0)
        rng = np.random.default_rng(7)
        for i in range(n):
            cgroup.charge(start + i, float(rng.uniform(0.0, 3.0)))
        return cgroup

    def _assert_view_matches_usage_between(self, cgroup, start, end,
                                           duration=10):
        view = cgroup.usage_window_view(start, end)
        for t in range(start + duration, end + 1, duration):
            total = 0.0
            for u in view[t - duration - start:t - start].tolist():
                total += u
            assert _hex(total / duration) == _hex(
                cgroup.usage_between(t - duration, t))

    def test_view_matches_usage_between(self):
        cgroup = self._charged(120)
        self._assert_view_matches_usage_between(cgroup, 40, 120)

    def test_view_matches_after_ring_wrap(self):
        n = USAGE_HISTORY_SECONDS + 250
        cgroup = self._charged(n)
        self._assert_view_matches_usage_between(cgroup, n - 300, n)

    def test_window_beyond_history_reads_zero(self):
        cgroup = self._charged(50)
        view = cgroup.usage_window_view(-30, 50)
        assert (view[:30] == 0.0).all()
        assert _hex(sum(view[:40].tolist()) / 40) == _hex(
            cgroup.usage_between(-30, 10))

    def test_never_charged_reads_all_zero(self):
        cgroup = Cgroup("idle/0", 1.0)
        view = cgroup.usage_window_view(0, 60)
        assert (view == 0.0).all()

    def test_gap_zero_fills_skipped_seconds(self):
        n = USAGE_HISTORY_SECONDS + 20
        cgroup = self._charged(n)
        before = cgroup.usage_window_view(n - 40, n)
        # Skip seconds n .. n+4, whose ring slots hold seconds n-900 ..
        # n-896 until the gap zero-fills them.
        cgroup.charge(n + 5, 1.0)
        view = cgroup.usage_window_view(n - 40, n + 7)
        assert view[:40].tolist() == before.tolist()
        assert view[40:].tolist() == [0.0] * 5 + [1.0, 0.0]
        cgroup.charge(n + 6, 1.0)  # consecutive again
        self._assert_view_matches_usage_between(cgroup, n - 33, n + 7,
                                                duration=5)
        assert cgroup.usage_between(n, n + 7) == pytest.approx(2.0 / 7)

    def test_empty_window_raises(self):
        cgroup = self._charged(5)
        with pytest.raises(ValueError, match="empty window"):
            cgroup.usage_window_view(10, 10)


class TestSuspectUsageMatrix:
    def test_matrix_matches_usage_between(self):
        rng = np.random.default_rng(11)
        cgroups = [Cgroup(f"s{i}/0", 4.0) for i in range(5)]
        for cgroup in cgroups:
            for t in range(300):
                cgroup.charge(t, float(rng.uniform(0.0, 2.5)))
        # Suspect 3 skips seconds 300..304: its ring zero-fills them, and
        # the matrix reads it like every other suspect.
        cgroups[3].charge(305, 1.0)
        timestamps = [150, 160, 170, 230, 290, 310]
        duration = 10
        matrix = suspect_usage_matrix(cgroups, timestamps, duration)
        assert matrix.shape == (5, 6)
        for s, cgroup in enumerate(cgroups):
            for k, t in enumerate(timestamps):
                assert _hex(matrix[s, k]) == _hex(
                    cgroup.usage_between(t - duration, t))
        assert matrix[:, -1].tolist() == [0.0, 0.0, 0.0, 0.1, 0.0]

    def test_empty_inputs(self):
        assert suspect_usage_matrix([], [100], 10).shape == (0, 1)
        assert suspect_usage_matrix([Cgroup("a/0", 1.0)], [], 10).shape == (1, 0)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError, match="duration must be >= 1"):
            suspect_usage_matrix([], [100], 0)


# ---------------------------------------------------------------------------
# Matrix suspect ranking vs the scalar reference


def _scalar_vs_matrix(victim_cpi, threshold, names_jobs, usage_rows):
    suspects = {name: (job, list(row))
                for (name, job), row in zip(names_jobs, usage_rows)}
    expected = reference_identify.rank_suspects(victim_cpi, threshold,
                                                suspects)
    got = rank_suspects_matrix(victim_cpi, threshold, names_jobs,
                               np.asarray(usage_rows, dtype=np.float64))
    assert [(s.taskname, s.jobname, _hex(s.correlation))
            for s in expected] == [
        (s.taskname, s.jobname, _hex(s.correlation)) for s in got]


class TestRankSuspectsMatrixParity:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_reference(self, data):
        n_points = data.draw(st.integers(1, 12), label="points")
        n_suspects = data.draw(st.integers(1, 8), label="suspects")
        threshold = data.draw(st.floats(0.1, 10.0), label="threshold")
        # Victim CPI values land below, above, or *exactly at* the
        # threshold (the exactly-at case must be skipped, not + 0.0).
        victim = [
            data.draw(st.one_of(
                st.just(threshold),
                st.floats(0.0, 20.0, allow_nan=False)))
            for _ in range(n_points)
        ]
        usage_rows = [
            [data.draw(st.floats(0.0, 50.0, allow_nan=False))
             for _ in range(n_points)]
            for _ in range(n_suspects)
        ]
        names_jobs = [(f"s{i}/0", f"job-{i % 3}")
                      for i in range(n_suspects)]
        _scalar_vs_matrix(victim, threshold, names_jobs, usage_rows)

    def test_zero_usage_suspects_score_zero(self):
        names_jobs = [("idle-b/0", "idle"), ("idle-a/0", "idle")]
        usage = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        _scalar_vs_matrix([2.0, 3.0, 1.0], 1.5, names_jobs, usage)
        ranked = rank_suspects_matrix([2.0, 3.0, 1.0], 1.5, names_jobs,
                                      np.asarray(usage))
        assert [s.taskname for s in ranked] == ["idle-a/0", "idle-b/0"]
        assert all(s.correlation == 0.0 for s in ranked)

    def test_constant_victim_cpi(self):
        # Every sample exactly at threshold: all terms skipped, all zero.
        _scalar_vs_matrix([2.0, 2.0, 2.0], 2.0,
                          [("a/0", "a"), ("b/0", "b")],
                          [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])

    def test_at_threshold_sample_is_skipped_not_added(self):
        # Only a non-finite usage tells a skipped term from "+ 0.0": the
        # reference never evaluates inf / inf * 0.0, which would be NaN.
        _scalar_vs_matrix([2.0, 3.0, 1.0], 2.0, [("a/0", "a"), ("b/0", "b")],
                          [[float("inf"), 1.0, 2.0], [1.0, 1.0, 1.0]])

    def test_single_point_window(self):
        _scalar_vs_matrix([3.0], 1.0, [("a/0", "a"), ("b/0", "b")],
                          [[0.5], [2.0]])

    def test_tie_break_is_deterministic_by_taskname(self):
        row = [1.0, 2.0, 0.5]
        names_jobs = [("z/0", "z"), ("m/0", "m"), ("a/0", "a")]
        _scalar_vs_matrix([3.0, 0.5, 2.0], 1.5, names_jobs,
                          [row, list(row), list(row)])
        ranked = rank_suspects_matrix([3.0, 0.5, 2.0], 1.5, names_jobs,
                                      np.asarray([row, row, row]))
        assert [s.taskname for s in ranked] == ["a/0", "m/0", "z/0"]

    def test_negative_usage_error_matches_scalar(self):
        victim = [2.0, 3.0]
        usage = [[1.0, 1.0], [1.0, -0.5]]
        names_jobs = [("a/0", "a"), ("b/0", "b")]
        with pytest.raises(ValueError) as scalar_err:
            reference_identify.rank_suspects(
                victim, 1.0, {n: (j, list(r))
                              for (n, j), r in zip(names_jobs, usage)})
        with pytest.raises(ValueError) as matrix_err:
            rank_suspects_matrix(victim, 1.0, names_jobs, np.asarray(usage))
        assert str(matrix_err.value) == str(scalar_err.value)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="usage matrix shape"):
            rank_suspects_matrix([1.0, 2.0], 1.0, [("a/0", "a")],
                                 np.zeros((1, 3)))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="correlation window is empty"):
            rank_suspects_matrix([], 1.0, [("a/0", "a")], np.zeros((1, 0)))

    def test_no_suspects_is_empty(self):
        assert rank_suspects_matrix([1.0], 1.0, [],
                                    np.zeros((0, 1))) == []


class TestRankCotenantSuspects:
    def test_engines_agree_on_live_tasks(self):
        from repro.cluster.interference import ResourceProfile
        from repro.cluster.job import Job, JobSpec
        from repro.cluster.task import PriorityBand, SchedulingClass
        from repro.testing import make_quiet_machine
        from repro.workloads.base import SyntheticWorkload
        from repro.workloads.demand import constant

        machine = make_quiet_machine()
        rng = np.random.default_rng(3)
        profile = ResourceProfile(cache_mib_per_cpu=1.0,
                                  membw_gbps_per_cpu=0.5)
        for j in range(4):
            job = Job(JobSpec(
                name=f"job-{j}", num_tasks=2,
                scheduling_class=SchedulingClass.BATCH,
                priority_band=PriorityBand.NONPRODUCTION,
                cpu_limit_per_task=2.0,
                workload_factory=lambda index: SyntheticWorkload(
                    base_cpi=1.0, profile=profile,
                    demand=constant(float(rng.uniform(.2, 2))))))
            for task in job.tasks:
                machine.place(task)
        for t in range(120):
            machine.tick(t)
        timestamps = [70, 80, 90, 100, 110, 120]
        victim_cpi = [1.0, 2.5, 1.2, 2.9, 1.1, 3.2]
        results = {}
        for engine, rank in (("scalar",
                              reference_identify.rank_cotenant_suspects),
                             ("vector", rank_cotenant_suspects)):
            scores, suspect_tasks = rank(
                machine.resident_tasks(), "job-0", victim_cpi, timestamps,
                1.5, 10)
            results[engine] = [(s.taskname, s.jobname, _hex(s.correlation))
                               for s in scores]
            # Job-mates of the victim are never suspected.
            assert all(not name.startswith("job-0")
                       for name in suspect_tasks)
            assert len(suspect_tasks) == 6
        assert results["scalar"] == results["vector"]

    def test_no_cotenants(self):
        scores, suspect_tasks = rank_cotenant_suspects(
            [], "victim", [1.0], [100], 1.0, 10)
        assert scores == [] and suspect_tasks == {}


class TestTableGather:
    """The ranking's usage matrix equals the per-timestamp reference
    (``tests/reference/identify.py``) by ``float.hex``, whether every
    suspect is a row of one task table's usage history or not."""

    VICTIM_CPI = (1.0, 2.5, 1.2, 2.9, 1.1, 3.2)

    @staticmethod
    def _machine(name="m0", start=0, stop=300, jobs=4):
        machine = make_quiet_machine(name)
        for j in range(jobs):
            script = [0.1 * ((j * 7 + k * 3) % 11) for k in range(13)]
            for task in make_scripted_job(f"{name}-job-{j}", script,
                                          num_tasks=2, cpu_limit=2.0).tasks:
                machine.place(task)
        for t in range(start, stop):
            machine.tick(t)
        return machine

    def _assert_parity(self, tasks, timestamps):
        victim_job = tasks[0].job.name
        cpi = self.VICTIM_CPI[:len(timestamps)]
        scores, suspects = rank_cotenant_suspects(
            tasks, victim_job, cpi, timestamps, 1.5, 10)
        expected, expected_suspects = \
            reference_identify.rank_cotenant_suspects(
                tasks, victim_job, cpi, timestamps, 1.5, 10)
        assert [(s.taskname, s.jobname, _hex(s.correlation))
                for s in scores] == [
            (s.taskname, s.jobname, _hex(s.correlation)) for s in expected]
        assert suspects == expected_suspects
        cgroups = [task.cgroup for task in tasks]
        matrix = suspect_usage_matrix(cgroups, timestamps, 10)
        assert [[_hex(u) for u in row] for row in matrix.tolist()] == [
            [_hex(cgroup.usage_between(t - 10, t)) for t in timestamps]
            for cgroup in cgroups]

    def test_rows_on_the_table_clock_are_gathered(self):
        machine = self._machine()
        assert machine._table.usage.last == 299
        self._assert_parity(machine.resident_tasks(),
                            [150, 160, 233, 250, 290, 300])

    def test_table_rebuilt_before_its_first_charge_reads_rings(self):
        # The rebuilt table's history takes the latest of its rows'
        # clocks; the new task's row is all zeros.
        machine = self._machine()
        machine.remove(machine.resident_tasks()[-1].name, TaskState.COMPLETED)
        for task in make_scripted_job("late", [0.7, 0.2], num_tasks=1,
                                      cpu_limit=2.0).tasks:
            machine.place(task)
        assert machine._task_table().usage.last == 299
        self._assert_parity(machine.resident_tasks(),
                            [150, 160, 233, 250, 290, 300])

    def test_seconds_outside_the_history_read_zero(self):
        # Charged 1000 .. 2199: windows before the first charge, older
        # than the 900-second history, straddling its edge, and after the
        # last charge all read 0.0 for their missing seconds.
        machine = self._machine(start=1000, stop=2200)
        timestamps = [1005, 1200, 1305, 2100, 2205, 2300]
        self._assert_parity(machine.resident_tasks(), timestamps)
        matrix = suspect_usage_matrix(
            [task.cgroup for task in machine.resident_tasks()],
            timestamps, 10)
        assert not matrix[:, [1, 5]].any()

    def test_cgroups_of_two_tables_read_rings(self):
        first = self._machine("m0", jobs=2)
        second = self._machine("m1", jobs=2)
        tasks = first.resident_tasks() + second.resident_tasks()
        self._assert_parity(tasks, [150, 160, 233, 250, 290, 300])


@pytest.mark.xfail(strict=True, reason=(
    "a sample at t carries usage over seconds t-9..t (the sampler reads "
    "usage_between(start + 1, end + 1)), but identification pairs its CPI "
    "with usage over [t - 10, t); aligning them changes every incident "
    "digest and the paper outputs, so it waits for a re-baseline"))
def test_victim_window_usage_is_its_identification_usage():
    machine = make_quiet_machine()
    task = make_scripted_job("victim", [0.2, 1.4, 0.6, 1.0, 0.3, 1.7, 0.9],
                             cpu_limit=2.0).tasks[0]
    machine.place(task)
    sampler = CpiSampler(machine, SamplerConfig(10, 60))
    samples = []
    for t in range(130):
        machine.tick(t)
        samples += sampler.tick(t)
    assert len(samples) == 2
    for sample in samples:
        t = int(sample.timestamp_seconds)
        usage = suspect_usage_matrix([task.cgroup], [t], 10)
        assert _hex(sample.cpu_usage) == _hex(usage[0, 0])


# ---------------------------------------------------------------------------
# Batch outlier detection vs per-sample observation


def _canon_anomaly(anomaly):
    return (anomaly.taskname, anomaly.jobname, anomaly.platforminfo,
            anomaly.time_seconds, _hex(anomaly.cpi), _hex(anomaly.threshold),
            anomaly.violations, anomaly.first_flag_seconds)


def _detector_state(detector):
    return (detector.samples_seen, detector.samples_skipped_low_usage,
            detector.samples_skipped_no_spec, detector.export_flags())


def _observe_batch(detector, samples, specs, config):
    """Drive observe_batch with the arrays the agent would build."""
    n = len(samples)
    tasknames, task_index = [], {}
    keys, key_index = [], {}
    ts = np.empty(n, dtype=np.int64)
    cpi = np.empty(n)
    usage = np.empty(n)
    thresholds = np.zeros(n)
    has_spec = np.zeros(n, dtype=bool)
    task_code = np.empty(n, dtype=np.int64)
    key_code = np.empty(n, dtype=np.int64)
    for i, sample in enumerate(samples):
        ts[i] = int(sample.timestamp_seconds)
        cpi[i] = sample.cpi
        usage[i] = sample.cpu_usage
        code = task_index.setdefault(sample.taskname, len(tasknames))
        if code == len(tasknames):
            tasknames.append(sample.taskname)
        task_code[i] = code
        kcode = key_index.setdefault(sample.key(), len(keys))
        if kcode == len(keys):
            keys.append(sample.key())
        key_code[i] = kcode
        spec = specs.get(sample.key())
        if spec is not None:
            has_spec[i] = True
            thresholds[i] = spec.outlier_threshold(config.outlier_stddevs)
    return detector.observe_batch(ts, cpi, usage, thresholds, has_spec,
                                  task_code, tasknames, key_code, keys)


def _assert_batch_matches_scalar(samples, specs, config):
    scalar = OutlierDetector(config)
    expected = []
    for i, sample in enumerate(samples):
        anomaly = reference_outlier.observe(scalar, sample,
                                            specs.get(sample.key()))
        if anomaly is not None:
            expected.append((i, _canon_anomaly(anomaly)))
    batch = OutlierDetector(config)
    got = [(row, _canon_anomaly(anomaly))
           for row, anomaly in _observe_batch(batch, samples, specs, config)]
    assert got == expected
    assert _detector_state(batch) == _detector_state(scalar)


class TestObserveBatchParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_sample_observe(self, data):
        config = CpiConfig()
        jobs = ["alpha", "beta", "gamma"]
        specs = {}
        for job in jobs:
            if data.draw(st.booleans(), label=f"spec-{job}"):
                spec = make_spec(jobname=job, cpi_mean=1.0, cpi_stddev=0.2)
                specs[spec.key()] = spec
        n = data.draw(st.integers(1, 50), label="n")
        samples, t = [], 60
        for i in range(n):
            t += data.draw(st.integers(0, 120), label=f"dt{i}")
            job = data.draw(st.sampled_from(jobs), label=f"job{i}")
            samples.append(make_sample(
                jobname=job, t=t,
                cpu_usage=data.draw(st.floats(0.0, 2.0), label=f"u{i}"),
                cpi=data.draw(st.floats(0.1, 4.0), label=f"c{i}"),
                taskname=f"{job}/{data.draw(st.integers(0, 1))}"))
        _assert_batch_matches_scalar(samples, specs, config)

    def test_streak_expiry_at_exact_window_boundary(self, config):
        # A flag exactly anomaly_window seconds old still counts (expiry
        # is strict: flags[0] < horizon), one second older does not.
        spec = make_spec(jobname="job", cpi_mean=1.0, cpi_stddev=0.1)
        specs = {spec.key(): spec}
        t0 = 600
        half = config.anomaly_window // 2
        hot = dict(jobname="job", cpu_usage=1.0, cpi=5.0)
        samples = [
            make_sample(t=t0, **hot),
            make_sample(t=t0 + half, **hot),
            make_sample(t=t0 + config.anomaly_window, **hot),
            make_sample(t=t0 + config.anomaly_window + half, **hot),
        ]
        _assert_batch_matches_scalar(samples, specs, config)
        detector = OutlierDetector(config)
        anomalies = _observe_batch(detector, samples, specs, config)
        # Third flag: the first is exactly window-old, so 3-in-window fires
        # with the episode anchored at t0.  Fourth: t0 has aged out.
        assert [(row, a.violations, a.first_flag_seconds)
                for row, a in anomalies] == [
            (2, 3, t0), (3, 3, t0 + half)]

    def test_nan_threshold_flags_like_scalar(self, config):
        # A NaN threshold compares False for <=, so the sample flags in
        # both implementations.
        spec = make_spec(jobname="job", cpi_mean=float("nan"),
                         cpi_stddev=0.1)
        specs = {spec.key(): spec}
        samples = [make_sample(t=600 + i, jobname="job", cpu_usage=1.0,
                               cpi=1.0) for i in range(4)]
        _assert_batch_matches_scalar(samples, specs, config)


# ---------------------------------------------------------------------------
# End-to-end: the full pipeline, scalar references vs production, clean and
# under chaos


def _canon_incidents(pipeline):
    # incident_id is a process-global sequence; compare positions, not ids.
    return [(i.time_seconds, i.victim_taskname,
             _hex(i.victim_cpi), i.decision.action.value,
             i.decision.target.name if i.decision.target else None,
             [(s.taskname, _hex(s.correlation)) for s in i.suspects])
            for i in pipeline.all_incidents()]


def _canon_counters(pipeline):
    return sorted((c.name, tuple(sorted(c.labels)), c.value)
                  for c in pipeline.obs.metrics.counters())


def _canon_windows(pipeline):
    return {
        (name, task): [(s.timestamp, _hex(s.cpu_usage), _hex(s.cpi),
                        s.jobname, s.platforminfo)
                       for s in window.samples]
        for name, agent in pipeline.agents.items()
        for task, window in agent._windows.items()
    }


def _run_demo(engine, fault_profile="none", minutes=20):
    """The demo on the scalar references (per-sample ingest, per-timestamp
    co-tenant ranking) or on production code."""
    scenario = demo_scenario(seed=7, fault_profile=fault_profile,
                             fault_seed=3)
    with pytest.MonkeyPatch.context() as patch:
        if engine == "scalar":
            reference_ingest.install(patch)
            reference_identify.install(patch)
            assert MachineAgent.ingest_samples is \
                reference_ingest.ingest_samples
        scenario.simulation.run_minutes(minutes)
    pipeline = scenario.pipeline
    detectors = [(_detector_state(agent.detector))
                 for agent in pipeline.agents.values()]
    return (_canon_incidents(pipeline), _canon_counters(pipeline),
            _canon_windows(pipeline), detectors)


class TestGoldenPipelineParity:
    @pytest.mark.parametrize("fault_profile", ["none", "moderate"])
    def test_scalar_and_vector_trajectories_identical(self, fault_profile):
        scalar = _run_demo("scalar", fault_profile)
        vector = _run_demo("vector", fault_profile)
        for name, s, v in zip(("incidents", "counters", "windows",
                               "detectors"), scalar, vector):
            assert s == v, f"{fault_profile}: {name} diverged"
        assert scalar[0], "expected at least one incident in the demo"


class TestReferenceIngestParity:
    """Columnar ingest == the per-sample reference on small windows."""

    JOBS = ("alpha", "beta", "gamma", "delta")
    TASKS = tuple(f"{job}/{i}" for job in JOBS for i in range(5))
    BOUND = CpiConfig().quarantine_cpi_bound
    #: Plausible values on both sides of the spec's 1.4 threshold (mostly
    #: above, so streaks reach anomalies), plus each kind of damage the
    #: quarantine ladder names.
    CPI = (1.0, 1.6, 2.5, 2.5, 2.5, 2.5, 2.5, float("nan"), float("inf"),
           0.0, 2 * BOUND)
    USAGE = (0.1, 1.0, 1.0, 1.0, 2.0, 2.0, float("nan"), float("inf"))

    def _agent(self, spec_jobs, degraded):
        machine = make_quiet_machine()
        for job in self.JOBS:
            for task in make_scripted_job(job, [1.0], num_tasks=5):
                machine.place(task)
        agent = MachineAgent(machine, CpiConfig(), obs=Observability())
        config = agent.config
        ttl = config.spec_ttl_periods * config.spec_refresh_period
        agent.update_specs(
            {SpecKey(job, machine.platform.name):
             make_spec(jobname=job, cpi_mean=1.0, cpi_stddev=0.2)
             for job in spec_jobs},
            now=-int(ttl) - 1 if degraded else 0)
        return agent

    @staticmethod
    def _state(agent):
        incidents = [(i.time_seconds, i.victim_taskname, _hex(i.victim_cpi),
                      _hex(i.cpi_threshold), i.decision.action.value,
                      [(s.taskname, _hex(s.correlation))
                       for s in i.suspects])
                     for i in agent.incidents]
        windows = {task: [(s.timestamp, _hex(s.cpu_usage), _hex(s.cpi),
                           s.jobname, s.platforminfo)
                          for s in window.samples]
                   for task, window in agent._windows.items()}
        counters = sorted((c.name, tuple(sorted(c.labels)), c.value)
                          for c in agent.obs.metrics.counters())
        return (incidents, windows, _detector_state(agent.detector),
                counters, agent.degraded)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_columnar_ingest_matches_per_sample_loop(self, data):
        spec_jobs = data.draw(st.sets(st.sampled_from(self.JOBS)),
                              label="spec_jobs")
        degraded = data.draw(st.booleans(), label="degraded")
        # One task order for the whole run, so the first tasks recur in
        # every window and can build detector streaks.
        tasks = data.draw(st.permutations(self.TASKS), label="tasks")
        windows = []
        for k in range(data.draw(st.integers(1, 8), label="windows")):
            t = 60 * (k + 1)
            n = data.draw(st.integers(1, 20), label="n")
            windows.append((t, [
                make_sample(jobname=task.split("/")[0], taskname=task, t=t,
                            cpu_usage=data.draw(st.sampled_from(self.USAGE)),
                            cpi=data.draw(st.sampled_from(self.CPI)))
                for task in tasks[:n]]))

        def run():
            agent = self._agent(spec_jobs, degraded)
            events = []
            agent.obs.events.add_sink(events.append)
            for t, samples in windows:
                agent.ingest_samples(t, samples)
            # Quarantine events lead a window's detection events in
            # production and interleave with them in the reference;
            # incident ids are a process-wide sequence.
            detection = [{k: v for k, v in event.items()
                          if k != "incident_id"}
                         for event in events
                         if event["event"] != "sample_quarantined"]
            return self._state(agent), detection

        production = run()
        with pytest.MonkeyPatch.context() as patch:
            reference_ingest.install(patch)
            reference = run()
        assert production == reference


def test_agent_without_anomalies_exports_no_anomaly_series():
    """The agent resolves its instruments at first use, so an agent that
    never declared an anomaly adds no zero-valued series."""
    obs = Observability()
    machine = make_quiet_machine()
    for task in make_scripted_job("calm", [1.0], num_tasks=3).tasks:
        machine.place(task)
    agent = MachineAgent(machine, CpiConfig(), obs=obs)
    agent.update_specs({SpecKey("calm", machine.platform.name):
                        make_spec(jobname="calm", cpi_mean=1.0,
                                  cpi_stddev=0.2)})
    for t in (60, 120, 180, 240):
        agent.ingest_samples(t, [
            make_sample(jobname="calm", taskname=task.name, t=t,
                        cpu_usage=1.0, cpi=1.0)
            for task in machine.resident_tasks()])
    assert agent.anomalies_seen == 0 and len(agent._windows) == 3
    assert obs.metrics.counters("anomalies_detected") == []
    assert obs.metrics.counters("analyses_dropped") == []
    assert obs.metrics.counters("analyses_rate_limited") == []
    assert obs.metrics.histograms("victim_cpi") == []
    exposition = render_prometheus(obs.metrics)
    for family in ("anomalies_detected", "analyses_dropped", "victim_cpi"):
        assert family not in exposition


# ---------------------------------------------------------------------------
# Parallel trials and experiments


class TestParallelTrials:
    FAST = None  # initialised lazily to keep import cheap

    @classmethod
    def _fast_config(cls):
        from repro.experiments.trials import TrialConfig

        if cls.FAST is None:
            cls.FAST = TrialConfig(calibration_seconds=300,
                                   interference_seconds=360,
                                   cap_seconds=120)
        return cls.FAST

    def test_parallel_identical_to_serial(self):
        from repro.experiments.trials import run_trials

        config = self._fast_config()
        serial = run_trials(4, config, seed_base=5)
        # min_per_job=0 forces real fan-out: 4 trials across 2 workers
        # would otherwise take the documented serial fallback.
        parallel = run_trials(4, config, seed_base=5, jobs=2, min_per_job=0)
        assert [repr(t) for t in parallel] == [repr(t) for t in serial]

    def test_short_corpus_falls_back_to_serial(self):
        from repro.experiments.trials import run_trials
        from repro.obs import default_observability

        config = self._fast_config()
        registry = default_observability().metrics
        before = registry.value("trials_serial_fallback") or 0
        run_trials(2, config, seed_base=5, jobs=2)
        assert (registry.value("trials_serial_fallback") or 0) == before + 1

    def test_trial_identical_across_engines(self, monkeypatch):
        from repro.experiments.trials import run_trial

        config = self._fast_config()
        with monkeypatch.context() as patch:
            reference_identify.install(patch)
            scalar = run_trial(9, config)
        vector = run_trial(9, config)
        assert repr(vector) == repr(scalar)

    def test_bad_jobs_rejected(self):
        from repro.experiments.trials import run_trials

        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_trials(2, jobs=0)


class TestRunExperiments:
    def test_unknown_name_raises_before_running(self):
        from repro.experiments.registry import run_experiments

        with pytest.raises(KeyError, match="unknown experiment 'nope'"):
            run_experiments(["table2", "nope"], jobs=2)

    def test_parallel_reports_in_input_order(self):
        from repro.experiments.registry import run_experiment, run_experiments

        pairs = run_experiments(["table2", "table2"], jobs=2)
        assert [name for name, _ in pairs] == ["table2", "table2"]
        reference = run_experiment("table2")
        for _name, report in pairs:
            assert report.experiment == reference.experiment
            assert len(report.rows) == len(reference.rows)

    def test_jobs_clamped_to_work(self):
        from repro.experiments.registry import run_experiments

        (name, report), = run_experiments(["table2"], jobs=8)
        assert name == "table2" and report is not None


# ---------------------------------------------------------------------------
# CLI --jobs clamping


class TestJobsClamp:
    def test_oversubscribed_jobs_clamped_with_warning(self, monkeypatch,
                                                      capsys):
        from repro import cli
        from repro.obs import Observability, set_default_observability

        obs = Observability()
        set_default_observability(obs)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli._effective_jobs(8) == 2
        err = capsys.readouterr().err
        assert "--jobs 8" in err and "clamping to 2" in err
        clamped = [c for c in obs.metrics.counters()
                   if c.name == "shard_jobs_clamped"]
        assert len(clamped) == 1 and clamped[0].value == 1

    def test_within_budget_passes_through_silently(self, monkeypatch,
                                                   capsys):
        from repro import cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli._effective_jobs(4) == 4
        assert cli._effective_jobs(1) == 1
        assert capsys.readouterr().err == ""

    def test_cpu_count_unknown_falls_back_to_one(self, monkeypatch, capsys):
        from repro import cli
        from repro.obs import Observability, set_default_observability

        set_default_observability(Observability())
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._effective_jobs(3) == 1
        assert "clamping to 1" in capsys.readouterr().err

    def test_experiment_parser_accepts_jobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "table2", "--jobs", "3"])
        assert args.jobs == 3
