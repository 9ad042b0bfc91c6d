"""Unit tests for repro.cluster.cgroup (CFS bandwidth control model)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cgroup import USAGE_HISTORY_SECONDS, BandwidthCap, Cgroup
from repro.cluster.demandplane import DemandColumns
from repro.cluster.fused import FusedFleet
from repro.cluster.job import Job, JobSpec
from repro.cluster.machine import _TaskTable
from repro.cluster.task import PriorityBand, SchedulingClass, TaskState
from repro.perf.counters import CounterBank
from repro.testing import (QUIET_PROFILE, ScriptedWorkload,
                           make_quiet_machine, make_scripted_job)
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant, scaled
from tests.reference.usage_history import DequeUsageHistory


class TestBandwidthCap:
    def test_active_window(self):
        cap = BandwidthCap(quota=0.1, expires_at=100)
        assert cap.active_at(0)
        assert cap.active_at(99)
        assert not cap.active_at(100)

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError, match="quota"):
            BandwidthCap(quota=-0.1, expires_at=10)

    def test_nan_quota_rejected(self):
        with pytest.raises(ValueError, match="quota"):
            BandwidthCap(quota=float("nan"), expires_at=10)
        with pytest.raises(ValueError, match="quota"):
            Cgroup("job/0", cpu_limit=2.0).apply_cap(float("nan"), 0, 10)


class TestCgroup:
    def test_limit_enforced(self):
        cg = Cgroup("job/0", cpu_limit=2.0)
        assert cg.allowed_usage(5.0, t=0) == 2.0
        assert cg.allowed_usage(1.5, t=0) == 1.5

    def test_cap_tightens_allowance(self):
        cg = Cgroup("job/0", cpu_limit=2.0)
        cg.apply_cap(quota=0.1, now=0, duration=300)
        assert cg.allowed_usage(5.0, t=0) == pytest.approx(0.1)
        assert cg.is_capped(0)

    def test_cap_expires(self):
        cg = Cgroup("job/0", cpu_limit=2.0)
        cg.apply_cap(quota=0.1, now=0, duration=300)
        assert cg.allowed_usage(5.0, t=300) == 2.0
        assert not cg.is_capped(300)

    def test_cap_at_drops_lazily(self):
        cg = Cgroup("job/0", cpu_limit=2.0)
        cg.apply_cap(quota=0.1, now=0, duration=10)
        assert cg.cap_at(5) is not None
        assert cg.cap_at(10) is None
        assert cg.cap_at(5) is None  # already dropped, even for earlier t

    def test_recap_replaces(self):
        cg = Cgroup("job/0", cpu_limit=2.0)
        cg.apply_cap(quota=0.1, now=0, duration=300)
        cg.apply_cap(quota=0.01, now=10, duration=300)
        assert cg.allowed_usage(5.0, t=10) == pytest.approx(0.01)

    def test_release_cap(self):
        cg = Cgroup("job/0", cpu_limit=2.0)
        cg.apply_cap(quota=0.1, now=0, duration=300)
        cg.release_cap()
        assert not cg.is_capped(1)

    def test_paper_quota_semantics(self):
        # "25 ms in each 250 ms window ... corresponds to a cap of
        # 0.1 CPU-sec/sec".  Our quota is directly CPU-sec/sec.
        cg = Cgroup("batch/0", cpu_limit=8.0)
        cg.apply_cap(quota=25e-3 / 250e-3, now=0, duration=300)
        assert cg.allowed_usage(8.0, t=0) == pytest.approx(0.1)

    def test_charge_and_window_average(self):
        cg = Cgroup("job/0", cpu_limit=4.0)
        for t in range(10):
            cg.charge(t, 2.0)
        assert cg.usage_between(0, 10) == pytest.approx(2.0)
        assert cg.usage_between(5, 10) == pytest.approx(2.0)

    def test_window_with_missing_seconds_counts_zero(self):
        cg = Cgroup("job/0", cpu_limit=4.0)
        cg.charge(0, 4.0)
        # seconds 1..3 unrecorded -> zero usage
        assert cg.usage_between(0, 4) == pytest.approx(1.0)

    def test_total_cpu_seconds(self):
        # The ring's sum over the charged span is the lifetime total.
        cg = Cgroup("job/0", cpu_limit=4.0)
        cg.charge(0, 1.5)
        cg.charge(1, 0.5)
        assert cg.usage_between(0, 2) * 2 == pytest.approx(2.0)

    def test_last_usage(self):
        cg = Cgroup("job/0", cpu_limit=4.0)
        assert cg.last_usage() == 0.0
        cg.charge(0, 1.0)
        cg.charge(1, 3.0)
        assert cg.last_usage() == 3.0

    def test_empty_window_raises(self):
        cg = Cgroup("job/0", cpu_limit=4.0)
        with pytest.raises(ValueError, match="empty window"):
            cg.usage_between(10, 10)

    def test_negative_inputs_rejected(self):
        cg = Cgroup("job/0", cpu_limit=4.0)
        with pytest.raises(ValueError):
            cg.charge(0, -1.0)
        with pytest.raises(ValueError):
            cg.allowed_usage(-1.0, t=0)
        with pytest.raises(ValueError):
            Cgroup("job/0", cpu_limit=0.0)
        with pytest.raises(ValueError):
            cg.apply_cap(quota=0.1, now=0, duration=0)

    def test_nan_limit_rejected(self):
        with pytest.raises(ValueError, match="cpu_limit"):
            Cgroup("job/0", cpu_limit=float("nan"))

    def test_nan_usage_rejected(self):
        cg = Cgroup("job/0", cpu_limit=4.0)
        with pytest.raises(ValueError, match="usage"):
            cg.charge(0, float("nan"))
        assert cg.usage.last is None


class TestUsageBetweenPaths:
    """Fixed cases of the oracle property below.

    Each pins :meth:`Cgroup.usage_between` against the deque reference
    (``tests/reference/usage_history.py``) by ``float.hex()``: short
    history, mid-window arrival, charges before and after the window, and
    gaps that wrap the ring or outlast it.
    """

    def _charged(self, usages, t0=0):
        cg = Cgroup("job/0", cpu_limit=8.0)
        ref = DequeUsageHistory()
        for i, u in enumerate(usages):
            cg.charge(t0 + i, u)
            ref.charge(t0 + i, u)
        return cg, ref

    def test_later_history_does_not_change_window(self):
        # Irregular values so ordering mistakes can't cancel out.
        usages = [0.1, 2.7, 0.0, 3.3, 1e-3, 4.0, 0.9, 2.2, 0.5, 1.7]
        exact, exact_ref = self._charged(usages)  # history == window
        longer, longer_ref = self._charged(usages + [9.9])
        expected = float(sum(usages) / 10).hex()
        assert exact.usage_between(0, 10).hex() == expected
        assert longer.usage_between(0, 10).hex() == expected
        assert exact_ref.usage_between(0, 10).hex() == expected
        assert longer_ref.usage_between(0, 10).hex() == expected

    def test_history_shorter_than_span_scans(self):
        # 3 charges, 10-second window: the 7 missing seconds count as zero.
        cg, ref = self._charged([1.0, 2.0, 3.0], t0=7)
        assert cg.usage_between(0, 10).hex() == (6.0 / 10).hex()
        assert ref.usage_between(0, 10).hex() == (6.0 / 10).hex()

    def test_mid_window_arrival_scans(self):
        # First charge lands inside the window.
        cg, ref = self._charged([0.5, 1.5, 2.5], t0=5)
        assert cg.usage_between(3, 8).hex() == (4.5 / 5).hex()
        assert ref.usage_between(3, 8).hex() == (4.5 / 5).hex()

    def test_entries_beyond_window_filtered_out(self):
        # History extends past end-1: charges at/after `end` are ignored.
        cg, ref = self._charged([1.0, 2.0, 4.0, 8.0, 16.0])
        expected = ((2.0 + 4.0 + 8.0) / 3).hex()
        assert cg.usage_between(1, 4).hex() == expected
        assert ref.usage_between(1, 4).hex() == expected

    def test_older_history_before_window_ignored(self):
        usages = [0.3, 1.1, 2.9, 0.7, 5.5, 0.2, 3.8, 1.4]
        cg, ref = self._charged(usages)
        expected = float(sum(usages[5:]) / 3).hex()
        assert cg.usage_between(5, 8).hex() == expected
        assert ref.usage_between(5, 8).hex() == expected

    def test_gap_across_ring_wrap_reads_zero(self):
        # Seconds 880..899 charged, 900..919 skipped (ring slots 0..19, which
        # still hold seconds 0..19's usage until the gap zero-fills them).
        cg, ref = self._charged([1.0 + i / 7 for i in range(900)])
        cg.charge(920, 2.5)
        ref.charge(920, 2.5)
        for start, end in [(880, 921), (900, 920), (905, 921)]:
            assert cg.usage_between(start, end).hex() == \
                ref.usage_between(start, end).hex()
        assert cg.usage_between(900, 920) == 0.0

    def test_gap_longer_than_history_forgets_it(self):
        cg, ref = self._charged([3.0] * 50)
        cg.charge(49 + USAGE_HISTORY_SECONDS, 1.0)
        ref.charge(49 + USAGE_HISTORY_SECONDS, 1.0)
        start = 50
        end = 50 + USAGE_HISTORY_SECONDS
        assert cg.usage_between(start, end).hex() == \
            ref.usage_between(start, end).hex()
        # Seconds 0..49 now sit at or below last - 900: no longer retained,
        # although the deque still holds them.
        assert cg.usage_between(0, 50) == 0.0
        assert ref.usage_between(0, 50) == 3.0
        assert not cg.usage_window_view(0, 50).any()


class TestReplayRejected:
    def test_charge_at_or_before_last_second_raises(self):
        cg = Cgroup("job/0", cpu_limit=4.0)
        cg.charge(5, 1.0)
        for t in (5, 3):
            with pytest.raises(ValueError, match=rf"job/0.*second {t}\b.*5"):
                cg.charge(t, 2.0)
        # A rejected charge changes nothing.
        assert cg.usage.last == 5
        assert cg.last_usage() == 1.0
        assert cg.usage_between(0, 10) == 0.1


# One segment of charges: the gap (seconds) from the previous charge, the
# usages it cycles through at consecutive seconds, how many times, and
# whether a machine's tick charges it instead of direct Cgroup.charge calls.
_usage_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
_segments = st.lists(
    st.tuples(st.integers(1, 1200),
              st.lists(_usage_values, min_size=1, max_size=12),
              st.integers(1, 100),
              st.booleans()),
    min_size=1, max_size=5)

#: Script length of the driven machine's workload: longer than any time
#: span ``_build`` covers, so ``t % _SCRIPT_SECONDS`` is one-to-one there.
_SCRIPT_SECONDS = 1 << 15


def _one_task_job(name, workload):
    return Job(JobSpec(name=name, num_tasks=1,
                       scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
                       priority_band=PriorityBand.PRODUCTION,
                       cpu_limit_per_task=8.0,
                       workload_factory=lambda i: workload))


class _ScriptFactor:
    """``script[t % len(script)]`` as a pure ``scaled`` factor.

    Its ``spec`` attribute declares it pure (the contract
    :class:`~repro.workloads.diurnal.DiurnalPattern` follows), which is
    what lets the demand plane compile it; ``1.0 * x == x`` keeps the
    scaled demand equal to the script.
    """

    def __init__(self, script):
        self.script = tuple(script)
        self.spec = ("script", self.script)

    def __call__(self, t: int) -> float:
        return self.script[t % len(self.script)]


class TestUsageHistoryOracle:
    """The ring against the deque reference, over random gapped charges."""

    @staticmethod
    def _build(segments, t0, compiled):
        """Charge ``segments`` into one cgroup, directly or by machine ticks.

        The machine's one task demands ``script[t % _SCRIPT_SECONDS]``,
        which its 24 cores grant in full; ``compiled`` picks a compiled
        demand program (the script as a ``scaled`` factor), else a closure
        table.  Half-way
        through each ticked segment a companion task is placed or removed,
        so the table (and its usage history) is rebuilt mid-run.  A direct
        segment charges the task's cgroup off the machine (only a table
        charges its rows): the task is removed before it and placed again
        before the next ticked segment, so its row is copied out of one
        table's history and into the next one's, whose clock it may lead
        or trail.
        """
        script = [0.0] * _SCRIPT_SECONDS
        t = t0
        for gap, usages, repeat, as_run in segments:
            t += gap
            run = usages * repeat
            if as_run:
                for offset, usage in enumerate(run):
                    script[(t + offset) % _SCRIPT_SECONDS] = usage
            t += len(run) - 1
        if compiled:
            workload = SyntheticWorkload(
                base_cpi=1.0, profile=QUIET_PROFILE,
                demand=scaled(constant(1.0), _ScriptFactor(script)))
        else:
            workload = ScriptedWorkload(script)
        machine = make_quiet_machine()
        (task,) = _one_task_job("job", workload)
        machine.place(task)
        assert isinstance(FusedFleet((machine,)).demand_columns,
                          DemandColumns) == compiled
        companion = None
        cg = task.cgroup
        ref = DequeUsageHistory()
        t = t0
        for gap, usages, repeat, as_run in segments:
            t += gap
            run = usages * repeat
            if as_run != machine.has_task(task.name):
                if as_run:
                    machine.place(task)
                else:
                    machine.remove(task.name, TaskState.KILLED)
            for offset, usage in enumerate(run):
                ref.charge(t + offset, usage)
                if not as_run:
                    cg.charge(t + offset, usage)
                    continue
                if offset == len(run) // 2:
                    if companion is None:
                        (companion,) = _one_task_job("side", SyntheticWorkload(
                            base_cpi=1.0, profile=QUIET_PROFILE,
                            demand=constant(0.0)))
                        machine.place(companion)
                    else:
                        machine.remove(companion.name, TaskState.KILLED)
                        companion = None
                assert machine.tick(t + offset).grants[task.name] == usage
            t += len(run) - 1
        return cg, ref, t

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), segments=_segments,
           t0=st.integers(-50, 2000), compiled=st.booleans())
    def test_ring_matches_deque_within_history(self, data, segments, t0,
                                               compiled):
        cg, ref, last = self._build(segments, t0, compiled)
        assert cg.usage.last == last
        assert cg.last_usage().hex() == float(ref.entries[-1][1]).hex()
        for _ in range(8):
            start = data.draw(
                st.integers(last - USAGE_HISTORY_SECONDS + 1, last + 5),
                label="start")
            end = start + data.draw(st.integers(1, 1000), label="length")
            expected = ref.usage_between(start, end).hex()
            assert cg.usage_between(start, end).hex() == expected
            total = 0.0
            for usage in cg.usage_window_view(start, end).tolist():
                total += usage
            assert (total / (end - start)).hex() == expected

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), segments=_segments,
           t0=st.integers(-50, 2000), compiled=st.booleans())
    def test_window_beyond_history_reads_zero(self, data, segments, t0,
                                              compiled):
        cg, _ref, last = self._build(segments, t0, compiled)
        end = data.draw(st.integers(last - 3000,
                                    last - USAGE_HISTORY_SECONDS + 1))
        start = end - data.draw(st.integers(1, 1000))
        assert cg.usage_between(start, end) == 0.0
        assert not cg.usage_window_view(start, end).any()


# One step of the shared-history property: a task table rebuilt over the
# members drawn (the rows of the previous table that are not among them
# are copied out), then k seconds of its charges after a gap; or k direct
# charges of one cgroup after a gap.
_seeds = st.integers(0, 2 ** 32 - 1)
_history_steps = st.lists(
    st.one_of(
        st.tuples(st.just("table"),
                  st.lists(st.booleans(), min_size=4, max_size=4),
                  st.integers(1, 1200), st.integers(1, 64), _seeds),
        st.tuples(st.just("direct"), st.integers(0, 3),
                  st.integers(1, 1200), st.integers(1, 30), _seeds)),
    min_size=1, max_size=8)


def _usages(seed, shape):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 4.0, shape)
    values[rng.random(shape) < 0.2] = 0.0
    return values


class TestSharedHistoryOracle:
    """Task tables over cgroups whose rows are fresh, lag the table's clock
    (by gaps under and over the 900-second history), or were copied out of
    an earlier table: every window inside the shared history equals each
    cgroup's deque reference by ``float.hex``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), steps=_history_steps)
    def test_windows_match_deque_across_rebuilds(self, data, steps):
        tasks = [make_scripted_job(f"j{i}", [1.0], cpu_limit=4.0).tasks[0]
                 for i in range(4)]
        cgroups = [task.cgroup for task in tasks]
        refs = [DequeUsageHistory() for _ in tasks]
        table = None
        for kind, what, gap, k, seed in steps:
            if kind == "table":
                chosen = [i for i, member in enumerate(what) if member]
                if table is not None:
                    for i, cg in enumerate(cgroups):
                        if cg.usage is table.usage and i not in chosen:
                            cg.leave_table()
                table = _TaskTable([tasks[i] for i in chosen], CounterBank())
                history = table.usage
                start = (history.last or 0) + gap
                values = _usages(seed, (len(chosen), k))
                history.charge(start, values)
                for row, i in enumerate(chosen):
                    for j in range(k):
                        refs[i].charge(start + j, float(values[row, j]))
            else:
                cg = cgroups[what]
                start = (cg.usage.last or 0) + gap
                values = _usages(seed, k).tolist()
                if len(cg.usage.matrix) > 1:
                    with pytest.raises(ValueError, match="task table"):
                        cg.charge(start, values[0])
                    continue
                for j, usage in enumerate(values):
                    cg.charge(start + j, usage)
                    refs[what].charge(start + j, usage)
            self._check_windows(data, cgroups, refs, table)

    @staticmethod
    def _check_windows(data, cgroups, refs, table):
        for cg, ref in zip(cgroups, refs):
            last = cg.usage.last
            if last is None:
                assert not cg.usage.matrix.any()
                continue
            # Every second the history holds, then one window mean.
            seconds = range(last - USAGE_HISTORY_SECONDS + 1, last + 1)
            charged = dict(ref.entries)
            assert [u.hex() for u in cg.usage_window_view(
                seconds.start, seconds.stop).tolist()] == [
                float(charged.get(t, 0.0)).hex() for t in seconds]
            start = data.draw(st.integers(last - USAGE_HISTORY_SECONDS + 1,
                                          last), label="start")
            end = data.draw(st.integers(start + 1, last + 1), label="end")
            expected = ref.usage_between(start, end).hex()
            assert cg.usage_between(start, end).hex() == expected
            assert float(cg.usage.means(cg.usage_row, start,
                                        end - start)).hex() == expected
        if table is None or table.usage.last is None:
            return
        # Every row at once, at several window starts: the ranking's read.
        last = table.usage.last
        duration = data.draw(st.integers(1, 60), label="duration")
        starts = data.draw(st.lists(
            st.integers(last - USAGE_HISTORY_SECONDS + 1, last + 1 - duration),
            min_size=1, max_size=5), label="starts")
        rows = np.arange(len(table.cgroups))
        means = table.usage.means(rows, np.array(starts), duration)
        for row, cg in enumerate(table.cgroups):
            ref = refs[cgroups.index(cg)]
            assert [m.hex() for m in means[row].tolist()] == [
                ref.usage_between(s, s + duration).hex() for s in starts]
