"""Unit tests for repro.perf.counters and repro.perf.events."""

import numpy as np
import pytest

from repro.perf.counters import (
    CONTEXT_SWITCH_COST_SECONDS,
    EVENT_ORDER,
    CounterBank,
    CounterSet,
)
from repro.perf.events import CounterEvent


class TestCounterSet:
    def test_starts_at_zero(self):
        counters = CounterSet()
        for event in CounterEvent:
            assert counters.read(event) == 0.0

    def test_accumulates(self):
        counters = CounterSet()
        counters.add(CounterEvent.INSTRUCTIONS_RETIRED, 100.0)
        counters.add(CounterEvent.INSTRUCTIONS_RETIRED, 50.0)
        assert counters.read(CounterEvent.INSTRUCTIONS_RETIRED) == 150.0

    def test_negative_increment_rejected(self):
        counters = CounterSet()
        with pytest.raises(ValueError, match=">= 0"):
            counters.add(CounterEvent.L3_MISSES, -1.0)

    def test_snapshot_is_immutable_copy(self):
        counters = CounterSet()
        counters.add(CounterEvent.CPU_CLK_UNHALTED_REF, 10.0)
        snap = counters.snapshot()
        counters.add(CounterEvent.CPU_CLK_UNHALTED_REF, 5.0)
        assert snap[CounterEvent.CPU_CLK_UNHALTED_REF] == 10.0

    def test_delta_since(self):
        counters = CounterSet()
        counters.add(CounterEvent.CPU_CLK_UNHALTED_REF, 10.0)
        snap = counters.snapshot()
        counters.add(CounterEvent.CPU_CLK_UNHALTED_REF, 7.0)
        counters.add(CounterEvent.L3_MISSES, 3.0)
        deltas = counters.delta_since(snap)
        assert deltas[CounterEvent.CPU_CLK_UNHALTED_REF] == 7.0
        assert deltas[CounterEvent.L3_MISSES] == 3.0
        assert deltas[CounterEvent.INSTRUCTIONS_RETIRED] == 0.0

    def test_backwards_counter_detected(self):
        counters = CounterSet()
        counters.add(CounterEvent.L2_MISSES, 5.0)
        snap = counters.snapshot()
        fresh = CounterSet()
        with pytest.raises(ValueError, match="backwards"):
            fresh.delta_since(snap)

    def test_delta_with_partial_snapshot(self):
        counters = CounterSet()
        counters.add(CounterEvent.L2_MISSES, 5.0)
        deltas = counters.delta_since({})  # missing keys count from zero
        assert deltas[CounterEvent.L2_MISSES] == 5.0


class TestCounterBank:
    def test_lazy_creation(self):
        bank = CounterBank()
        assert bank.known_cgroups() == []
        bank.counters_for("job/0").add(CounterEvent.L3_MISSES, 1.0)
        assert bank.known_cgroups() == ["job/0"]

    def test_same_instance_returned(self):
        bank = CounterBank()
        assert bank.counters_for("a") is bank.counters_for("a")

    def test_drop(self):
        bank = CounterBank()
        bank.counters_for("a")
        bank.drop("a")
        bank.drop("never-existed")  # no-op
        assert bank.known_cgroups() == []

    def test_context_switch_ledger(self):
        bank = CounterBank()
        bank.record_context_switches(1000)
        assert bank.context_switches == 1000
        assert bank.overhead_seconds == pytest.approx(
            1000 * CONTEXT_SWITCH_COST_SECONDS)

    def test_overhead_fraction_matches_paper_claim(self):
        # A task switching 1000x/sec for an hour while burning 1 CPU-sec/sec:
        # 3.6M switches * 2us = 7.2s over 3600 CPU-seconds = 0.2%... the
        # paper's <0.1% holds at realistic (<500/s) switch rates.
        bank = CounterBank()
        bank.record_context_switches(500 * 3600)
        assert bank.overhead_fraction(3600.0) < 0.001

    def test_overhead_fraction_validation(self):
        bank = CounterBank()
        with pytest.raises(ValueError, match="positive"):
            bank.overhead_fraction(0.0)

    def test_negative_switches_rejected(self):
        bank = CounterBank()
        with pytest.raises(ValueError, match=">= 0"):
            bank.record_context_switches(-1)


class TestMatrixViewOut:
    """``matrix_view(out=)``: counter sets re-backed by caller-owned rows."""

    @staticmethod
    def _bank() -> CounterBank:
        bank = CounterBank()
        bank.counters_for("a").add(CounterEvent.CPU_CLK_UNHALTED_REF, 10.0)
        bank.counters_for("b").add(CounterEvent.INSTRUCTIONS_RETIRED, 4.0)
        return bank

    @staticmethod
    def _reads(bank: CounterBank) -> dict:
        return {name: [bank.counters_for(name).read(e) for e in EVENT_ORDER]
                for name in ("a", "b")}

    def test_values_preserved_and_readers_unchanged(self):
        bank = self._bank()
        snap = bank.counters_for("a").snapshot()
        bank.counters_for("a").add(CounterEvent.L3_MISSES, 2.0)
        reads = self._reads(bank)
        delta = bank.counters_for("a").delta_since(snap)

        arena = np.full((3, len(EVENT_ORDER)), -1.0)
        matrix = bank.matrix_view(["a", "b"], out=arena[1:])
        assert matrix.base is arena
        assert self._reads(bank) == reads
        assert bank.counters_for("a").delta_since(snap) == delta
        assert arena[0].tolist() == [-1.0] * len(EVENT_ORDER)

        # The rows are now the live storage: an arena add is a burn.
        arena[1:] += 1.0
        assert bank.counters_for("a").read(
            CounterEvent.CPU_CLK_UNHALTED_REF) == 11.0
        assert bank.counters_for("b").read(
            CounterEvent.INSTRUCTIONS_RETIRED) == 5.0

    def test_later_view_moves_rows_and_leaves_old_matrix(self):
        bank = self._bank()
        first = bank.matrix_view(["a", "b"])
        old = first.copy()
        second = bank.matrix_view(
            ["b", "a"], out=np.empty((2, len(EVENT_ORDER))))
        assert second.tolist() == [old[1].tolist(), old[0].tolist()]
        second += 1.0
        assert (first == old).all()
        assert bank.counters_for("a").read(
            CounterEvent.CPU_CLK_UNHALTED_REF) == 11.0

    @pytest.mark.parametrize("shape, dtype", [
        ((3, len(EVENT_ORDER)), np.float64),
        ((2, len(EVENT_ORDER) - 1), np.float64),
        ((2, len(EVENT_ORDER)), np.float32),
    ])
    def test_wrong_out_rejected(self, shape, dtype):
        bank = self._bank()
        before = bank.matrix_view(["a", "b"])
        with pytest.raises(ValueError, match="out must be"):
            bank.matrix_view(["a", "b"], out=np.zeros(shape, dtype=dtype))
        before += 1.0       # the sets still live in the earlier matrix
        assert bank.counters_for("a").read(
            CounterEvent.CPU_CLK_UNHALTED_REF) == 11.0
