"""Unit tests for repro.perf.counters and repro.perf.events."""

import numpy as np
import pytest

from repro.perf.counters import (
    EVENT_ORDER,
    CounterBank,
    CounterSet,
    delta_matrix,
)
from repro.perf.events import CounterEvent


def _burn(matrix: np.ndarray, **amounts) -> None:
    """Burn one tick onto a ``matrix_view`` matrix: ``amounts`` maps an
    event name to its column of per-row increments (others burn zero)."""
    events = np.zeros_like(matrix)
    for event, column in amounts.items():
        events[:, EVENT_ORDER.index(CounterEvent[event])] = column
    CounterBank.burn_matrix(matrix, events)


def _col(event: CounterEvent) -> int:
    return EVENT_ORDER.index(event)


class TestCounterSet:
    """The tick's counter arithmetic: ``burn_matrix`` adds a tick, a matrix
    copy is a snapshot and ``delta_matrix`` differences it."""

    def test_starts_at_zero(self):
        counters = CounterSet()
        for event in CounterEvent:
            assert counters.read(event) == 0.0

    def test_accumulates(self):
        bank = CounterBank()
        matrix = bank.matrix_view(["a", "b"])
        _burn(matrix, INSTRUCTIONS_RETIRED=[100.0, 1.0])
        _burn(matrix, INSTRUCTIONS_RETIRED=[50.0, 2.0])
        assert bank.counters_for("a").read(
            CounterEvent.INSTRUCTIONS_RETIRED) == 150.0
        assert bank.counters_for("b").read(
            CounterEvent.INSTRUCTIONS_RETIRED) == 3.0
        assert bank.counters_for("a").read(CounterEvent.L3_MISSES) == 0.0

    def test_negative_increment_rejected(self):
        bank = CounterBank()
        matrix = bank.matrix_view(["a"])
        _burn(matrix, L3_MISSES=[1.0])
        with pytest.raises(ValueError, match=">= 0, got -1.0"):
            _burn(matrix, L3_MISSES=[-1.0])
        assert bank.counters_for("a").read(CounterEvent.L3_MISSES) == 1.0

    def test_snapshot_is_immutable_copy(self):
        bank = CounterBank()
        matrix = bank.matrix_view(["a"])
        _burn(matrix, CPU_CLK_UNHALTED_REF=[10.0])
        snap = matrix.copy()
        _burn(matrix, CPU_CLK_UNHALTED_REF=[5.0])
        assert snap[0, _col(CounterEvent.CPU_CLK_UNHALTED_REF)] == 10.0
        assert bank.counters_for("a").read(
            CounterEvent.CPU_CLK_UNHALTED_REF) == 15.0

    def test_delta_since(self):
        matrix = CounterBank().matrix_view(["a", "b"])
        _burn(matrix, CPU_CLK_UNHALTED_REF=[10.0, 1.0])
        snap = matrix.copy()
        _burn(matrix, CPU_CLK_UNHALTED_REF=[7.0, 0.0], L3_MISSES=[3.0, 0.5])
        deltas = dict(zip(EVENT_ORDER, delta_matrix(matrix, snap).T.tolist()))
        assert deltas[CounterEvent.CPU_CLK_UNHALTED_REF] == [7.0, 0.0]
        assert deltas[CounterEvent.L3_MISSES] == [3.0, 0.5]
        assert deltas[CounterEvent.INSTRUCTIONS_RETIRED] == [0.0, 0.0]

    def test_backwards_counter_detected(self):
        # Two regressions; the message names the first in row-major
        # (cgroup, then EVENT_ORDER) order.
        before = np.zeros((2, len(EVENT_ORDER)))
        before[0, _col(CounterEvent.MEMORY_REQUESTS)] = 4.0
        before[1, _col(CounterEvent.CPU_CLK_UNHALTED_REF)] = 9.0
        now = np.ones_like(before)
        first = CounterEvent.MEMORY_REQUESTS.value
        message = f"counter {first} went backwards: 4.0 -> 1.0"
        with pytest.raises(ValueError, match=message):
            delta_matrix(now, before)
        with pytest.raises(ValueError, match="shape"):
            delta_matrix(now, before[:1])

    def test_delta_with_partial_snapshot(self):
        # A cgroup with no earlier reading counts from zero: its snapshot
        # row is all zeros, and the delta is everything burned so far.
        matrix = CounterBank().matrix_view(["a"])
        _burn(matrix, L2_MISSES=[5.0])
        deltas = delta_matrix(matrix, np.zeros_like(matrix))
        assert deltas.tolist() == matrix.tolist()
        assert deltas[0, _col(CounterEvent.L2_MISSES)] == 5.0


class TestCounterBank:
    def test_lazy_creation(self):
        bank = CounterBank()
        assert bank.known_cgroups() == []
        bank.counters_for("job/0")
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


class TestMatrixViewOut:
    """``matrix_view(out=)``: counter sets re-backed by caller-owned rows."""

    @staticmethod
    def _bank() -> CounterBank:
        bank = CounterBank()
        _burn(bank.matrix_view(["a", "b"]), CPU_CLK_UNHALTED_REF=[10.0, 0.0],
              INSTRUCTIONS_RETIRED=[0.0, 4.0])
        return bank

    @staticmethod
    def _reads(bank: CounterBank) -> dict:
        return {name: [bank.counters_for(name).read(e) for e in EVENT_ORDER]
                for name in ("a", "b")}

    def test_values_preserved_and_readers_unchanged(self):
        bank = self._bank()
        _burn(bank.matrix_view(["a"]), L3_MISSES=[2.0])
        reads = self._reads(bank)

        arena = np.full((3, len(EVENT_ORDER)), -1.0)
        matrix = bank.matrix_view(["a", "b"], out=arena[1:])
        assert matrix.base is arena
        assert self._reads(bank) == reads
        assert matrix.tolist() == [reads["a"], reads["b"]]
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
