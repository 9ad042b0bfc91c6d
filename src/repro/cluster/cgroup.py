"""Cgroup CPU accounting and CFS bandwidth control (hard-capping).

The paper's only actuator is Linux CPU bandwidth control [Turner et al.,
"CPU bandwidth control for CFS"]: "we forcibly reduce the antagonist's CPU
usage by applying CPU hard-capping.  This bounds the amount of CPU a task can
use over a short period of time (e.g., 25 ms in each 250 ms window, which
corresponds to a cap of 0.1 CPU-sec/sec)."

We model bandwidth control at 1-second granularity: a :class:`BandwidthCap`
bounds the CPU-sec/sec a cgroup may receive until it expires.  The cgroup
also keeps a short usage history, which is what CPI2's correlation engine
reads when it hunts for antagonists (it needs the *suspect's* CPU usage
series time-aligned with the victim's CPI series).  That history is one
row of a :class:`UsageHistory`: the cgroup's own one-row history, or its
machine's task table's, which holds every resident cgroup's row on one
clock.  :class:`UsageHistory` is the only code that knows how the history
is stored; every writer and reader goes through its three methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

__all__ = ["BandwidthCap", "Cgroup", "UsageHistory"]

#: How many seconds of per-second usage history a cgroup retains: the
#: seconds ``(last - 900, last]`` before its latest charge.  The correlation
#: analysis uses a 10-minute window of per-minute samples, so 15 minutes of
#: second-level history is comfortably enough for any consumer.
USAGE_HISTORY_SECONDS = 900

#: Which rows of a history a read covers: one row, an index array, or a
#: slice (``slice(None)`` for every row).
Rows = Union[int, np.ndarray, slice]


class UsageHistory:
    """Per-second CPU usage of a table of rows, on one clock.

    Second ``t`` of row ``r`` lives in ``matrix[r, t % 900]``, and
    :attr:`last` is the latest charged second (``None`` before the first
    charge).  Charges move forward in time and zero-fill the seconds they
    skip, so the matrix holds exactly the seconds ``(last - 900, last]``;
    a never-charged history holds only zeros.  Readers see ``0.0`` for
    every second outside that span, and a window mean is a sum from
    ``0.0`` in time order, so it is bit-identical to a running sum over
    the charged seconds alone (``x + 0.0 == x``).  :attr:`names` names
    each row's cgroup, for error messages.
    """

    def __init__(self, names: Sequence[str], last: Optional[int] = None):
        self.names = tuple(names)
        self.matrix = np.zeros((len(self.names), USAGE_HISTORY_SECONDS))
        self.last = last

    @classmethod
    def of_rows(cls, sources: Sequence[tuple["UsageHistory", int]]
                ) -> "UsageHistory":
        """A new history whose row ``i`` is row ``sources[i][1]`` of
        history ``sources[i][0]``, on the latest of their clocks.

        A source whose clock lags reads its seconds after its own clock as
        ``0.0``, as its next charge would have zero-filled them.
        """
        clocks = [h.last for h, _ in sources if h.last is not None]
        history = cls([h.names[row] for h, row in sources],
                      max(clocks) if clocks else None)
        for i, (source, row) in enumerate(sources):
            if source.last is not None:
                history.matrix[i] = source.matrix[row]
                history._clear(i, source.last + 1, history.last + 1)
        return history

    def _clear(self, rows: Rows, first: int, stop: int) -> None:
        """Zero ``rows``' slots of seconds ``first .. stop-1``: every slot
        when they span the whole history."""
        n = min(stop - first, USAGE_HISTORY_SECONDS)
        if n > 0:
            self.matrix[rows, np.arange(first, first + n)
                        % USAGE_HISTORY_SECONDS] = 0.0

    def charge(self, t0: int, values) -> None:
        """Charge every row from second ``t0``: ``values`` is one second
        ``(rows,)`` or ``k <= 900`` seconds ``(rows, k)``.

        Raises ``ValueError`` before writing anything when ``t0`` does not
        follow :attr:`last`; zero-fills the seconds skipped since it.
        """
        UsageHistory.charge_each(t0, values, ((self, 0, len(self.names)),))

    @staticmethod
    def charge_each(t0: int, values, parts) -> None:
        """:meth:`charge` rows ``lo .. hi-1`` of ``values`` into each
        ``(history, lo, hi)`` of ``parts``, in order.

        A history whose clock is at ``t0 - 1`` costs no Python call, so a
        fleet charges any number of task tables for the same calls.
        """
        column = np.ndim(values) < 2
        k = 1 if column else values.shape[1]
        slot = t0 % USAGE_HISTORY_SECONDS
        head = min(k, USAGE_HISTORY_SECONDS - slot)
        for history, lo, hi in parts:
            last = history.last
            if last is not None and last != t0 - 1:
                if t0 <= last:
                    raise ValueError(
                        f"cgroup {history.names[0]}: charge at second {t0} "
                        f"does not follow the last charged second {last}")
                history._clear(slice(None), last + 1, t0)
            matrix = history.matrix
            if column:
                matrix[:, slot] = values[lo:hi]
            else:
                matrix[:, slot:slot + head] = values[lo:hi, :head]
                if head < k:
                    matrix[:, :k - head] = values[lo:hi, head:]
            history.last = t0 + k - 1

    def window(self, rows: Rows, seconds) -> np.ndarray:
        """Usage of ``rows`` at every one of ``seconds`` (an int array),
        as a new array of shape ``shape(rows) + shape(seconds)``; seconds
        outside the history read ``0.0``."""
        seconds = np.asarray(seconds)
        if isinstance(rows, np.ndarray):
            rows = rows.reshape(rows.shape + (1,) * seconds.ndim)
        out = self.matrix[rows, seconds % USAGE_HISTORY_SECONDS]
        last = self.last
        if last is not None:
            outside = ((seconds <= last - USAGE_HISTORY_SECONDS)
                       | (seconds > last))
            if outside.any():
                out[..., outside] = 0.0
        return out

    def means(self, rows: Rows, starts, duration: int) -> np.ndarray:
        """Mean usage of ``rows`` over ``[start, start + duration)`` for
        each of ``starts`` (an int or an int array), shaped
        ``shape(rows) + shape(starts)``.

        The sum runs from ``0.0`` one second at a time (never numpy's
        pairwise ``sum``), so every mean has the bits of a scalar running
        sum.  A single window inside the history reads its slots as one
        slice, not a gather.
        """
        last = self.last
        n = USAGE_HISTORY_SECONDS
        if (np.ndim(starts) == 0 and last is not None
                and last - n < starts <= last + 1 - duration
                and starts % n <= n - duration):
            windows = self.matrix[rows, starts % n:starts % n + duration]
        else:
            windows = self.window(
                rows, np.add.outer(starts, np.arange(duration)))
        total = np.zeros(windows.shape[:-1])
        for j in range(duration):
            total += windows[..., j]
        total /= duration
        return total


@dataclass(frozen=True)
class BandwidthCap:
    """An active CFS bandwidth cap on a cgroup.

    Attributes:
        quota: maximum CPU-sec/sec the group may consume while capped.
        expires_at: simulation time (seconds) at which the cap lapses; the
            paper applies caps for 5 minutes at a time.
    """

    quota: float
    expires_at: int

    def __post_init__(self) -> None:
        if not self.quota >= 0:
            raise ValueError(f"cap quota must be >= 0, got {self.quota}")

    def active_at(self, t: int) -> bool:
        """Whether the cap is still in force at time ``t``."""
        return t < self.expires_at


class Cgroup:
    """A per-task CPU container: limit, optional hard-cap, usage history."""

    #: Class-wide cap-change epoch.  Every :meth:`apply_cap` /
    #: :meth:`release_cap` anywhere bumps it, which is how the vectorized
    #: demand plane (:mod:`repro.cluster.demandplane`) knows its cached cap
    #: columns are stale without polling every cgroup every tick.  (The lazy
    #: expiry drop in :meth:`cap_at` does *not* bump it: an expired cap and
    #: no cap are indistinguishable through ``t < expires_at``.)
    _cap_mutations = 0

    def __init__(self, name: str, cpu_limit: float):
        """Args:
            name: container name (``<job>/<index>`` by convention).
            cpu_limit: steady-state CPU limit in CPU-sec/sec (the task's
                reservation); must be positive.
        """
        if not cpu_limit > 0:
            raise ValueError(f"cpu_limit must be positive, got {cpu_limit}")
        self.name = name
        self.cpu_limit = cpu_limit
        self._cap: Optional[BandwidthCap] = None
        #: The history this cgroup's per-second usage is row
        #: :attr:`usage_row` of: its own one-row history, or the one its
        #: machine's task table keeps for every resident cgroup.
        self.usage = UsageHistory((name,))
        self.usage_row = 0

    # -- capping ------------------------------------------------------------

    def apply_cap(self, quota: float, now: int, duration: int) -> BandwidthCap:
        """Install a hard-cap of ``quota`` CPU-sec/sec for ``duration`` seconds.

        Re-capping replaces any existing cap (the agent's re-analysis path may
        extend or tighten an existing cap).
        """
        if duration <= 0:
            raise ValueError(f"cap duration must be positive, got {duration}")
        cap = BandwidthCap(quota=quota, expires_at=now + duration)
        self._cap = cap
        Cgroup._cap_mutations += 1
        return cap

    def release_cap(self) -> None:
        """Remove any active hard-cap immediately."""
        self._cap = None
        Cgroup._cap_mutations += 1

    def cap_at(self, t: int) -> Optional[BandwidthCap]:
        """The cap in force at time ``t``, dropping it lazily once expired."""
        if self._cap is not None and not self._cap.active_at(t):
            self._cap = None
        return self._cap

    def is_capped(self, t: int) -> bool:
        """Whether a hard-cap is in force at time ``t``."""
        return self.cap_at(t) is not None

    def allowed_usage(self, demand: float, t: int) -> float:
        """CPU the group may receive at ``t`` given its limit and any cap.

        This is the cgroup-side constraint only; the machine may further
        reduce the grant when cores are oversubscribed.
        """
        if demand < 0:
            raise ValueError(f"demand must be >= 0, got {demand}")
        allowed = min(demand, self.cpu_limit)
        cap = self.cap_at(t)
        if cap is not None:
            allowed = min(allowed, cap.quota)
        return allowed

    # -- accounting ---------------------------------------------------------

    def charge(self, t: int, usage: float) -> None:
        """Record ``usage`` CPU-sec/sec consumed during second ``t``.

        Raises:
            ValueError: for negative or NaN usage, for a cgroup whose usage
                is one row of a task table's many-row history (the table
                charges all its rows at once), or for a ``t`` at or before
                the latest charged second (time must strictly increase).
        """
        if not usage >= 0:
            raise ValueError(f"usage must be >= 0, got {usage}")
        if len(self.usage.names) != 1:
            raise ValueError(
                f"cgroup {self.name} is a row of a task table's usage "
                f"history: its table charges it")
        self.usage.charge(t, (usage,))

    def usage_between(self, start: int, end: int) -> float:
        """Mean CPU-sec/sec over the half-open window ``[start, end)``.

        Seconds with no recorded sample — never charged, or older than the
        retained history — count as zero usage, so a window that extends
        beyond the recorded history is averaged over its full length.  The
        sum runs from ``0.0`` in time order, so it is bit-identical to any
        running sum over just the charged seconds (``x + 0.0 == x``).
        """
        total = 0.0
        for usage in self.usage_window_view(start, end).tolist():
            total += usage
        return total / (end - start)

    def usage_window_view(self, start: int, end: int) -> np.ndarray:
        """Per-second usage over ``[start, end)`` as a new float64 array.

        Seconds outside the retained history ``(last - 900, last]`` read as
        ``0.0``, exactly as :meth:`usage_between` treats them.
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        return self.usage.window(self.usage_row, np.arange(start, end))

    def leave_table(self) -> None:
        """Copy this cgroup's usage row out into a one-row history of its
        own, on the same clock, so that the history it leaves (its task
        table's) is not kept alive by a departed task."""
        self.usage = UsageHistory.of_rows([(self.usage, self.usage_row)])
        self.usage_row = 0

    def last_usage(self) -> float:
        """Most recently recorded per-second usage (0.0 before any charge)."""
        last = self.usage.last
        if last is None:
            return 0.0
        return float(self.usage_window_view(last, last + 1)[0])

    def __repr__(self) -> str:
        return f"Cgroup({self.name}, limit={self.cpu_limit}, cap={self._cap})"
