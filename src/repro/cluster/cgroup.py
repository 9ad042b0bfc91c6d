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
float64 ring of per-second usage, indexed ``t % USAGE_HISTORY_SECONDS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["BandwidthCap", "Cgroup"]

#: How many seconds of per-second usage history a cgroup retains: the
#: seconds ``(last - 900, last]`` before its latest charge.  The correlation
#: analysis uses a 10-minute window of per-minute samples, so 15 minutes of
#: second-level history is comfortably enough for any consumer.
USAGE_HISTORY_SECONDS = 900


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
        # Per-second usage history: second ``t`` lives in slot
        # ``t % USAGE_HISTORY_SECONDS``, and ``_ring_last`` is the latest
        # charged second (None before the first charge).  Charge times
        # strictly increase and skipped seconds are zero-filled, so every
        # slot of a second in ``(last - 900, last]`` holds that second's
        # usage, or 0.0 if it was never charged.
        self._ring = np.zeros(USAGE_HISTORY_SECONDS)
        # The cgroup's own clock, and the task table its ring is a row of
        # (rebind_ring): a table keeps one clock for all its rows.
        self._last: Optional[int] = None
        self._table = None

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

    @property
    def _ring_last(self) -> Optional[int]:
        """The latest charged second (None before the first charge).

        Once the task table this ring is a row of has charged a tick, that
        is the table's ``charged_to`` — one clock for every row, so a tick
        advances all of them without touching any cgroup.  Otherwise it is
        the cgroup's own clock: its last direct :meth:`charge`, or the
        table clock it had when :meth:`rebind_ring` bound it.
        """
        table = self._table
        if table is not None:
            last = table.charged_to
            if last is not None:
                return last
        return self._last

    def _advance(self, t: int) -> np.ndarray:
        """Open the ring for a charge at second ``t``; returns the ring.

        Raises if ``t`` does not follow the latest charged second, and
        zero-fills the slots of any seconds skipped since it — all of them
        when the gap spans the whole history.
        """
        last = self._ring_last
        ring = self._ring
        if last is not None and t != last + 1:
            if t <= last:
                raise ValueError(
                    f"cgroup {self.name}: charge at second {t} does not "
                    f"follow the last charged second {last}")
            skipped = min(t - last - 1, USAGE_HISTORY_SECONDS)
            ring.put(np.arange(last + 1, last + 1 + skipped), 0.0,
                     mode="wrap")
        return ring

    def charge(self, t: int, usage: float) -> None:
        """Record ``usage`` CPU-sec/sec consumed during second ``t``.

        Raises:
            ValueError: for negative or NaN usage, or a ``t`` at or before
                the latest charged second (time must strictly increase).
        """
        if not usage >= 0:
            raise ValueError(f"usage must be >= 0, got {usage}")
        self._advance(t)[t % USAGE_HISTORY_SECONDS] = usage
        table = self._table
        if table is not None and table.charged_to is not None:
            # This row's clock leaves the table's: every row keeps the
            # table's clock as its own, and the table's next charge opens
            # each ring again from there.
            last = table.charged_to
            for cg in table.cgroups:
                if cg._table is table:
                    cg._last = last
            table.charged_to = None
        self._last = t

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
        out = np.zeros(end - start)
        last = self._ring_last
        if last is None:
            return out
        lo = max(start, last - USAGE_HISTORY_SECONDS + 1)
        hi = min(end, last + 1)
        if lo < hi:
            out[lo - start:hi - start] = self._ring.take(np.arange(lo, hi),
                                                         mode="wrap")
        return out

    def rebind_ring(self, row: np.ndarray, table) -> None:
        """Re-back the usage ring with a row of ``table``'s usage matrix.

        A machine's task table keeps every resident cgroup's ring as one
        row of a shared ``(n_tasks, USAGE_HISTORY_SECONDS)`` matrix: a tick
        charges the whole table with one column write, and the sampler
        gathers a window's per-task usage as a single slice.  Existing
        history is copied into ``row`` and future charges write through
        it, so every reader sees the same state through either handle.
        The current clock becomes the cgroup's own until ``table`` first
        charges (see :attr:`_ring_last`).
        """
        if len(row) != USAGE_HISTORY_SECONDS:
            raise ValueError(
                f"ring row must hold {USAGE_HISTORY_SECONDS} slots, "
                f"got {len(row)}")
        self._last = self._ring_last
        row[:] = self._ring
        self._ring = row
        self._table = table

    def unbind_ring(self) -> None:
        """Leave the task table: the ring keeps its storage and its clock
        becomes the cgroup's own, so a departed task's cgroup does not
        keep its machine's old table alive."""
        self._last = self._ring_last
        self._table = None

    def last_usage(self) -> float:
        """Most recently recorded per-second usage (0.0 before any charge)."""
        last = self._ring_last
        if last is None:
            return 0.0
        return float(self._ring[last % USAGE_HISTORY_SECONDS])

    def __repr__(self) -> str:
        return f"Cgroup({self.name}, limit={self.cpu_limit}, cap={self._cap})"
