"""Reference usage history: the last 900 ``(t, usage)`` charges in a deque.

This is the representation :class:`repro.cluster.cgroup.Cgroup` kept before
its per-second ring became the only one.  A window mean is a running sum
from ``0.0``, in charge order, over the charges inside the window.
"""

from collections import deque


class DequeUsageHistory:
    def __init__(self, maxlen: int = 900):
        self.entries: deque[tuple[int, float]] = deque(maxlen=maxlen)

    def charge(self, t: int, usage: float) -> None:
        self.entries.append((t, usage))

    def usage_between(self, start: int, end: int) -> float:
        total = 0.0
        for t, usage in self.entries:
            if start <= t < end:
                total += usage
        return total / (end - start)
