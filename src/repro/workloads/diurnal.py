"""Diurnal (time-of-day) load patterns.

Figure 5 shows the mean CPI of a web-search job tracking a daily cycle with a
~4% coefficient of variation: as user traffic rises the instruction mix
shifts and machines warm up, and CPI drifts up with it.  We model the load
side with a smooth sinusoid-plus-harmonic curve peaking in the evening, and
let workloads couple their demand (and, weakly, their CPI) to it.
"""

from __future__ import annotations

import math

from repro.cluster.simulation import SECONDS_PER_DAY

__all__ = ["DiurnalPattern"]


class DiurnalPattern:
    """A smooth daily multiplier around 1.0.

    The curve is ``1 + amplitude * s(t)`` where ``s`` is a unit-amplitude
    day-periodic shape with its trough in the early morning and peak in the
    evening, plus an optional weekend damping (Figure 5's Saturday dips).
    """

    def __init__(self, amplitude: float = 0.25, peak_hour: float = 20.0,
                 weekend_damping: float = 0.0):
        """Args:
            amplitude: peak deviation from 1.0 (0.25 -> swings 0.75..1.25).
            peak_hour: local hour of daily maximum (0..24).
            weekend_damping: fraction by which days 5 and 6 of each week are
                scaled down (0 = no weekend effect).
        """
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        if not 0.0 <= peak_hour < 24.0:
            raise ValueError(f"peak_hour must be in [0, 24), got {peak_hour}")
        if not 0.0 <= weekend_damping < 1.0:
            raise ValueError(
                f"weekend_damping must be in [0, 1), got {weekend_damping}")
        self.amplitude = amplitude
        self.peak_hour = peak_hour
        self.weekend_damping = weekend_damping
        # Purity declaration for the columnar demand plane: two patterns
        # with equal specs produce identical outputs for every t, so tasks
        # sharing a spec can share one evaluation per tick (keeping the
        # math.cos calls scalar and therefore bit-identical).
        self.spec = ("diurnal", amplitude, peak_hour, weekend_damping)

    def __call__(self, t: int) -> float:
        """The load multiplier at simulation time ``t`` seconds."""
        day_fraction = (t % SECONDS_PER_DAY) / SECONDS_PER_DAY
        peak_fraction = self.peak_hour / 24.0
        angle = 2.0 * math.pi * (day_fraction - peak_fraction)
        # Fundamental plus a small second harmonic for a realistic sharp
        # evening peak and long overnight trough.
        shape = math.cos(angle) + 0.25 * math.cos(2.0 * angle)
        value = 1.0 + self.amplitude * shape / 1.25
        day_index = (t // SECONDS_PER_DAY) % 7
        if self.weekend_damping > 0.0 and day_index in (5, 6):
            value *= 1.0 - self.weekend_damping
        return max(0.0, value)

    def daily_extremes(self) -> tuple[float, float]:
        """(min, max) multiplier over one weekday, by dense evaluation."""
        values = [self(t) for t in range(0, SECONDS_PER_DAY, 60)]
        return min(values), max(values)
