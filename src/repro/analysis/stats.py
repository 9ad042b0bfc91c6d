"""Small statistical primitives used throughout the reproduction.

The paper's metric-validation section (Section 3) rests on Pearson
correlation between application-level rates and counter-derived rates and
on the coefficient of variation of a job's CPI, and the fleet-level
evaluation (Figures 1, 14, 16d) on empirical CDFs.  This module implements
those primitives with plain numpy so they behave identically in tests,
benchmarks and the library itself.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "pearson_correlation",
    "coefficient_of_variation",
    "Ecdf",
]


def _as_1d_float_array(values: Iterable[float], name: str) -> np.ndarray:
    # Arrays, lists and tuples go straight to asarray (zero-copy for a
    # float64 array); only true iterators need materialising first.
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contain non-finite values")
    return arr


def pearson_correlation(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Pearson product-moment correlation coefficient of two equal-length series.

    Returns 0.0 (rather than NaN) when either series is constant, which is the
    behaviour the identification pipeline wants: a flat CPU-usage series carries
    no evidence either way about a suspect.

    Raises:
        ValueError: if the series lengths differ, fewer than 2 points are
            given, or any value is NaN or infinite.
    """
    x = _as_1d_float_array(xs, "xs")
    y = _as_1d_float_array(ys, "ys")
    if x.size != y.size:
        raise ValueError(f"series lengths differ: {x.size} != {y.size}")
    if x.size < 2:
        raise ValueError("correlation requires at least 2 points")
    xd = x - x.mean()
    yd = y - y.mean()
    # Divide each deviation vector by its largest magnitude first: the sums
    # of squares then lie in [1, n], so neither they nor their product can
    # underflow to subnormals or zero (deviations near 1e-79 and below) or
    # overflow (near 1e155 and above).
    x_scale = float(np.max(np.abs(xd)))
    y_scale = float(np.max(np.abs(yd)))
    if x_scale == 0.0 or y_scale == 0.0:
        return 0.0
    xd /= x_scale
    yd /= y_scale
    r = float(np.dot(xd, yd)) / math.sqrt(
        float(np.dot(xd, xd)) * float(np.dot(yd, yd)))
    # Rounding can still carry |r| a few ulps past 1.
    return min(1.0, max(-1.0, r))


def coefficient_of_variation(values: Iterable[float]) -> float:
    """Standard deviation divided by mean (the paper quotes ~4% for Figure 5).

    Uses the population standard deviation (ddof=0), matching how the paper's
    CPI spec treats its sample population.

    Raises:
        ValueError: if the series is empty, has zero mean, or holds a NaN
            or infinite value.
    """
    arr = _as_1d_float_array(values, "values")
    if arr.size == 0:
        raise ValueError("cannot summarise an empty series")
    mean = float(arr.mean())
    if mean == 0.0:
        raise ValueError("coefficient of variation undefined for zero-mean series")
    return float(arr.std(ddof=0)) / mean


class Ecdf:
    """Empirical cumulative distribution function over a fixed sample.

    Supports evaluation at arbitrary points and extraction of quantiles, which
    is all the fleet-level figures need (Figures 1, 14b, 14d, 16d).  A NaN
    or infinite sample raises :class:`ValueError`.
    """

    def __init__(self, samples: Iterable[float]):
        arr = _as_1d_float_array(samples, "samples")
        if arr.size == 0:
            raise ValueError("ECDF requires at least one sample")
        self._sorted = np.sort(arr)

    @property
    def n(self) -> int:
        """Number of samples backing the ECDF."""
        return int(self._sorted.size)

    def __call__(self, x: float) -> float:
        """Fraction of samples <= x."""
        return float(np.searchsorted(self._sorted, x, side="right")) / self.n

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1) of the sample, by linear interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self._sorted, q))

    def median(self) -> float:
        """The sample median."""
        return self.quantile(0.5)
