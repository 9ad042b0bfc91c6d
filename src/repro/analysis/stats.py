"""Small statistical primitives used throughout the reproduction.

The paper's metric-validation section (Section 3) rests on Pearson
correlation between application-level rates and counter-derived rates, on
normalising series to their observed minimum ("normalized to the minimum
value observed in the collection period"), and on empirical CDFs for the
fleet-level evaluation (Figures 1, 14, 16d).  This module implements those
primitives with plain numpy so they behave identically in tests, benchmarks
and the library itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "pearson_correlation",
    "spearman_correlation",
    "normalize_to_min",
    "coefficient_of_variation",
    "rolling_mean",
    "Ecdf",
    "SeriesSummary",
    "summarize",
]


def _as_1d_float_array(values: Iterable[float], name: str) -> np.ndarray:
    # Arrays, lists and tuples go straight to asarray (zero-copy for a
    # float64 array); only true iterators need materialising first.
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def pearson_correlation(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Pearson product-moment correlation coefficient of two equal-length series.

    Returns 0.0 (rather than NaN) when either series is constant, which is the
    behaviour the identification pipeline wants: a flat CPU-usage series carries
    no evidence either way about a suspect.

    Raises:
        ValueError: if the series lengths differ or fewer than 2 points are given.
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


def normalize_to_min(values: Iterable[float]) -> np.ndarray:
    """Normalise a series to its minimum observed value, as the paper's figures do.

    Figure 2 and Figure 3 plot rates "normalized to the minimum value observed
    in the collection period", i.e. every point is divided by the series min so
    the smallest value maps to 1.0x.

    Raises:
        ValueError: if the series is empty or its minimum is not positive.
    """
    arr = _as_1d_float_array(values, "values")
    if arr.size == 0:
        raise ValueError("cannot normalise an empty series")
    lo = float(arr.min())
    if lo <= 0.0:
        raise ValueError(f"series minimum must be positive to normalise, got {lo}")
    return arr / lo


def coefficient_of_variation(values: Iterable[float]) -> float:
    """Standard deviation divided by mean (the paper quotes ~4% for Figure 5).

    Uses the population standard deviation (ddof=0), matching how the paper's
    CPI spec treats its sample population.

    Raises:
        ValueError: if the series is empty or has zero mean.
    """
    arr = _as_1d_float_array(values, "values")
    if arr.size == 0:
        raise ValueError("cannot summarise an empty series")
    mean = float(arr.mean())
    if mean == 0.0:
        raise ValueError("coefficient of variation undefined for zero-mean series")
    return float(arr.std(ddof=0)) / mean


def rolling_mean(values: Iterable[float], window: int) -> np.ndarray:
    """Trailing rolling mean with a ramp-up prefix.

    The first ``window - 1`` outputs average over however many points exist so
    the output has the same length as the input.  Used to smooth per-minute CPI
    series into the multi-minute views the case-study figures show.
    """
    arr = _as_1d_float_array(values, "values")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if arr.size == 0:
        return arr.copy()
    cumulative = np.concatenate([[0.0], np.cumsum(arr)])
    out = np.empty_like(arr)
    for i in range(arr.size):
        start = max(0, i + 1 - window)
        out[i] = (cumulative[i + 1] - cumulative[start]) / (i + 1 - start)
    return out


class Ecdf:
    """Empirical cumulative distribution function over a fixed sample.

    Supports evaluation at arbitrary points and extraction of quantiles, which
    is all the fleet-level figures need (Figures 1, 14b, 14d, 16d).
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

    def points(self, num: int = 100) -> list[tuple[float, float]]:
        """(x, F(x)) pairs evenly spaced in probability, for plotting/printing."""
        if num < 2:
            raise ValueError(f"need at least 2 points, got {num}")
        qs = np.linspace(0.0, 1.0, num)
        return [(self.quantile(float(q)), float(q)) for q in qs]


@dataclass(frozen=True)
class SeriesSummary:
    """Five-number-plus summary of a series."""

    n: int
    mean: float
    stddev: float
    minimum: float
    median: float
    maximum: float

    @property
    def cv(self) -> float:
        """Coefficient of variation (stddev / mean)."""
        if self.mean == 0.0:
            raise ValueError("coefficient of variation undefined for zero mean")
        return self.stddev / self.mean


def summarize(values: Sequence[float]) -> SeriesSummary:
    """Compute a :class:`SeriesSummary` for a non-empty series."""
    arr = _as_1d_float_array(values, "values")
    if arr.size == 0:
        raise ValueError("cannot summarise an empty series")
    return SeriesSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        stddev=float(arr.std(ddof=0)),
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
    )


def spearman_correlation(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Spearman rank correlation of two equal-length series.

    Pearson on ranks (average ranks for ties): robust to the heavy-tailed
    CPI values the fleet produces, where a single pathological sample can
    swing a Pearson coefficient.  Same constant-series and length rules as
    :func:`pearson_correlation`.
    """
    x = _as_1d_float_array(xs, "xs")
    y = _as_1d_float_array(ys, "ys")
    if x.size != y.size:
        raise ValueError(f"series lengths differ: {x.size} != {y.size}")
    if x.size < 2:
        raise ValueError("correlation requires at least 2 points")

    def ranks(arr: np.ndarray) -> np.ndarray:
        order = np.argsort(arr, kind="mergesort")
        ranked = np.empty(arr.size, dtype=float)
        ranked[order] = np.arange(1, arr.size + 1, dtype=float)
        # Average ranks across ties.
        for value in np.unique(arr):
            mask = arr == value
            if mask.sum() > 1:
                ranked[mask] = ranked[mask].mean()
        return ranked

    return pearson_correlation(ranks(x), ranks(y))
