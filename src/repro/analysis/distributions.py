"""Distribution fitting for CPI sample populations (paper Figure 7).

The paper fits the measured CPI distribution of a large web-search job
against normal, log-normal, Gamma and generalized-extreme-value (GEV)
families and reports that GEV fits best (``GEV(1.73, 0.133, -0.0534)`` for a
sample with mean 1.8 and stddev 0.16).  The rightward skew matters: bad
performance is more common than exceptionally good performance, so the 2-sigma
outlier threshold sits on a long right tail.

This module wraps scipy's maximum-likelihood fitters with a uniform result
type that carries each fit's Kolmogorov-Smirnov distance; Figure 7's
``DistributionResult.best_family`` (``repro.experiments.metric_validation``)
picks the family with the smallest one, the paper's "fit best".

A note on GEV parameter conventions: the paper quotes ``GEV(mu, sigma, xi)``
with the standard sign convention where ``xi < 0`` is the (bounded-tail)
Weibull domain.  scipy's ``genextreme`` uses ``c = -xi``.  We expose the
paper's convention in :class:`DistributionFit.shape`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy import stats as sps

__all__ = [
    "DistributionFit",
    "CANDIDATE_FAMILIES",
    "fit_distribution",
    "fit_all_candidates",
]

#: Families the paper compares in Section 4.1 / Figure 7.
CANDIDATE_FAMILIES = ("normal", "lognormal", "gamma", "gev")


@dataclass(frozen=True)
class DistributionFit:
    """A fitted distribution plus goodness-of-fit statistics.

    Attributes:
        family: one of :data:`CANDIDATE_FAMILIES`.
        location: location parameter (``mu`` for normal and GEV).
        scale: scale parameter (``sigma``).
        shape: shape parameter, or ``None`` for the normal family.  For the
            GEV family this follows the paper's sign convention (``xi``),
            i.e. the negation of scipy's ``c``.
        log_likelihood: total log-likelihood of the data under the fit.
        ks_statistic: Kolmogorov-Smirnov D statistic against the fit.
        n: number of samples fitted.
    """

    family: str
    location: float
    scale: float
    shape: float | None
    log_likelihood: float
    ks_statistic: float
    n: int


def _validate_samples(samples: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples,
                     dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
    if arr.size < 8:
        raise ValueError(f"need at least 8 samples to fit, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite values")
    return arr


def fit_distribution(samples: Iterable[float], family: str) -> DistributionFit:
    """Maximum-likelihood fit of ``samples`` to one candidate family.

    The lognormal and gamma fits pin ``loc`` to 0 (the conventional
    two-parameter forms) when all samples are positive, which is always the
    case for CPI data.
    """
    arr = _validate_samples(samples)
    if family == "normal":
        loc, scale = sps.norm.fit(arr)
        frozen = sps.norm(loc=loc, scale=scale)
        shape: float | None = None
    elif family == "lognormal":
        if np.any(arr <= 0):
            raise ValueError("lognormal fit requires positive samples")
        s, loc, scale = sps.lognorm.fit(arr, floc=0.0)
        frozen = sps.lognorm(s, loc=loc, scale=scale)
        shape = float(s)
    elif family == "gamma":
        if np.any(arr <= 0):
            raise ValueError("gamma fit requires positive samples")
        a, loc, scale = sps.gamma.fit(arr, floc=0.0)
        frozen = sps.gamma(a, loc=loc, scale=scale)
        shape = float(a)
    elif family == "gev":
        c, loc, scale = sps.genextreme.fit(arr)
        frozen = sps.genextreme(c, loc=loc, scale=scale)
        shape = float(-c)  # convert scipy's c to the paper's xi
    else:
        raise ValueError(
            f"unknown family {family!r}; expected one of {CANDIDATE_FAMILIES}")

    with np.errstate(divide="ignore"):
        logpdf = frozen.logpdf(arr)
    # Clip -inf contributions (points outside a bounded support) to a large
    # penalty instead of poisoning the comparison with NaNs.
    logpdf = np.where(np.isfinite(logpdf), logpdf, -1e6)
    ks = sps.kstest(arr, frozen.cdf).statistic
    return DistributionFit(
        family=family,
        location=float(frozen.kwds.get("loc", 0.0)),
        scale=float(frozen.kwds.get("scale", 1.0)),
        shape=shape,
        log_likelihood=float(np.sum(logpdf)),
        ks_statistic=float(ks),
        n=int(arr.size),
    )


def fit_all_candidates(samples: Iterable[float]) -> Mapping[str, DistributionFit]:
    """Fit every family in :data:`CANDIDATE_FAMILIES`; skip families that error."""
    arr = _validate_samples(samples)
    fits: dict[str, DistributionFit] = {}
    for family in CANDIDATE_FAMILIES:
        try:
            fits[family] = fit_distribution(arr, family)
        except (ValueError, RuntimeError):
            continue
    if not fits:
        raise ValueError("no candidate family could be fitted")
    return fits
