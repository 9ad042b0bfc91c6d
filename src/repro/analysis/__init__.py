"""Statistics toolkit shared by the CPI2 system and its evaluation.

This package is substrate code: the paper leans on a handful of statistical
primitives (Pearson correlation for the metric-validation figures, empirical
CDFs for the evaluation plots, and distribution fitting for the CPI-outlier
model of Figure 7).  Everything here is deliberately dependency-light so the
core library can use it without pulling in plotting or dataframe stacks.
Distribution fitting loads scipy, so it is not re-exported here: import
:mod:`repro.analysis.distributions` where it is used.
"""

from repro.analysis.stats import Ecdf, coefficient_of_variation, pearson_correlation
from repro.analysis.viz import sparkline, timeseries

__all__ = [
    "Ecdf",
    "coefficient_of_variation",
    "pearson_correlation",
    "sparkline",
    "timeseries",
]
