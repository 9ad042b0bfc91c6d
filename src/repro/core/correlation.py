"""Antagonist identification by passive cross-correlation (paper Section 4.2).

The paper rejects active probing ("we'd rather the antagonist-detection
system were not the worst antagonist in the system!") in favour of a passive
score between a victim's CPI series and each suspect's CPU-usage series::

    correlation(V, A) = 0
    for each time-aligned pair (u_i, c_i):
        if   c_i > c_threshold: correlation += u_i * (1 - c_threshold / c_i)
        elif c_i < c_threshold: correlation += u_i * (c_i / c_threshold - 1)

with the suspect's usage normalised so sum(u_i) = 1, giving a value in
[-1, 1]: it rises when the suspect's CPU spikes coincide with abnormally high
victim CPI and falls when the suspect runs hot while the victim is fine.

This module implements the formula verbatim, the per-sample victim terms it
factors into, and the score record; the ranking over every co-tenant at
once is :func:`repro.core.identify.rank_suspects_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["antagonist_correlation", "SuspectScore"]


def antagonist_correlation(
    victim_cpi: Sequence[float],
    suspect_usage: Sequence[float],
    cpi_threshold: float,
) -> float:
    """The paper's correlation score between one victim and one suspect.

    Args:
        victim_cpi: the victim's CPI samples ``c_1 .. c_n`` over the window.
        suspect_usage: the suspect's CPU usage ``u_1 .. u_n``, time-aligned
            with ``victim_cpi``.  Normalisation to sum 1 happens here.
        cpi_threshold: the victim's abnormal-CPI threshold (its spec's
            mean + 2 sigma point).

    Returns:
        A score in [-1, 1]; 0 when the suspect never ran during the window.

    Raises:
        ValueError: on mismatched lengths, an empty window, a non-positive
            threshold, or negative usage.
    """
    if len(victim_cpi) != len(suspect_usage):
        raise ValueError(
            f"series lengths differ: {len(victim_cpi)} != {len(suspect_usage)}")
    if not victim_cpi:
        raise ValueError("correlation window is empty")
    if cpi_threshold <= 0:
        raise ValueError(f"cpi_threshold must be positive, got {cpi_threshold}")
    total_usage = 0.0
    for u in suspect_usage:
        if u < 0:
            raise ValueError(f"usage values must be >= 0, got {u}")
        total_usage += u
    if total_usage <= 0.0:
        return 0.0
    score = 0.0
    for c, u in zip(victim_cpi, suspect_usage):
        if c < 0:
            raise ValueError(f"CPI values must be >= 0, got {c}")
        weight = u / total_usage
        if c > cpi_threshold:
            score += weight * (1.0 - cpi_threshold / c)
        elif c < cpi_threshold:
            score += weight * (c / cpi_threshold - 1.0)
    return score


def _victim_terms(victim_cpi: Sequence[float],
                  cpi_threshold: float) -> list[float | None]:
    """Precompute the per-sample victim factor of the correlation formula.

    The victim side of the score — validation of the series plus the
    ``(1 - threshold/c)`` / ``(c/threshold - 1)`` term — is identical for
    every suspect, so :func:`~repro.core.identify.rank_suspects_matrix`
    computes it once instead of per suspect.  ``None`` marks samples
    exactly at the threshold, which the formula skips (contributing
    nothing, not a ``+ 0.0``, so accumulation stays bit-identical to
    :func:`antagonist_correlation`).
    """
    if not victim_cpi:
        raise ValueError("correlation window is empty")
    if cpi_threshold <= 0:
        raise ValueError(f"cpi_threshold must be positive, got {cpi_threshold}")
    terms: list[float | None] = []
    for c in victim_cpi:
        if c < 0:
            raise ValueError(f"CPI values must be >= 0, got {c}")
        if c > cpi_threshold:
            terms.append(1.0 - cpi_threshold / c)
        elif c < cpi_threshold:
            terms.append(c / cpi_threshold - 1.0)
        else:
            terms.append(None)
    return terms


@dataclass(frozen=True)
class SuspectScore:
    """One suspect's correlation against a victim."""

    taskname: str
    jobname: str
    correlation: float

    def meets(self, threshold: float) -> bool:
        """Whether this suspect clears the declaration threshold."""
        return self.correlation >= threshold
