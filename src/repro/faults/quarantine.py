"""Plausibility validation for samples and specs, plus fault corrupters.

Production telemetry lies: counters wrap or misread, windows close on a
task that retired zero instructions, payloads arrive bit-flipped.  One bad
CPI sample folded into a spec's running statistics skews the mean and
stddev every later detection compares against — so implausible records are
*quarantined* at each trust boundary (sampler, agent, aggregator) with a
counted reason, never folded in and never silently dropped.

This module is the shared vocabulary: :func:`quarantine_reason` and
:func:`spec_is_plausible` are the validators the agent and aggregator
apply, and :func:`corrupt_sample_batch` / :func:`corrupt_spec_push` are
the transport-layer corrupters that generate exactly the kinds of damage
the validators must catch (the chaos experiment closes that loop).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.records import CpiSpec

__all__ = [
    "quarantine_reason",
    "spec_is_plausible",
    "corrupt_sample_batch",
    "corrupt_spec_push",
]


def quarantine_reason(cpi: float, usage: float,
                      cpi_bound: float) -> Optional[str]:
    """Why a sample with this CPI and CPU usage must not reach detection or
    aggregation, if at all.

    Returns one of ``non_finite_cpi`` / ``non_finite_usage`` /
    ``zero_cpi`` (zero cycles with retired instructions — physically
    impossible, the signature of a corrupted counter read) /
    ``absurd_cpi`` (above ``cpi_bound``; real fleet CPIs live in single
    digits, Figure 3), or ``None`` for a plausible sample.  The first
    failing check names the reason, in that order.
    """
    if not math.isfinite(cpi):
        return "non_finite_cpi"
    if not math.isfinite(usage):
        return "non_finite_usage"
    if cpi == 0.0:
        return "zero_cpi"
    if cpi > cpi_bound:
        return "absurd_cpi"
    return None


def spec_is_plausible(spec: CpiSpec, cpi_bound: float) -> bool:
    """Whether a pushed-down spec is safe to detect against.

    A corrupt spec is worse than a missing one — a NaN mean disables every
    comparison and a huge mean suppresses all detection — so the agent
    keeps its last known-good spec instead of applying an implausible
    update.
    """
    return (math.isfinite(spec.cpi_mean)
            and math.isfinite(spec.cpi_stddev)
            and math.isfinite(spec.cpu_usage_mean)
            and 0.0 < spec.cpi_mean <= cpi_bound
            and spec.cpi_stddev >= 0.0)


# -- transport corrupters ---------------------------------------------------------

#: The damage menu for one corrupted sample: (description, transform).
_SAMPLE_DAMAGE = (
    ("nan_cpi", lambda s: replace(s, cpi=float("nan"))),
    ("huge_cpi", lambda s: replace(s, cpi=s.cpi * 1e6 + 1e6)),
    ("zero_cpi", lambda s: replace(s, cpi=0.0)),
    ("nan_usage", lambda s: replace(s, cpu_usage=float("nan"))),
)


def corrupt_sample_batch(batch, rng: np.random.Generator):
    """Damage one sample in an upload batch (the payload is a
    :class:`~repro.faults.retry.SampleBatch`); empty batches pass through."""
    if not batch.samples:
        return batch
    index = int(rng.integers(len(batch.samples)))
    _, transform = _SAMPLE_DAMAGE[int(rng.integers(len(_SAMPLE_DAMAGE)))]
    samples = list(batch.samples)
    samples[index] = transform(samples[index])
    return replace(batch, samples=tuple(samples))


_SPEC_DAMAGE = (
    ("nan_mean", lambda s: replace(s, cpi_mean=float("nan"))),
    ("huge_mean", lambda s: replace(s, cpi_mean=s.cpi_mean * 1e6 + 1e6)),
    ("nan_stddev", lambda s: replace(s, cpi_stddev=float("nan"))),
)


def corrupt_spec_push(push, rng: np.random.Generator):
    """Damage one entry in a spec push (a
    :class:`~repro.faults.plane.SpecPush`); empty pushes pass through."""
    if not push.specs:
        return push
    keys = sorted(push.specs)
    key = keys[int(rng.integers(len(keys)))]
    _, transform = _SPEC_DAMAGE[int(rng.integers(len(_SPEC_DAMAGE)))]
    specs = dict(push.specs)
    specs[key] = transform(specs[key])
    return replace(push, specs=specs)
