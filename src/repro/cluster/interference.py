"""Shared-resource contention model: how co-runners inflate each other's CPI.

The paper deliberately does *not* diagnose which processor resource is
contended ("we do not attempt to determine which processor resources or
features are the point of contention").  CPI2 only needs the observable
consequence: when an antagonist with a large shared-resource appetite runs
hot, its neighbours' CPI rises, roughly in proportion to the antagonist's CPU
usage — that proportionality is exactly what the correlation detector of
Section 4.2 exploits.

This module holds the model's data; the tick evaluates it over a whole
arena of tasks at once in :mod:`repro.cluster.fused`, the only place the
formulas are computed.  Per task, with ``g`` its CPU grant this second:

* every task declares a :class:`ResourceProfile` — how much last-level cache
  and memory bandwidth it touches per CPU-second of execution, and how
  sensitive its own CPI is to pressure from others;
* its cache pressure is ``g * cache_mib_per_cpu / llc_mib`` (likewise for
  memory bandwidth), and a machine's pressure is the running sum of its
  tasks' in table order, so 1.0 means the resident tasks together demand
  exactly the platform's capacity;
* "pressure from everyone else" is ``max(0, machine - own)``, saturated as
  ``p / (1 + 0.35 p)`` (:data:`_SATURATE_KNEE`): linear for small pressure,
  so correlation with an antagonist's usage stays strong, and sub-linear as
  it grows, since caches can only be thrashed so hard.  Inflation is
  ``cache_sensitivity * sat(cache) + membw_sensitivity * sat(membw)``;
* effective CPI is ``base_cpi * cpi_scale * (1 + inflation) * cold`` before
  measurement noise.

The model also covers two second-order effects the paper's case studies rely
on.  CPI rises at near-zero CPU usage (case 3's bimodal "victim", the reason
for the 0.25 CPU-sec/sec gate) via a cold-start factor ``1 + penalty *
exp(-g / cold_start_scale)``, applied only to tasks with a non-zero
penalty.  And L3 misses per thousand instructions track CPI inflation
(Figure 15c's 0.87 linear correlation): ``base_l3_mpki * (1 + coupling *
inflation)``.  The private L2 barely moves under co-runner contention —
``3 * base_l3_mpki * (1 + coupling / 4 * inflation)`` — which is why
Section 7.2 finds L3 misses/instruction the best-correlated memory metric;
the substrate has to reproduce that asymmetry for the comparison to mean
anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ResourceProfile", "InterferenceModel", "ProfileTable"]


@dataclass(frozen=True)
class ResourceProfile:
    """Per-task shared-resource appetite and sensitivity.

    Attributes:
        cache_mib_per_cpu: MiB of last-level cache the task churns per
            CPU-sec/sec of execution.  A streaming video-processing job might
            touch tens of MiB; a tight compute loop nearly none.
        membw_gbps_per_cpu: memory bandwidth consumed per CPU-sec/sec.
        cache_sensitivity: how strongly co-runner cache pressure inflates this
            task's CPI (0 = immune).
        membw_sensitivity: ditto for memory-bandwidth pressure.
        base_l3_mpki: baseline L3 misses per thousand instructions when
            running alone.
        cold_start_penalty: additive CPI multiplier that appears as CPU usage
            approaches zero, modelling cold caches after idling (case 3).
    """

    cache_mib_per_cpu: float
    membw_gbps_per_cpu: float
    cache_sensitivity: float = 1.0
    membw_sensitivity: float = 1.0
    base_l3_mpki: float = 1.0
    cold_start_penalty: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("cache_mib_per_cpu", "membw_gbps_per_cpu",
                           "cache_sensitivity", "membw_sensitivity",
                           "base_l3_mpki", "cold_start_penalty"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{field_name} must be finite and >= 0, got {value}")


#: The knee of the pressure saturation ``p / (1 + knee * p)``.
_SATURATE_KNEE = 0.35


@dataclass(frozen=True)
class ProfileTable:
    """Column-oriented view of many tasks' :class:`ResourceProfile` values.

    Built once per machine task-table rebuild (placement change), consumed
    every tick by the vectorized engine.  All fields are float64 arrays of
    the same length, in the machine's stable task order.
    """

    cache_mib_per_cpu: np.ndarray
    membw_gbps_per_cpu: np.ndarray
    cache_sensitivity: np.ndarray
    membw_sensitivity: np.ndarray
    base_l3_mpki: np.ndarray
    #: ``3.0 * base_l3_mpki``, the L2 miss-rate baseline, precomputed once.
    l2_base_mpki: np.ndarray
    cold_start_penalty: np.ndarray
    #: Positions with a non-zero cold-start penalty (usually few or none);
    #: the tick evaluates their cold-start factor one task at a time with
    #: ``math.exp``.
    cold_indices: tuple[int, ...]

    @classmethod
    def from_profiles(cls, profiles: Sequence[ResourceProfile]) -> "ProfileTable":
        """Columnize ``profiles`` (order preserved)."""
        base_l3 = np.array([p.base_l3_mpki for p in profiles], dtype=np.float64)
        return cls(
            cache_mib_per_cpu=np.array(
                [p.cache_mib_per_cpu for p in profiles], dtype=np.float64),
            membw_gbps_per_cpu=np.array(
                [p.membw_gbps_per_cpu for p in profiles], dtype=np.float64),
            cache_sensitivity=np.array(
                [p.cache_sensitivity for p in profiles], dtype=np.float64),
            membw_sensitivity=np.array(
                [p.membw_sensitivity for p in profiles], dtype=np.float64),
            base_l3_mpki=base_l3,
            l2_base_mpki=3.0 * base_l3,
            cold_start_penalty=np.array(
                [p.cold_start_penalty for p in profiles], dtype=np.float64),
            cold_indices=tuple(i for i, p in enumerate(profiles)
                               if p.cold_start_penalty != 0.0),
        )


class InterferenceModel:
    """The two parameters of the contention model (see the module notes)."""

    def __init__(self, cold_start_scale: float = 0.08,
                 miss_rate_coupling: float = 0.9):
        """Args:
            cold_start_scale: CPU-usage scale (CPU-sec/sec) of the cold-start
                penalty's exponential decay; at usage = scale the penalty has
                fallen to ~37% of its maximum.
            miss_rate_coupling: fraction of CPI inflation that shows up as L3
                miss-rate inflation, producing Figure 15c's linear relation.
        """
        if not (math.isfinite(cold_start_scale) and cold_start_scale > 0):
            raise ValueError(f"cold_start_scale must be finite and positive, "
                             f"got {cold_start_scale}")
        if not (math.isfinite(miss_rate_coupling) and miss_rate_coupling >= 0):
            raise ValueError(f"miss_rate_coupling must be finite and >= 0, "
                             f"got {miss_rate_coupling}")
        self.cold_start_scale = cold_start_scale
        self.miss_rate_coupling = miss_rate_coupling
