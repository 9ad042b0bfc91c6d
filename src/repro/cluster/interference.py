"""Shared-resource contention model: how co-runners inflate each other's CPI.

The paper deliberately does *not* diagnose which processor resource is
contended ("we do not attempt to determine which processor resources or
features are the point of contention").  CPI2 only needs the observable
consequence: when an antagonist with a large shared-resource appetite runs
hot, its neighbours' CPI rises, roughly in proportion to the antagonist's CPU
usage — that proportionality is exactly what the correlation detector of
Section 4.2 exploits.

This module produces that consequence from first principles:

* every task declares a :class:`ResourceProfile` — how much last-level cache
  and memory bandwidth it touches per CPU-second of execution, and how
  sensitive its own CPI is to pressure from others;
* each tick the machine computes a :class:`MachineContention` summary (total
  cache and bandwidth pressure, normalised to the platform's capacity);
* :class:`InterferenceModel` turns "pressure from everyone else" into a CPI
  inflation factor and an L3 miss-rate inflation for each task.

The model also covers two second-order effects the paper's case studies rely
on: CPI rising at near-zero CPU usage (case 3's bimodal "victim", the reason
for the 0.25 CPU-sec/sec gate) via a cold-start penalty, and L3
misses-per-instruction tracking CPI inflation (Figure 15c's 0.87 linear
correlation).

The methods of :class:`InterferenceModel` state the formulas one task at a
time; they are what the scalar reference tick (``tests/reference/tick.py``)
calls.  The tick itself evaluates the same formulas, operand for operand,
over a whole arena of tasks at once in :mod:`repro.cluster.fused`, reading
the model's two parameters and each task table's :class:`ProfileTable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.cluster.platform import Platform

__all__ = ["ResourceProfile", "MachineContention", "InterferenceModel",
           "ProfileTable"]


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
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")


@dataclass(frozen=True)
class MachineContention:
    """Aggregate shared-resource pressure on a machine during one tick.

    Pressure is normalised: 1.0 means the resident tasks together demand
    exactly the platform's capacity (full LLC, full memory bandwidth).
    Values above 1.0 are common on overcommitted machines.
    """

    cache_pressure: float
    membw_pressure: float

    #: Per-task contributions, keyed by task name, so "pressure from everyone
    #: else" can be computed by subtraction.
    cache_contrib: Mapping[str, float]
    membw_contrib: Mapping[str, float]

    def others_cache(self, task_name: str) -> float:
        """Cache pressure exerted by every task except ``task_name``."""
        return max(0.0, self.cache_pressure - self.cache_contrib.get(task_name, 0.0))

    def others_membw(self, task_name: str) -> float:
        """Memory-bandwidth pressure exerted by every task except ``task_name``."""
        return max(0.0, self.membw_pressure - self.membw_contrib.get(task_name, 0.0))


#: The saturation knee shared by the scalar and batched paths.
_SATURATE_KNEE = 0.35


def _saturate(pressure: float, knee: float = _SATURATE_KNEE) -> float:
    """Soft-saturating response to pressure.

    Linear for small pressure (so correlation with an antagonist's usage stays
    strong, which Section 4.2 needs) but sub-linear as pressure grows (caches
    can only be thrashed so hard).
    """
    if pressure <= 0.0:
        return 0.0
    return pressure / (1.0 + knee * pressure)


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
    #: ``3.0 * base_l3_mpki`` — the scalar :meth:`InterferenceModel.l2_mpki`
    #: computes this product every call; precomputing it is exact.
    l2_base_mpki: np.ndarray
    cold_start_penalty: np.ndarray
    #: Positions with a non-zero cold-start penalty (usually few or none);
    #: the cold-start factor is the one transcendental the batched path must
    #: evaluate with ``math.exp`` to stay bit-identical to the scalar path.
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
    """Turns machine contention into per-task CPI and miss-rate inflation."""

    def __init__(self, cold_start_scale: float = 0.08,
                 miss_rate_coupling: float = 0.9):
        """Args:
            cold_start_scale: CPU-usage scale (CPU-sec/sec) of the cold-start
                penalty's exponential decay; at usage = scale the penalty has
                fallen to ~37% of its maximum.
            miss_rate_coupling: fraction of CPI inflation that shows up as L3
                miss-rate inflation, producing Figure 15c's linear relation.
        """
        if cold_start_scale <= 0:
            raise ValueError(f"cold_start_scale must be positive, got {cold_start_scale}")
        if miss_rate_coupling < 0:
            raise ValueError(f"miss_rate_coupling must be >= 0, got {miss_rate_coupling}")
        self.cold_start_scale = cold_start_scale
        self.miss_rate_coupling = miss_rate_coupling

    def contention(
        self,
        platform: Platform,
        usages: Iterable[tuple[str, float, ResourceProfile]],
    ) -> MachineContention:
        """Aggregate pressure from ``(task_name, cpu_usage, profile)`` triples."""
        cache_contrib: dict[str, float] = {}
        membw_contrib: dict[str, float] = {}
        for name, usage, profile in usages:
            if usage < 0:
                raise ValueError(f"usage must be >= 0, got {usage} for {name}")
            cache_contrib[name] = usage * profile.cache_mib_per_cpu / platform.llc_mib
            membw_contrib[name] = usage * profile.membw_gbps_per_cpu / platform.membw_gbps
        return MachineContention(
            cache_pressure=sum(cache_contrib.values()),
            membw_pressure=sum(membw_contrib.values()),
            cache_contrib=cache_contrib,
            membw_contrib=membw_contrib,
        )

    def inflation(self, task_name: str, profile: ResourceProfile,
                  contention: MachineContention) -> float:
        """CPI inflation (0 = none) from everyone else's pressure."""
        cache = profile.cache_sensitivity * _saturate(contention.others_cache(task_name))
        membw = profile.membw_sensitivity * _saturate(contention.others_membw(task_name))
        return cache + membw

    def cold_start_factor(self, profile: ResourceProfile, usage: float) -> float:
        """Multiplicative CPI factor from running nearly idle (case 3)."""
        if profile.cold_start_penalty == 0.0:
            return 1.0
        return 1.0 + profile.cold_start_penalty * math.exp(
            -usage / self.cold_start_scale)

    def effective_cpi(
        self,
        task_name: str,
        base_cpi: float,
        profile: ResourceProfile,
        contention: MachineContention,
        platform: Platform,
        usage: float,
    ) -> float:
        """The CPI a task actually experiences this tick (before noise).

        ``base_cpi * platform_scale * (1 + inflation) * cold_start``.
        """
        if base_cpi <= 0:
            raise ValueError(f"base_cpi must be positive, got {base_cpi}")
        inflation = self.inflation(task_name, profile, contention)
        cold = self.cold_start_factor(profile, usage)
        return base_cpi * platform.cpi_scale * (1.0 + inflation) * cold

    def l3_mpki(self, task_name: str, profile: ResourceProfile,
                contention: MachineContention) -> float:
        """L3 misses per thousand instructions under current contention."""
        inflation = self.inflation(task_name, profile, contention)
        return profile.base_l3_mpki * (1.0 + self.miss_rate_coupling * inflation)

    def l2_mpki(self, task_name: str, profile: ResourceProfile,
                contention: MachineContention) -> float:
        """L2 misses per thousand instructions under current contention.

        The L2 is private, so co-runner contention barely moves it: its
        coupling to CPI inflation is a quarter of the (shared) L3's.  This is
        why Section 7.2 finds L3 misses/instruction the best-correlated
        memory metric — the substrate has to reproduce that asymmetry for the
        comparison to mean anything.
        """
        inflation = self.inflation(task_name, profile, contention)
        return (3.0 * profile.base_l3_mpki
                * (1.0 + 0.25 * self.miss_rate_coupling * inflation))
