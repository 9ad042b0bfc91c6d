"""Web-search workloads: the paper's flagship latency-sensitive application.

Section 3 validates CPI against a three-tier search service:

* **leaf** nodes do the heavy scoring work — their request latency tracks
  their CPI closely (Figure 3: r = 0.97 job-wide; Figure 4a: r ≈ 0.75 for
  individual 5-minute task samples);
* **intermediate** mixers aggregate leaf responses — still compute-heavy
  (Figure 4b: r ≈ 0.68);
* the **root** node's latency "is largely determined by the response time of
  other nodes, not the root node itself", so its latency correlates poorly
  with its own CPI (Figure 4c).

:class:`LatencyModel` encodes that tier-dependent coupling: latency is a
CPU-service-time component proportional to the node's CPI ratio plus a
fan-out component (waiting for the slowest of many children) that dominates
at the root.  Demand follows a diurnal pattern (Figure 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.cluster.demandplane import NormalStream
from repro.cluster.interference import ResourceProfile
from repro.cluster.job import JobSpec
from repro.cluster.task import PriorityBand, SchedulingClass
from repro.workloads.base import SyntheticWorkload
from repro.workloads.demand import constant, noise_stream, scaled, with_noise
from repro.workloads.diurnal import DiurnalPattern

__all__ = ["SearchTier", "LatencyModel", "WebSearchWorkload",
           "make_websearch_job_spec"]


class SearchTier(enum.Enum):
    """Position in the search fan-out tree."""

    LEAF = "leaf"
    INTERMEDIATE = "intermediate"
    ROOT = "root"


@dataclass(frozen=True)
class _TierTraits:
    """Per-tier workload characteristics."""

    base_cpi: float
    cpu_demand: float
    cpu_coupling: float     # fraction of latency that scales with own CPI
    fanout_sigma: float     # lognormal sigma of the wait-for-children component
    base_latency_ms: float
    profile: ResourceProfile


_TIER_TRAITS: dict[SearchTier, _TierTraits] = {
    SearchTier.LEAF: _TierTraits(
        base_cpi=1.45,
        cpu_demand=1.6,
        cpu_coupling=0.85,
        fanout_sigma=0.10,
        base_latency_ms=15.0,
        profile=ResourceProfile(
            cache_mib_per_cpu=1.0, membw_gbps_per_cpu=0.6,
            cache_sensitivity=0.9, membw_sensitivity=0.7, base_l3_mpki=2.0),
    ),
    SearchTier.INTERMEDIATE: _TierTraits(
        base_cpi=1.1,
        cpu_demand=1.0,
        cpu_coupling=0.78,
        fanout_sigma=0.10,
        base_latency_ms=25.0,
        profile=ResourceProfile(
            cache_mib_per_cpu=0.9, membw_gbps_per_cpu=0.5,
            cache_sensitivity=0.8, membw_sensitivity=0.6, base_l3_mpki=1.5),
    ),
    SearchTier.ROOT: _TierTraits(
        base_cpi=0.9,
        cpu_demand=0.6,
        cpu_coupling=0.08,
        fanout_sigma=0.35,
        base_latency_ms=60.0,
        profile=ResourceProfile(
            cache_mib_per_cpu=1.0, membw_gbps_per_cpu=0.5,
            cache_sensitivity=0.6, membw_sensitivity=0.5, base_l3_mpki=1.0),
    ),
}


class LatencyModel:
    """Request latency as a function of the node's own (normalised) CPI.

    ``latency = base * (cpu_coupling * cpi_ratio + (1 - cpu_coupling) * F)``
    where ``cpi_ratio`` is measured CPI over the job's baseline CPI and ``F``
    is a lognormal fan-out factor modelling the wait for the slowest child.
    Leaf nodes have high coupling and a tight fan-out term; the root is the
    reverse, reproducing Figure 4's contrast.  ``rng`` is a generator or
    the stream that already draws it (a search node passes its demand's).
    """

    def __init__(self, tier: SearchTier,
                 rng: np.random.Generator | NormalStream):
        self.tier = tier
        self.stream = rng if isinstance(rng, NormalStream) else NormalStream(rng)
        self._traits = _TIER_TRAITS[tier]

    def request_latency_ms(self, cpi_ratio: float) -> float:
        """Latency for a window whose measured CPI was ``cpi_ratio`` x baseline.

        Raises:
            ValueError: if ``cpi_ratio`` is not positive.
        """
        if cpi_ratio <= 0:
            raise ValueError(f"cpi_ratio must be positive, got {cpi_ratio}")
        traits = self._traits
        fanout = float(np.exp(self.stream.normal(traits.fanout_sigma)))
        mix = traits.cpu_coupling * cpi_ratio + (1.0 - traits.cpu_coupling) * fanout
        return traits.base_latency_ms * mix


class _CpiDrift:
    """A search node's base-CPI multiplier at second ``t``: CPI follows
    load with a reduced amplitude (heavier traffic means a slightly
    different, worse-locality instruction mix).

    Pure: the value depends on ``t``, the amplitude and the load pattern
    alone, which :attr:`spec` declares (with the pattern's own spec, as
    :class:`~repro.workloads.diurnal.DiurnalPattern` declares it), so the
    demand plane may evaluate it ahead of the tick that reads it.
    """

    __slots__ = ("pattern", "amplitude")

    def __init__(self, pattern: DiurnalPattern, amplitude: float) -> None:
        self.pattern = pattern
        self.amplitude = amplitude

    @property
    def spec(self) -> tuple:
        return ("websearch_cpi_drift", self.pattern.spec, self.amplitude)

    def __call__(self, t: int) -> float:
        pattern = self.pattern
        return 1.0 + self.amplitude * (pattern(t) - 1.0) / max(
            pattern.amplitude, 1e-9)


class WebSearchWorkload(SyntheticWorkload):
    """One search node: diurnal CPU demand plus a latency model."""

    def __init__(self, tier: SearchTier, rng: np.random.Generator,
                 diurnal: DiurnalPattern | None = None,
                 demand_scale: float = 1.0,
                 demand_noise: float = 0.05,
                 cpi_diurnal_amplitude: float = 0.04):
        """Args:
            tier: which search tier this node is.
            rng: per-task noise source.
            diurnal: the load pattern (a default evening-peaked one if None).
            demand_scale: multiplier on the tier's nominal CPU demand.
            demand_noise: per-second fractional demand noise.
            cpi_diurnal_amplitude: amplitude of instruction-mix CPI drift
                tied to the diurnal cycle (Figure 5's ~4% CV).
        """
        traits = _TIER_TRAITS[tier]
        pattern = diurnal or DiurnalPattern(amplitude=0.25)
        demand = with_noise(
            scaled(constant(traits.cpu_demand * demand_scale), pattern),
            demand_noise, rng)
        super().__init__(
            base_cpi=traits.base_cpi,
            profile=traits.profile,
            demand=demand,
            threads=32 if tier is SearchTier.LEAF else 16,
            cpi_modulation=(_CpiDrift(pattern, cpi_diurnal_amplitude)
                            if cpi_diurnal_amplitude > 0 else None),
        )
        self.tier = tier
        self.latency_model = LatencyModel(tier, noise_stream(rng, demand))

    def baseline_cpi(self) -> float:
        """The tier's nominal contention-free CPI (for latency normalisation)."""
        return _TIER_TRAITS[self.tier].base_cpi


def make_websearch_job_spec(
    name: str,
    tier: SearchTier,
    num_tasks: int,
    seed: int = 0,
    cpu_limit_per_task: float = 2.0,
    priority_band: PriorityBand = PriorityBand.PRODUCTION,
    diurnal: DiurnalPattern | None = None,
    demand_scale: float = 1.0,
) -> JobSpec:
    """A :class:`JobSpec` for one tier of a search service.

    Each task gets its own rng (seeded from ``seed`` and its index) so noise
    is independent across tasks, as it is across real processes.
    """

    def factory(index: int) -> WebSearchWorkload:
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        return WebSearchWorkload(tier=tier, rng=rng, diurnal=diurnal,
                                 demand_scale=demand_scale)

    return JobSpec(
        name=name,
        num_tasks=num_tasks,
        scheduling_class=SchedulingClass.LATENCY_SENSITIVE,
        priority_band=priority_band,
        cpu_limit_per_task=cpu_limit_per_task,
        workload_factory=factory,
    )
