"""Composable CPU-demand functions, with declarative spec forms.

A demand function maps simulation time (seconds) to desired CPU usage in
CPU-sec/sec.  Workloads are assembled from these small combinators; the case
studies each need a specific temporal shape (bursty antagonists, bimodal
self-inflicted victims, steady services, diurnal load) and these express
them directly: two leaf shapes (:func:`constant`, :func:`on_off`) under
optional :func:`scaled` factors, an optional :func:`with_noise` over them
and an optional outermost :func:`gated`.

Every combinator returns an ordinary callable *and* attaches a frozen
``spec`` attribute describing it declaratively (:class:`ConstantSpec`,
:class:`OnOffSpec`, ...).  The columnar demand plane
(:mod:`repro.cluster.demandplane`) compiles those specs into
struct-of-arrays programs so a whole fleet's demand for one tick is a
handful of numpy ufunc passes; a demand function without a recognised spec
(a hand-written lambda, an unsupported composition) simply makes its
machine fall back to calling the closures — the closures here remain the
scalar reference semantics either way.

Spec contract: a spec must describe the closure *exactly* — same value,
bit for bit, for every ``t`` — and a callable carrying a ``spec`` must be
pure (its output determined by ``t`` and the spec alone).  The one
exception is :class:`NoiseSpec`, which names the stream its closure draws
from so the compiled form can consume the identical RNG sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.cluster.demandplane import NormalStream

__all__ = [
    "DemandFn",
    "DemandSpec",
    "ConstantSpec",
    "OnOffSpec",
    "ScaledSpec",
    "NoiseSpec",
    "GatedSpec",
    "demand_spec",
    "noise_stream",
    "constant",
    "on_off",
    "bimodal",
    "with_noise",
    "scaled",
    "gated",
]

#: Seconds -> CPU-sec/sec.
DemandFn = Callable[[int], float]


# -- spec forms ---------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSpec:
    """Spec of :func:`constant`."""

    level: float


@dataclass(frozen=True)
class OnOffSpec:
    """Spec of :func:`on_off` (and :func:`bimodal`, which delegates to it)."""

    on_level: float
    off_level: float
    period: int
    on_seconds: float   # duty * period, precomputed exactly as the closure does
    phase: int


@dataclass(frozen=True)
class ScaledSpec:
    """Spec of :func:`scaled`.

    ``factor`` is the factor callable itself; it is compilable only when it
    carries its own ``spec`` attribute (e.g.
    :class:`~repro.workloads.diurnal.DiurnalPattern`), which asserts it is
    pure so tasks whose factors have equal specs may share one evaluation.
    """

    base: Optional["DemandSpec"]
    factor: Callable[[int], float]


@dataclass(frozen=True)
class NoiseSpec:
    """Spec of :func:`with_noise`: log-normal noise from a named generator.

    ``stream`` is the generator's one
    :class:`~repro.cluster.demandplane.NormalStream`, shared with the
    closure (and with any other model that draws the same generator, see
    :func:`noise_stream`).  Every consumer takes its draws from it, so a
    compiled program may buffer the generator's normals in its noise block
    and the position stays exact across step-downs and recompiles.
    """

    base: Optional["DemandSpec"]
    sigma: float
    stream: NormalStream

    @property
    def rng(self) -> np.random.Generator:
        """The generator the noise is drawn from."""
        return self.stream.rng


@dataclass(frozen=True)
class GatedSpec:
    """Spec of :func:`gated`: ``base`` from second ``start`` on, 0.0 (and
    no call of ``base``, so no draw) before it."""

    base: Optional["DemandSpec"]
    start: int


DemandSpec = Union[ConstantSpec, OnOffSpec, ScaledSpec, NoiseSpec, GatedSpec]


def demand_spec(fn: DemandFn) -> Optional[DemandSpec]:
    """The declarative spec of ``fn``, or ``None`` for opaque callables."""
    return getattr(fn, "spec", None)


def noise_stream(rng: np.random.Generator, demand: DemandFn) -> NormalStream:
    """The stream another model of a workload must draw ``rng`` through.

    When ``demand`` is a :func:`with_noise` over the same generator, that
    is the demand's own stream, so the generator keeps one cursor (and
    stays private, eligible for the demand plane's noise block);
    otherwise a fresh stream over ``rng``.
    """
    spec = demand_spec(demand)
    if isinstance(spec, NoiseSpec) and spec.rng is rng:
        return spec.stream
    return NormalStream(rng)


# -- combinators --------------------------------------------------------------


def constant(level: float) -> DemandFn:
    """Steady demand of ``level`` CPU-sec/sec."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")

    def fn(t: int) -> float:
        return level

    fn.spec = ConstantSpec(level)
    return fn


def on_off(on_level: float, off_level: float, period: int,
           duty: float = 0.5, phase: int = 0) -> DemandFn:
    """Square-wave demand: ``on_level`` for ``duty`` of each ``period``.

    This is the canonical bursty-antagonist shape: CPU usage spikes that a
    victim's CPI spikes will correlate with.

    Args:
        on_level: demand while on.
        off_level: demand while off.
        period: cycle length in seconds.
        duty: fraction of the period spent on (0..1).
        phase: offset in seconds (lets many tasks desynchronise).
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty must be in [0, 1], got {duty}")
    if on_level < 0 or off_level < 0:
        raise ValueError("levels must be >= 0")
    on_seconds = duty * period

    def fn(t: int) -> float:
        return on_level if ((t + phase) % period) < on_seconds else off_level

    fn.spec = OnOffSpec(on_level, off_level, period, on_seconds, phase)
    return fn


def bimodal(low_level: float, high_level: float, period: int,
            low_fraction: float = 0.5, phase: int = 0) -> DemandFn:
    """Case 3's shape: the task alternates between near-idle and active.

    When near-idle its CPI rises (cold caches) without any antagonist; the
    0.25 CPU-sec/sec usage gate exists to filter exactly this false alarm.
    """
    return on_off(on_level=low_level, off_level=high_level,
                  period=period, duty=low_fraction, phase=phase)


def with_noise(base: DemandFn, sigma: float,
               rng: np.random.Generator) -> DemandFn:
    """Multiply a demand function by log-normal noise, clipped at zero.

    Each call draws fresh noise, so call once per simulated second (which is
    what the machine tick does).
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return base

    _exp = np.exp
    stream = NormalStream(rng)
    take = stream.take

    def fn(t: int) -> float:
        # sigma * standard_normal() is bit-identical to normal(0.0, sigma)
        # (same ziggurat draw, and adding loc 0.0 is the identity), and
        # ``d if d > 0.0 else 0.0`` matches max(0.0, d) for every float
        # including NaN.  This runs once per task per simulated second, so
        # it is one of the hottest expressions in the whole simulator.
        # The draw goes through the generator's one stream, which a
        # compiled program may be buffering (see NoiseSpec.stream).
        d = base(t) * float(_exp(sigma * take()))
        return d if d > 0.0 else 0.0

    fn.spec = NoiseSpec(demand_spec(base), sigma, stream)
    return fn


def scaled(base: DemandFn, factor_fn: Callable[[int], float]) -> DemandFn:
    """Modulate ``base`` by a time-varying factor (e.g. a diurnal pattern)."""

    def fn(t: int) -> float:
        # The same NaN-safe clamp as with_noise and the machine tick: a
        # factor that misbehaves (NaN, -inf) yields zero demand, never a
        # NaN that would poison the allocation arithmetic downstream.
        d = base(t) * factor_fn(t)
        return d if d > 0.0 else 0.0

    fn.spec = ScaledSpec(demand_spec(base), factor_fn)
    return fn


def gated(base: DemandFn, start: int) -> DemandFn:
    """Silence ``base`` before second ``start``.

    Before ``start`` the closure returns 0.0 without calling ``base``, so
    a noisy ``base`` draws nothing from its generator there.
    """

    def fn(t: int) -> float:
        return 0.0 if t < start else base(t)

    fn.spec = GatedSpec(demand_spec(base), start)
    return fn
