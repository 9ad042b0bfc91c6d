"""The base synthetic workload: glue between demand functions and the simulator.

:class:`SyntheticWorkload` implements the cluster's
:class:`~repro.cluster.task.WorkloadModel` protocol from pluggable parts —
a demand function, a resource profile, a base CPI (optionally modulated over
time, e.g. by a diurnal instruction-mix drift), and a thread-count function.
Domain workloads (web-search tiers, batch/MapReduce, antagonists) specialise
it rather than reimplementing the protocol.

:class:`TransactionCounter` converts retired-instruction deltas into
application transactions, which is how the Figure 2 harness gets a TPS series
to correlate against IPS: in a real batch job the two are linked by the
(mildly varying) instruction cost of a transaction.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cluster.demandplane import NormalStream
from repro.cluster.interference import ResourceProfile
from repro.workloads.demand import DemandFn

__all__ = ["SyntheticWorkload", "TransactionCounter"]


class SyntheticWorkload:
    """A concrete workload assembled from pluggable pieces."""

    #: While a fleet with batch accounting steps this workload, its
    #: ``granted_cpu_seconds`` is row ``_granted_row`` of that fleet's
    #: ``granted`` column (see :meth:`_bind_granted`); otherwise ``None``.
    _granted_column: Optional[np.ndarray] = None

    def __init__(
        self,
        base_cpi: float,
        profile: ResourceProfile,
        demand: DemandFn,
        threads: int | Callable[[int], int] = 8,
        cpi_modulation: Optional[Callable[[int], float]] = None,
    ):
        """Args:
            base_cpi: contention-free CPI on the reference platform.
            profile: shared-resource pressure/sensitivity.
            demand: CPU demand over time.
            threads: thread count, fixed or time-varying.
            cpi_modulation: optional multiplier on base CPI over time
                (instruction-mix drift; Figure 5's diurnal component).
        """
        if base_cpi <= 0:
            raise ValueError(f"base_cpi must be positive, got {base_cpi}")
        self._base_cpi = base_cpi
        self._profile = profile
        self._demand = demand
        self._threads = threads
        self._cpi_modulation = cpi_modulation
        self._now = 0
        self._granted = 0.0

    # -- WorkloadModel protocol -------------------------------------------------

    def cpu_demand(self, t: int) -> float:
        """Desired CPU-sec/sec at time ``t``."""
        # NaN-safe clamp: ``max(0.0, d)`` would be argument-order-sensitive
        # for NaN; the branch form returns 0.0 for every non-positive and
        # non-finite demand, matching with_noise/scaled and the tick loop.
        d = self._demand(t)
        return d if d > 0.0 else 0.0

    def base_cpi(self) -> float:
        """Current contention-free CPI (modulation applied at the last tick)."""
        if self._cpi_modulation is None:
            return self._base_cpi
        return self._base_cpi * max(1e-6, self._cpi_modulation(self._now))

    def resource_profile(self) -> ResourceProfile:
        """The workload's shared-resource profile (read once per placement)."""
        return self._profile

    def thread_count(self, t: int) -> int:
        """Threads alive at ``t``."""
        if callable(self._threads):
            return max(0, int(self._threads(t)))
        return self._threads

    def on_tick(self, t: int, granted_usage: float, capped: bool) -> Optional[str]:
        """Record execution; subclasses may return a departure outcome."""
        self._now = t
        if self._granted_column is not None:
            self._unbind_granted()
        self._granted += granted_usage
        return None

    # -- accounting -------------------------------------------------------------

    @property
    def granted_cpu_seconds(self) -> float:
        """CPU-seconds granted so far, summed tick by tick."""
        column = self._granted_column
        if column is None:
            return self._granted
        return column.item(self._granted_row)

    @granted_cpu_seconds.setter
    def granted_cpu_seconds(self, value: float) -> None:
        column = self._granted_column
        if column is None:
            self._granted = value
        else:
            column[self._granted_row] = value

    def _bind_granted(self, column: np.ndarray, row: int) -> None:
        """Keep ``granted_cpu_seconds`` in ``column[row]`` from now on.

        A fleet whose workloads all use this class's ``on_tick`` (plain
        accounting) binds each to its row of the fleet's ``granted``
        column and adds a tick's grants to the whole column in one pass;
        the workload's own ``on_tick`` unbinds it again, and so does
        :meth:`~repro.cluster.machine.Machine.remove`.
        """
        column[row] = self.granted_cpu_seconds
        self._granted_column = column
        self._granted_row = row

    def _unbind_granted(self) -> None:
        """Copy ``granted_cpu_seconds`` out of its column back into this
        workload, so the column (and the fleet holding it) can go."""
        self._granted = self.granted_cpu_seconds
        self._granted_column = None


class TransactionCounter:
    """Derives application transactions from retired instructions.

    ``transactions = instructions / cost`` where the per-transaction
    instruction cost wanders slowly (an AR(1) walk around its mean) and each
    reading carries small measurement noise.  The wander is what keeps the
    paper's Figure 2 correlation at 0.97 rather than 1.0.

    Both draws go through a :class:`~repro.cluster.demandplane.NormalStream`
    (:meth:`~repro.cluster.demandplane.NormalStream.normal`, bit-identical
    to ``rng.normal(0.0, sigma)``), so a counter that shares its generator
    with a ``with_noise`` demand (see
    :func:`~repro.workloads.demand.noise_stream`) shares its one cursor
    too, and the demand plane may still buffer that generator.
    """

    def __init__(
        self,
        instructions_per_transaction: float,
        rng: np.random.Generator | NormalStream,
        cost_wander: float = 0.02,
        measurement_noise: float = 0.01,
    ):
        """Args:
            instructions_per_transaction: mean instruction cost of one
                application transaction.
            rng: noise source: a generator, or the stream that already
                draws it.
            cost_wander: stationary stddev (fractional) of the cost walk.
            measurement_noise: per-reading fractional noise.
        """
        if instructions_per_transaction <= 0:
            raise ValueError("instructions_per_transaction must be positive, "
                             f"got {instructions_per_transaction}")
        if cost_wander < 0 or measurement_noise < 0:
            raise ValueError("noise parameters must be >= 0")
        self.mean_cost = instructions_per_transaction
        self.stream = rng if isinstance(rng, NormalStream) else NormalStream(rng)
        self.cost_wander = cost_wander
        self.measurement_noise = measurement_noise
        self._drift = 0.0

    def transactions_for(self, instructions: float) -> float:
        """Transactions completed by ``instructions`` retired instructions."""
        if instructions < 0:
            raise ValueError(f"instructions must be >= 0, got {instructions}")
        # AR(1): drift' = 0.9 drift + noise; stationary sigma = cost_wander.
        innovation_sigma = self.cost_wander * np.sqrt(1.0 - 0.9 ** 2)
        self._drift = 0.9 * self._drift + float(
            self.stream.normal(innovation_sigma))
        cost = self.mean_cost * (1.0 + self._drift)
        reading = instructions / cost
        if self.measurement_noise > 0.0:
            reading *= 1.0 + float(self.stream.normal(self.measurement_noise))
        return max(0.0, reading)
