"""Reference noise consumers: every draw a scalar call on the generator.

In ``src/`` every consumer of a generator's normals — a ``with_noise``
closure, the compiled demand program's noise block, a
``TransactionCounter``, a ``LatencyModel`` — draws through the generator's
one ``NormalStream``, which a program may buffer 256 draws at a time.
These stand-ins draw straight from the generator, one
``rng.standard_normal()`` / ``rng.normal(0.0, sigma)`` per value, in call
order: the sequence the buffered path must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np


def noisy_level(level: float, sigma: float, rng: np.random.Generator):
    """``with_noise(constant(level), sigma, rng)``, drawn per call.

    Carries no ``spec``, so a table holding it runs its closures.
    """

    def fn(t: int) -> float:
        d = level * float(np.exp(sigma * rng.standard_normal()))
        return d if d > 0.0 else 0.0

    return fn


class ScalarTransactionCounter:
    """``TransactionCounter.transactions_for``, drawing from ``rng`` itself."""

    def __init__(self, instructions_per_transaction: float,
                 rng: np.random.Generator, cost_wander: float = 0.02,
                 measurement_noise: float = 0.01):
        self.mean_cost = instructions_per_transaction
        self.rng = rng
        self.cost_wander = cost_wander
        self.measurement_noise = measurement_noise
        self._drift = 0.0

    def transactions_for(self, instructions: float) -> float:
        innovation_sigma = self.cost_wander * np.sqrt(1.0 - 0.9 ** 2)
        self._drift = 0.9 * self._drift + float(
            self.rng.normal(0.0, innovation_sigma))
        reading = instructions / (self.mean_cost * (1.0 + self._drift))
        if self.measurement_noise > 0.0:
            reading *= 1.0 + float(self.rng.normal(0.0,
                                                   self.measurement_noise))
        return max(0.0, reading)
