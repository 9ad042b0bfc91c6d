"""Reference trial stepping: a trial's machine and sampler ticked at every
second.

:func:`advance_sampled` has the signature and yields of
:func:`repro.experiments.trials.advance_sampled`, one second at a time:
``Machine.tick`` and ``CpiSampler.tick`` at every second, each second's
grants read from its ``TickResult``.  Tests patch it into
:mod:`repro.experiments.trials`, so any difference from the production
trial comes from how the seconds are stepped.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.cluster.machine import Machine
from repro.perf.sampler import CpiSampler


def advance_sampled(machine: Machine, sampler: CpiSampler, start: int,
                    end: int
                    ) -> Iterator[tuple[list[list[float]], Iterable]]:
    """Seconds ``[start, end)``, the machine then the sampler at each."""
    for t in range(start, end):
        grants = list(machine.tick(t).grants.values())
        yield [grants], sampler.tick(t)
