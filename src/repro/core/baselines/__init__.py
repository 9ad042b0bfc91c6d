"""Baseline antagonist-identification schemes CPI2 is compared against.

Section 4.2 sketches the obvious alternative: "An active scheme might
rank-order a list of suspects based on heuristics like CPU usage and cache
miss rate, and temporarily throttle them back one by one to see if the CPI
of the victim task improves.  Unfortunately, this simple approach may
disrupt many innocent tasks."

* :class:`~repro.core.baselines.active_probe.ActiveProbeIdentifier` — that
  scheme, with disruption accounting, so the ablation benchmark can quantify
  the paper's objection.
* :func:`~repro.core.baselines.usage_ranker.rank_by_usage` — the passive
  heuristic (accuse the top CPU user) without correlation.
* :class:`~repro.core.baselines.duty_cycle.DutyCycleThrottler` — the
  Section 8 per-core hardware actuator the paper rejected, with its
  collateral modelled.
"""

from repro.core.baselines.active_probe import ActiveProbeIdentifier, ProbeReport
from repro.core.baselines.usage_ranker import rank_by_usage
from repro.core.baselines.duty_cycle import DutyCycleAction, DutyCycleThrottler

__all__ = [
    "ActiveProbeIdentifier",
    "ProbeReport",
    "rank_by_usage",
    "DutyCycleAction",
    "DutyCycleThrottler",
]
