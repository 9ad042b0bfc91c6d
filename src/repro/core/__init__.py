"""CPI2 proper: the paper's primary contribution.

The pipeline (paper Figure 6): per-machine agents sample per-task CPI once a
minute; samples flow to a cluster-level aggregator that computes smoothed
per-(job, platform) *CPI specs*; specs flow back to the agents, which detect
outliers locally, correlate victims against co-tenant CPU usage to identify
antagonists, and (optionally) hard-cap the antagonists so victims recover.

Public entry points:

* :class:`~repro.core.config.CpiConfig` — Table 2's parameters.
* :class:`~repro.core.aggregator.CpiAggregator` — spec learning.
* :class:`~repro.core.outlier.OutlierDetector` — local anomaly detection.
* :func:`~repro.core.correlation.antagonist_correlation` — Section 4.2's formula.
* :func:`~repro.core.identify.rank_cotenant_suspects` — Section 4.2 ranking
  of every co-tenant at once (one usage matrix).
* :class:`~repro.core.agent.MachineAgent` — everything wired together per machine.
* :class:`~repro.core.pipeline.CpiPipeline` — the cluster-level loop.
* :class:`~repro.core.forensics.ForensicsStore` — offline incident queries.
"""

from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.records import CpiSample, CpiSpec, SpecKey
from repro.core.aggregator import CpiAggregator
from repro.core.outlier import OutlierDetector, AnomalyEvent
from repro.core.correlation import antagonist_correlation, SuspectScore
from repro.core.identify import (
    rank_cotenant_suspects,
    rank_suspects_matrix,
    suspect_usage_matrix,
)
from repro.core.window import ColumnarWindow
from repro.core.throttle import ThrottleController, AdaptiveCapController, CapAction
from repro.core.policy import AmeliorationPolicy, PolicyDecision, PolicyAction
from repro.core.agent import MachineAgent, Incident
from repro.core.pipeline import CpiPipeline
from repro.core.forensics import ForensicsStore, IncidentRecord
from repro.core.operator import ClusterStatus, OperatorConsole

__all__ = [
    "CpiConfig",
    "DEFAULT_CONFIG",
    "CpiSample",
    "CpiSpec",
    "SpecKey",
    "CpiAggregator",
    "OutlierDetector",
    "AnomalyEvent",
    "antagonist_correlation",
    "rank_cotenant_suspects",
    "rank_suspects_matrix",
    "suspect_usage_matrix",
    "ColumnarWindow",
    "SuspectScore",
    "ThrottleController",
    "AdaptiveCapController",
    "CapAction",
    "AmeliorationPolicy",
    "PolicyDecision",
    "PolicyAction",
    "MachineAgent",
    "Incident",
    "CpiPipeline",
    "ForensicsStore",
    "IncidentRecord",
    "ClusterStatus",
    "OperatorConsole",
]
