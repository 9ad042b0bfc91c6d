"""CPI2: CPU performance isolation for shared compute clusters.

A full reproduction of Zhang, Tune, Hagmann, Jnagal, Gokhale & Wilkes,
"CPI2: CPU performance isolation for shared compute clusters" (EuroSys
2013), including the cluster/perf-counter substrates the paper ran on.

Quick tour::

    from repro import (
        CpiConfig, CpiPipeline, ClusterSimulation, Machine, Job,
        get_platform,
    )
    from repro.workloads import make_websearch_job_spec, make_antagonist_job_spec

See ``examples/quickstart.py`` for a complete victim-meets-antagonist run.
"""

from repro.cluster import (
    ClusterScheduler,
    ClusterSimulation,
    Job,
    JobSpec,
    Machine,
    PlacementError,
    Platform,
    PriorityBand,
    SchedulingClass,
    SimConfig,
    Task,
    TaskState,
    get_platform,
)
from repro.obs import (
    MetricsRegistry,
    Observability,
    StructuredLogger,
    Tracer,
    configure_logging,
    default_observability,
    render_metrics_report,
)
# core before faults: the agent imports faults.checkpoint, which imports
# core modules, so core's package init must be the one that starts it.
from repro.core import (
    AdaptiveCapController,
    ClusterStatus,
    OperatorConsole,
    AmeliorationPolicy,
    CpiAggregator,
    CpiConfig,
    CpiPipeline,
    CpiSample,
    CpiSpec,
    DEFAULT_CONFIG,
    ForensicsStore,
    Incident,
    MachineAgent,
    OutlierDetector,
    PolicyAction,
    ThrottleController,
    antagonist_correlation,
)
from repro.faults import (
    FAULT_PROFILES,
    AgentCheckpoint,
    FaultPlane,
    FaultProfile,
    LinkFaults,
    RetryPolicy,
    resolve_fault_profile,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # cluster substrate
    "ClusterScheduler",
    "ClusterSimulation",
    "Job",
    "JobSpec",
    "Machine",
    "PlacementError",
    "Platform",
    "PriorityBand",
    "SchedulingClass",
    "SimConfig",
    "Task",
    "TaskState",
    "get_platform",
    # CPI2 core
    "AdaptiveCapController",
    "AmeliorationPolicy",
    "ClusterStatus",
    "OperatorConsole",
    "CpiAggregator",
    "CpiConfig",
    "CpiPipeline",
    "CpiSample",
    "CpiSpec",
    "DEFAULT_CONFIG",
    "ForensicsStore",
    "Incident",
    "MachineAgent",
    "OutlierDetector",
    "PolicyAction",
    "ThrottleController",
    "antagonist_correlation",
    # fault injection / robustness
    "FAULT_PROFILES",
    "AgentCheckpoint",
    "FaultPlane",
    "FaultProfile",
    "LinkFaults",
    "RetryPolicy",
    "resolve_fault_profile",
    # observability
    "MetricsRegistry",
    "Observability",
    "StructuredLogger",
    "Tracer",
    "configure_logging",
    "default_observability",
    "render_metrics_report",
]
