"""Cluster simulator substrate.

The paper runs CPI2 on Google's production cluster manager; this package is
the stand-in.  It models machines with a fixed CPU platform, tasks grouped
into jobs with priority bands and scheduling classes, cgroup-based CPU
accounting with CFS-style bandwidth control (the paper's hard-capping
actuator), a central scheduler with speculative overcommit for batch work,
and a shared-resource interference model that inflates a task's CPI as a
function of its co-runners' cache and memory-bandwidth pressure.

CPI2 itself (``repro.core``) only touches this package through narrow
interfaces: it reads per-cgroup performance counters and actuates cgroup CPU
caps, exactly as the production system does.
"""

from repro.cluster.platform import Platform, PLATFORM_CATALOG, get_platform
from repro.cluster.task import (
    Task,
    TaskState,
    SchedulingClass,
    PriorityBand,
)
from repro.cluster.job import Job, JobSpec
from repro.cluster.cgroup import Cgroup, BandwidthCap
from repro.cluster.machine import Machine
from repro.cluster.interference import (
    InterferenceModel,
    ResourceProfile,
)
from repro.cluster.scheduler import ClusterScheduler, PlacementError
from repro.cluster.simulation import ClusterSimulation, SimConfig
from repro.cluster.trace import TracePoint, TraceRecorder, load_trace

__all__ = [
    "Platform",
    "PLATFORM_CATALOG",
    "get_platform",
    "Task",
    "TaskState",
    "SchedulingClass",
    "PriorityBand",
    "Job",
    "JobSpec",
    "Cgroup",
    "BandwidthCap",
    "Machine",
    "InterferenceModel",
    "ResourceProfile",
    "ClusterScheduler",
    "PlacementError",
    "ClusterSimulation",
    "SimConfig",
    "TracePoint",
    "TraceRecorder",
    "load_trace",
]
