"""Workload generators: the applications the paper's evaluation runs.

Production CPI2 watched real web-search tiers, MapReduce jobs, video
processing, scientific simulation and the rest of Google's mix.  These
modules provide synthetic equivalents with the properties each figure
depends on:

* latency-sensitive services whose request latency tracks their CPI
  (Figures 2-4), with diurnal load (Figure 5);
* batch jobs with measurable transaction rates (Figure 2), straggler
  handling, lame-duck mode under hard-capping (case 5) and give-up-and-exit
  behaviour (case 6);
* antagonist archetypes with large shared-cache/memory-bandwidth appetites
  and bursty CPU demand, so victims' CPI rises and falls with antagonist
  activity — the signal Section 4.2's correlation detector consumes.
"""

from repro.workloads.demand import (
    DemandFn,
    constant,
    on_off,
    bimodal,
    with_noise,
    scaled,
)
from repro.workloads.diurnal import DiurnalPattern
from repro.workloads.base import SyntheticWorkload, TransactionCounter
from repro.workloads.websearch import (
    SearchTier,
    WebSearchWorkload,
    LatencyModel,
    make_websearch_job_spec,
)
from repro.workloads.batch import (
    BatchWorkload,
    MapReduceWorker,
    MapReduceCoordinator,
    LameDuckBehavior,
    make_batch_job_spec,
    make_mapreduce_job_spec,
)
from repro.workloads.antagonists import (
    AntagonistKind,
    make_antagonist_workload,
    make_antagonist_job_spec,
)
from repro.workloads.mix import ClusterMix, MixStatistics
from repro.workloads.services import (
    make_service_workload,
    make_service_job_spec,
    make_bimodal_frontend_spec,
    make_gc_service_spec,
)

__all__ = [
    "DemandFn",
    "constant",
    "on_off",
    "bimodal",
    "with_noise",
    "scaled",
    "DiurnalPattern",
    "SyntheticWorkload",
    "TransactionCounter",
    "SearchTier",
    "WebSearchWorkload",
    "LatencyModel",
    "make_websearch_job_spec",
    "BatchWorkload",
    "MapReduceWorker",
    "MapReduceCoordinator",
    "LameDuckBehavior",
    "make_batch_job_spec",
    "make_mapreduce_job_spec",
    "AntagonistKind",
    "make_antagonist_workload",
    "make_antagonist_job_spec",
    "ClusterMix",
    "MixStatistics",
    "make_service_workload",
    "make_service_job_spec",
    "make_bimodal_frontend_spec",
    "make_gc_service_spec",
]
