"""Fault injection for the CPI2 sample/spec control loop.

The paper's Figure 6 pipeline crosses a real fleet network twice — CPI
samples up to the aggregation service, specs back down to every machine —
and real fleets drop, delay, duplicate, reorder, and corrupt that traffic
while agents crash underneath it.  This package makes those failures
injectable and *measurable*:

* :mod:`repro.faults.profile` — :class:`FaultProfile` /
  :class:`LinkFaults` / :class:`RetryPolicy` and the named presets in
  :data:`FAULT_PROFILES` (``none`` / ``light`` / ``moderate`` / ``heavy``).
* :mod:`repro.faults.transport` — :class:`FaultyLink`, the seeded
  drop/delay/duplicate/reorder/corrupt channel.
* :mod:`repro.faults.retry` — at-least-once uploads
  (:class:`UploadClient`: timeouts, exponential backoff with jitter,
  bounded resend queue) and the deduplicating
  :class:`AggregatorEndpoint`.
* :mod:`repro.faults.quarantine` — plausibility validators for samples
  and specs, and the corrupters that damage payloads in flight.
* :mod:`repro.faults.checkpoint` — :class:`AgentCheckpoint` (serialisable
  outlier-window + follow-up state) and :class:`CrashInjector`.
* :mod:`repro.faults.plane` — :class:`FaultPlane`, wiring all of the
  above into one deployment.

Pass ``fault_profile=/fault_seed=`` to
:class:`~repro.core.pipeline.CpiPipeline` (or ``--fault-profile`` /
``--fault-seed`` to the demo CLI) to turn it on; a zero profile bypasses
the plane entirely, keeping default runs byte-identical.  See
``docs/robustness.md`` for the fault model and degraded-mode rules.
"""

from repro.faults.checkpoint import (
    AgentCheckpoint,
    CrashInjector,
    FollowUpState,
)
from repro.faults.plane import FaultPlane, SpecPush
from repro.faults.profile import (
    FAULT_PROFILES,
    FaultProfile,
    LinkFaults,
    RetryPolicy,
    resolve_fault_profile,
)
from repro.faults.quarantine import (
    quarantine_reason,
    spec_is_plausible,
)
from repro.faults.retry import (
    Ack,
    AggregatorEndpoint,
    SampleBatch,
    UploadClient,
)
from repro.faults.transport import FaultyLink, Message

__all__ = [
    "AgentCheckpoint",
    "CrashInjector",
    "FollowUpState",
    "FaultPlane",
    "SpecPush",
    "FAULT_PROFILES",
    "FaultProfile",
    "LinkFaults",
    "RetryPolicy",
    "resolve_fault_profile",
    "quarantine_reason",
    "spec_is_plausible",
    "Ack",
    "AggregatorEndpoint",
    "SampleBatch",
    "UploadClient",
    "FaultyLink",
    "Message",
]
