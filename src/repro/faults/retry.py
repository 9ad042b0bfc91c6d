"""Reliable-enough sample upload: retries, backoff, acks, dedup.

The upward path of the paper's Figure 6 pipeline — per-task CPI samples
leaving every machine for the aggregation service — becomes, under a
faulty transport, a classic at-least-once delivery problem:

* the machine-side :class:`UploadClient` sends each closed sampling window
  as one :class:`SampleBatch`, waits for an ack, and on timeout retries
  with exponential backoff plus jitter (:class:`~repro.faults.profile.
  RetryPolicy`); batches that exhaust their attempts are abandoned with a
  counted reason, and the pending set is bounded by an explicit
  overflow-drop policy — nothing is ever lost silently;
* the service-side :class:`AggregatorEndpoint` ingests batches, dedupes
  redelivered ``batch_id``s (so duplicate delivery is idempotent — it
  re-acks without re-ingesting), and sends acks back through its own
  faulty link.

At-least-once plus endpoint dedup yields effectively-exactly-once ingest
for every batch that gets through at all, which is what keeps the CPI
specs unbiased under duplication faults.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.faults.profile import RetryPolicy
from repro.obs import Observability
from repro.records import CpiSample

__all__ = ["SampleBatch", "Ack", "UploadClient", "AggregatorEndpoint"]

#: Upload end-to-end latency buckets (seconds from first send to ack).
_LATENCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


@dataclass(frozen=True)
class SampleBatch:
    """One machine's closed sampling window, as shipped over the wire."""

    batch_id: str
    machine: str
    sent_at: int
    samples: tuple[CpiSample, ...]


@dataclass(frozen=True)
class Ack:
    """The aggregator's receipt for one batch."""

    batch_id: str
    machine: str


@dataclass
class _PendingBatch:
    """Client-side state for one batch awaiting ack."""

    batch: SampleBatch
    first_sent_at: int
    attempts: int = 1
    #: When the current in-flight attempt counts as timed out.
    deadline: int = 0
    #: When the next resend fires, once the current attempt timed out.
    retry_at: Optional[int] = None


class UploadClient:
    """Machine-side sample uploader: send, await ack, back off, retry."""

    def __init__(
        self,
        machine_name: str,
        send: Callable[[int, SampleBatch], None],
        policy: RetryPolicy,
        rng: np.random.Generator,
        obs: Optional[Observability] = None,
    ):
        """Args:
            machine_name: the uploading machine (batch ids embed it).
            send: the uplink's ``send`` — called for every (re)send.
            policy: retry/backoff/queue discipline.
            rng: private generator for backoff jitter.
            obs: telemetry handle.
        """
        self.machine_name = machine_name
        self.send = send
        self.policy = policy
        self.rng = rng
        self.obs = obs
        self._pending: "OrderedDict[str, _PendingBatch]" = OrderedDict()
        self._next_batch = 0
        self.batches_sent = 0
        self.batches_acked = 0
        self.batches_abandoned = 0
        self.batches_overflowed = 0

    # -- submission -------------------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(name, machine=self.machine_name,
                                     **labels).inc()

    def _evict_for_overflow(self, t: int, incoming: SampleBatch) -> bool:
        """Apply the overflow policy; returns False if ``incoming`` was
        rejected (drop-newest), True if room was made (drop-oldest)."""
        self.batches_overflowed += 1
        self._count("resend_queue_overflow", policy=self.policy.overflow)
        if self.policy.overflow == "drop-newest":
            if self.obs is not None:
                self.obs.events.event(
                    "resend_queue_overflow", machine=self.machine_name,
                    policy="drop-newest", dropped=incoming.batch_id,
                    samples=len(incoming.samples))
            return False
        dropped_id, dropped = self._pending.popitem(last=False)
        if self.obs is not None:
            self.obs.events.event(
                "resend_queue_overflow", machine=self.machine_name,
                policy="drop-oldest", dropped=dropped_id,
                samples=len(dropped.batch.samples),
                waited=t - dropped.first_sent_at)
        return True

    def upload(self, t: int, samples: list[CpiSample]) -> Optional[str]:
        """Ship one window's samples; returns the batch id, or ``None`` if
        the resend queue rejected it (drop-newest overflow)."""
        batch = SampleBatch(
            batch_id=f"{self.machine_name}/{self._next_batch}",
            machine=self.machine_name,
            sent_at=t,
            samples=tuple(samples),
        )
        self._next_batch += 1
        if len(self._pending) >= self.policy.queue_limit:
            if not self._evict_for_overflow(t, batch):
                return None
        self._pending[batch.batch_id] = _PendingBatch(
            batch=batch, first_sent_at=t, attempts=1,
            deadline=t + self.policy.timeout)
        self.batches_sent += 1
        self._count("upload_batches_sent")
        self.send(t, batch)
        return batch.batch_id

    # -- acks -------------------------------------------------------------------

    def on_ack(self, t: int, ack: Ack) -> None:
        """Handle one (possibly duplicated, possibly late) ack."""
        pending = self._pending.pop(ack.batch_id, None)
        if pending is None:
            # A duplicate or post-abandonment ack; counted, then ignored.
            self._count("upload_acks_ignored")
            return
        self.batches_acked += 1
        self._count("upload_batches_acked")
        if self.obs is not None:
            self.obs.metrics.histogram(
                "upload_ack_latency", buckets=_LATENCY_BUCKETS,
            ).observe(t - pending.first_sent_at)

    # -- the retry loop ---------------------------------------------------------

    def pump(self, t: int) -> None:
        """Advance timeouts and fire due resends.  Call once per tick."""
        for batch_id in list(self._pending):
            pending = self._pending.get(batch_id)
            if pending is None:
                continue
            if pending.retry_at is not None:
                if t >= pending.retry_at:
                    pending.retry_at = None
                    pending.attempts += 1
                    pending.deadline = t + self.policy.timeout
                    self._count("upload_retries")
                    self.send(t, pending.batch)
                continue
            if t < pending.deadline:
                continue
            # The in-flight attempt timed out.
            self._count("upload_timeouts")
            if pending.attempts >= self.policy.max_attempts:
                del self._pending[batch_id]
                self.batches_abandoned += 1
                self._count("upload_batches_abandoned")
                if self.obs is not None:
                    self.obs.events.event(
                        "upload_abandoned", machine=self.machine_name,
                        batch=batch_id, attempts=pending.attempts,
                        samples=len(pending.batch.samples))
                continue
            backoff = self.policy.backoff(pending.attempts, self.rng)
            pending.retry_at = t + max(1, int(round(backoff)))

    @property
    def pending_batches(self) -> int:
        """Batches currently awaiting ack or resend."""
        return len(self._pending)


class AggregatorEndpoint:
    """Service-side receiver: ingest once per batch id, ack every arrival."""

    #: Remembered batch ids; old entries are evicted FIFO past this bound.
    DEDUP_WINDOW = 4096

    def __init__(
        self,
        sink: Callable[[int, SampleBatch], None],
        ack: Callable[[int, Ack], None],
        obs: Optional[Observability] = None,
        gate: Optional[Callable[[], bool]] = None,
    ):
        """Args:
            sink: called with (time, batch) once per accepted
                non-duplicate batch — the hostless plane ingests it
                straight into the aggregator, the durable host WAL-logs it
                first, a shard worker records it for the coordinator.
            ack: called with (time, Ack) for every arrival — duplicates
                are re-acked so a client whose ack got dropped stops
                retrying.
            obs: telemetry handle.
            gate: availability check — while it returns False the endpoint
                refuses every batch (no ack, no dedup mark, counted), the
                way a down aggregation service drops connections; clients
                ride it out on their retry/backoff schedule.
        """
        self.sink = sink
        self.ack = ack
        self.obs = obs
        self.gate = gate
        self._seen: "OrderedDict[str, None]" = OrderedDict()
        self.batches_received = 0
        self.duplicates_ignored = 0
        self.batches_refused = 0

    def receive(self, t: int, batch: SampleBatch) -> None:
        """Handle one delivered batch (possibly a duplicate)."""
        if self.gate is not None and not self.gate():
            # Service down: the batch vanishes exactly as if the process
            # had dropped the connection.  No dedup mark and — crucially —
            # no ack: the client keeps the batch pending and redelivers
            # after the outage, which is what reconvergence rides on.
            self.batches_refused += 1
            if self.obs is not None:
                self.obs.metrics.counter("aggregator_batches_refused").inc()
                self.obs.events.event("aggregator_batch_refused",
                                      batch=batch.batch_id,
                                      machine=batch.machine)
            return
        if batch.batch_id in self._seen:
            self.duplicates_ignored += 1
            if self.obs is not None:
                self.obs.metrics.counter("aggregator_duplicate_batches").inc()
        else:
            self._seen[batch.batch_id] = None
            while len(self._seen) > self.DEDUP_WINDOW:
                self._seen.popitem(last=False)
            self.batches_received += 1
            if self.obs is not None:
                self.obs.metrics.counter("aggregator_batches_received").inc()
            self.sink(t, batch)
        self.ack(t, Ack(batch_id=batch.batch_id, machine=batch.machine))

    # -- durable dedup state -----------------------------------------------------

    def export_dedup_state(self) -> dict:
        """The dedup watermark as a JSON-able dict (snapshot payload)."""
        return {"seen": list(self._seen), "received": self.batches_received,
                "duplicates": self.duplicates_ignored}

    def restore_dedup_state(self, state: dict) -> None:
        """Install a watermark exported by :meth:`export_dedup_state`."""
        self._seen = OrderedDict((batch_id, None)
                                 for batch_id in state["seen"])
        self.batches_received = state["received"]
        self.duplicates_ignored = state["duplicates"]

    def reset_state(self) -> None:
        """Forget the dedup watermark — the crash half of crash/restore.

        ``batches_refused`` survives: refusals are observed (and counted)
        by the surviving fabric, not by the process that died.
        """
        self._seen = OrderedDict()
        self.batches_received = 0
        self.duplicates_ignored = 0
