"""Durable aggregator state: snapshot + WAL spec store, crash/restore host.

The paper leans on long-lived state — "historical CPI data has significant
value" (Section 3.1) — yet an aggregation service is an ordinary process:
it gets restarted, upgraded, OOM-killed.  This module makes the
aggregator's learned state survive that:

* :class:`DurableSpecStore` — an append-only write-ahead log of every
  state mutation (spec injections, ingested batches, refresh points) plus
  periodic snapshots that compact the log.  The in-memory record list is
  canonical (it models the durable medium that outlives the simulated
  process); :meth:`~DurableSpecStore.attach_disk` additionally mirrors it
  to real files — ``wal.jsonl`` appended record-by-record, the snapshot
  written via atomic rename — and :meth:`~DurableSpecStore.load` reads
  them back, tolerating a torn trailing WAL record (partial JSON from an
  interrupted write is discarded with a counted ``wal_torn_tail`` event;
  corruption anywhere earlier raises).

* :class:`AggregatorHost` — the process supervisor wrapped around one
  :class:`~repro.core.aggregator.CpiAggregator`: it WAL-logs every
  mutation before applying it, snapshots on a configured cadence, and
  executes the fault profile's aggregator kill schedule.  A crash wipes
  the aggregator and the endpoint's dedup watermark; recovery replays
  snapshot + WAL into a shadow aggregator and transplants the result —
  reconstructing spec values, Welford running stats, and dedup watermarks
  byte-identically (pinned by tests/test_specstore.py).  With a non-zero
  outage the endpoint refuses batches while down and the machine-side
  upload clients ride it out on retry/backoff.

Recovery invariant: because every mutation is logged before it is
applied, ``recover()`` after a crash at any point reproduces exactly the
state the aggregator held at that point — so a run with kills ends
byte-identical to the same run without them.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.core.aggregator import CpiAggregator
from repro.core.config import CpiConfig
from repro.core.samplebatch import SampleColumns
from repro.core.storage import (sample_from_dict, sample_to_dict,
                                spec_from_dict, spec_to_dict)
from repro.faults.checkpoint import CrashInjector
from repro.faults.retry import AggregatorEndpoint
from repro.obs import Observability
from repro.records import CpiSample, CpiSpec, SpecKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.profile import FaultProfile
    from repro.faults.retry import SampleBatch

__all__ = ["SPECSTORE_FORMAT_VERSION", "RecoveredState", "DurableSpecStore",
           "AggregatorHost"]

#: Snapshot schema version; recovery refuses snapshots it cannot read.
SPECSTORE_FORMAT_VERSION = 1

WAL_FILENAME = "wal.jsonl"
SNAPSHOT_FILENAME = "snapshot.json"

#: Extra seed-sequence entropy for the host's crash schedule, so it can
#: never collide with the fault plane's per-machine spawn children (their
#: schedules must not shift when aggregator kills are switched on).
_HOST_STREAM_KEY = 0x5370_6563  # "Spec"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RecoveredState:
    """What a recovery pass reconstructs: aggregator + endpoint state."""

    aggregator: dict
    endpoint: dict
    replayed_records: int


class DurableSpecStore:
    """Append-only WAL + compacting snapshots for aggregator state.

    The store object itself models the durable medium: it survives the
    simulated death of the aggregator process, and :meth:`recover` rebuilds
    the state that process held.  ``attach_disk`` mirrors everything to a
    directory so the same recovery works across real process boundaries.
    """

    def __init__(self, obs: Optional[Observability] = None):
        self.obs = obs
        self._snapshot: Optional[dict] = None
        self._wal: list[dict] = []
        self._seq = 0
        self.directory: Optional[Path] = None
        self._wal_handle = None
        self.snapshots_taken = 0
        self.torn_tail_records = 0

    # -- telemetry ---------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(name).inc(n)

    # -- the write path ----------------------------------------------------------

    @property
    def wal_records(self) -> int:
        """Records currently in the WAL (since the last compaction)."""
        return len(self._wal)

    def append(self, record: dict) -> None:
        """Log one mutation record (callers log *before* applying)."""
        record = {"seq": self._seq, **record}
        self._seq += 1
        self._wal.append(record)
        if self._wal_handle is not None:
            self._wal_handle.write(json.dumps(record) + "\n")
            self._wal_handle.flush()
        self._count("wal_records_appended")

    def log_set_spec(self, spec: CpiSpec) -> None:
        self.append({"op": "set_spec", "spec": spec_to_dict(spec)})

    def log_wire_batch(self, t: int, batch: "SampleBatch") -> None:
        """One accepted (non-duplicate) upload batch, samples included."""
        self.append({"op": "wire", "t": t, "batch": batch.batch_id,
                     "machine": batch.machine,
                     "samples": [sample_to_dict(s) for s in batch.samples]})

    def log_ingest(self, t: int, samples: list[CpiSample]) -> None:
        """One directly-ingested columnar window (clean-mode upward path)."""
        self.append({"op": "ingest", "t": t,
                     "samples": [sample_to_dict(s) for s in samples]})

    def log_refresh(self, now: int) -> None:
        """A spec recomputation that actually fired at ``now``."""
        self.append({"op": "refresh", "t": now})

    def take_snapshot(self, t: int, aggregator_state: dict,
                      endpoint_state: dict) -> None:
        """Snapshot full state at ``t`` and compact the WAL away."""
        self._snapshot = {
            "version": SPECSTORE_FORMAT_VERSION,
            "taken_at": t,
            "next_seq": self._seq,
            "aggregator": aggregator_state,
            "endpoint": endpoint_state,
        }
        compacted = len(self._wal)
        self._wal.clear()
        if self.directory is not None:
            self._write_snapshot_file()
            self._reopen_wal(truncate=True)
        self.snapshots_taken += 1
        self._count("snapshot_compactions")
        if self.obs is not None:
            self.obs.events.event("specstore_snapshot", t=t,
                                  wal_compacted=compacted)

    # -- recovery ----------------------------------------------------------------

    def recover(self, config: CpiConfig) -> RecoveredState:
        """Reconstruct aggregator + endpoint state: snapshot, then WAL.

        The replay runs through a shadow :class:`CpiAggregator` with no
        telemetry handle — the original ingests were already counted when
        they happened; recovery must not double-count them — and returns
        its exported state for the live aggregator to adopt wholesale.
        """
        shadow = CpiAggregator(config)
        seen: "OrderedDict[str, None]" = OrderedDict()
        received = 0
        duplicates = 0
        if self._snapshot is not None:
            if self._snapshot["version"] != SPECSTORE_FORMAT_VERSION:
                raise ValueError(
                    f"spec-store snapshot version "
                    f"{self._snapshot['version']!r} != "
                    f"{SPECSTORE_FORMAT_VERSION}")
            shadow.restore_state(self._snapshot["aggregator"])
            endpoint = self._snapshot["endpoint"]
            seen = OrderedDict((batch_id, None)
                               for batch_id in endpoint["seen"])
            received = endpoint["received"]
            duplicates = endpoint["duplicates"]
        for record in self._wal:
            op = record["op"]
            if op == "set_spec":
                shadow.set_spec(spec_from_dict(record["spec"]))
            elif op in ("wire", "ingest"):
                if op == "wire":
                    # The endpoint already deduped live arrivals; every
                    # wire record is a distinct accepted batch.
                    seen[record["batch"]] = None
                    while len(seen) > AggregatorEndpoint.DEDUP_WINDOW:
                        seen.popitem(last=False)
                    received += 1
                shadow.ingest_batch(SampleColumns.from_samples(
                    [sample_from_dict(data) for data in record["samples"]]))
            elif op == "refresh":
                shadow.recompute(record["t"])
            else:
                raise ValueError(f"unknown WAL op {op!r} "
                                 f"(seq {record.get('seq')})")
        return RecoveredState(
            aggregator=shadow.export_state(),
            endpoint={"seen": list(seen), "received": received,
                      "duplicates": duplicates},
            replayed_records=len(self._wal),
        )

    # -- the disk mirror ---------------------------------------------------------

    def attach_disk(self, directory: PathLike) -> None:
        """Mirror this store to ``directory`` from now on.

        Flushes the current in-memory snapshot and WAL first, so attaching
        after a warm start (bootstrap specs already logged) loses nothing.
        Call this on the canonical store only — coordinator or CLI side —
        never inside shard workers, whose replica stores are write-only
        by-products of the replicated build.
        """
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        self.directory = path
        if self._snapshot is not None:
            self._write_snapshot_file()
        self._reopen_wal(truncate=True)
        for record in self._wal:
            self._wal_handle.write(json.dumps(record) + "\n")
        self._wal_handle.flush()

    def close(self) -> None:
        """Release the WAL file handle (disk-attached stores only)."""
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None

    def _write_snapshot_file(self) -> None:
        target = self.directory / SNAPSHOT_FILENAME
        tmp = self.directory / (SNAPSHOT_FILENAME + ".tmp")
        tmp.write_text(json.dumps(self._snapshot) + "\n", encoding="utf-8")
        os.replace(tmp, target)

    def _reopen_wal(self, truncate: bool) -> None:
        self.close()
        mode = "w" if truncate else "a"
        self._wal_handle = open(self.directory / WAL_FILENAME, mode,
                                encoding="utf-8")

    @classmethod
    def load(cls, directory: PathLike,
             obs: Optional[Observability] = None) -> "DurableSpecStore":
        """Reopen a disk store after a (real) process restart.

        The snapshot is all-or-nothing by construction (atomic rename).
        The WAL tolerates a torn tail: a final line that fails to parse is
        the residue of an interrupted append — dropped with a counted
        ``wal_torn_tail`` event (and rewritten away on attach).  A bad
        record anywhere earlier raises with the path and line number.
        """
        store = cls(obs=obs)
        path = Path(directory)
        snapshot_file = path / SNAPSHOT_FILENAME
        if snapshot_file.exists():
            store._snapshot = json.loads(
                snapshot_file.read_text(encoding="utf-8"))
            if store._snapshot["version"] != SPECSTORE_FORMAT_VERSION:
                raise ValueError(
                    f"{snapshot_file}: snapshot version "
                    f"{store._snapshot['version']!r} != "
                    f"{SPECSTORE_FORMAT_VERSION}")
            store._seq = store._snapshot["next_seq"]
        wal_file = path / WAL_FILENAME
        if wal_file.exists():
            lines = wal_file.read_text(encoding="utf-8").splitlines()
            last = max((i for i, line in enumerate(lines) if line.strip()),
                       default=-1)
            for index, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    if index != last:
                        raise ValueError(
                            f"{wal_file}:{index + 1}: corrupt WAL record "
                            f"mid-file: {error}") from error
                    store.torn_tail_records += 1
                    store._count("wal_torn_tail")
                    if obs is not None:
                        obs.events.warning(
                            "wal_torn_tail", path=str(wal_file),
                            line=index + 1, error=str(error))
                    break
                store._wal.append(record)
                store._seq = record["seq"] + 1
        # Re-attach: rewrites the WAL from memory, dropping any torn tail.
        store.attach_disk(path)
        return store


class AggregatorHost:
    """The aggregation service's process shell: durability + kill schedule.

    Sits between the pipeline/endpoint and the :class:`CpiAggregator`:
    every mutation is WAL-logged before it is applied, snapshots fire on
    the config cadence, and :meth:`pump` (once per simulated second)
    executes the profile's crash schedule — tear down, then restore from
    the store after ``aggregator_outage_seconds``.

    Shard workers call :meth:`become_replica`: the replica tracks only the
    up/down schedule (drawing identical RNG values, so its endpoint gate
    matches the canonical host's) and performs no state changes, no store
    writes, and no telemetry — the coordinator owns the canonical host.
    """

    def __init__(
        self,
        aggregator: CpiAggregator,
        profile: "FaultProfile",
        fault_seed: int,
        config: CpiConfig,
        obs: Optional[Observability] = None,
        store: Optional[DurableSpecStore] = None,
    ):
        self.aggregator = aggregator
        self.config = config
        self.obs = obs
        self.store = store if store is not None else DurableSpecStore(obs=obs)
        if self.store.obs is None:
            self.store.obs = obs
        self.endpoint: Optional[AggregatorEndpoint] = None
        self.outage = profile.aggregator_outage_seconds
        self.kill_ticks = frozenset(profile.aggregator_kill_ticks)
        self.snapshot_interval = config.specstore_snapshot_interval
        rng = np.random.default_rng(
            np.random.SeedSequence([fault_seed, _HOST_STREAM_KEY]))
        self.injector = CrashInjector(profile.aggregator_crash_rate, rng)
        self.replica = False
        self.crashes = 0
        self.restarts = 0
        self.records_replayed = 0
        self.reference: Optional[CpiAggregator] = None
        self._down_until: Optional[int] = None
        #: Next snapshot due time; a boundary that lands while the service
        #: is down fires at the first up tick after the restore instead of
        #: being skipped for a whole interval.
        self._next_snapshot = self.snapshot_interval
        #: Last tick this host was pumped for (-1 = never); the sharded
        #: coordinator uses it to catch up tick-by-tick between barriers.
        self.pumped_through = -1

    # -- wiring ------------------------------------------------------------------

    def bind_endpoint(self, endpoint: AggregatorEndpoint) -> None:
        """Adopt the service-side endpoint whose dedup state is durable."""
        self.endpoint = endpoint

    def become_replica(self) -> None:
        """Track the kill schedule only (shard workers).

        The worker's aggregator replica is already dead weight (arrivals
        are captured for the coordinator), its store holds nothing worth
        recovering, and its endpoint's live dedup set must *keep* working
        through an outage — recovery is lossless, so keep-as-is is
        state-identical to wipe-plus-full-restore.
        """
        self.replica = True

    def attach_reference(self) -> CpiAggregator:
        """Start a shadow aggregator fed the same accepted mutations.

        The shadow never crashes and never recovers; comparing it against
        the durable aggregator at the end of a churn run proves the
        snapshot/WAL plumbing added zero drift (the soak harness's
        zero-spec-drift assertion).
        """
        self.reference = CpiAggregator(self.aggregator.config)
        self.reference.restore_state(self.aggregator.export_state())
        return self.reference

    # -- availability ------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self._down_until is None

    def accepting(self) -> bool:
        """Endpoint gate: refuse uploads while the service is down."""
        return self._down_until is None

    # -- the per-second schedule -------------------------------------------------

    def pump(self, t: int) -> None:
        """Advance the host's clock by one second (call once per tick).

        Order matters and is identical in every execution mode: restore
        first (an outage ending at ``t`` is back up before ``t``'s
        deliveries), then the crash draw, then the snapshot cadence —
        so a snapshot at ``t`` always captures state from *before* any of
        tick ``t``'s ingests, single-process and sharded alike.
        """
        if self._down_until is not None and t >= self._down_until:
            self._restore(t)
        # The Bernoulli draw must happen every tick (replica parity).
        if ((self.injector.should_crash() or t in self.kill_ticks)
                and self._down_until is None):
            self._crash(t)
        if (not self.replica and self._down_until is None
                and t >= self._next_snapshot):
            self.snapshot(t)
            while self._next_snapshot <= t:
                self._next_snapshot += self.snapshot_interval
        self.pumped_through = t

    def _crash(self, t: int) -> None:
        self.crashes += 1
        if not self.replica:
            wal_pending = self.store.wal_records
            self.aggregator.reset_state()
            if self.endpoint is not None:
                self.endpoint.reset_state()
            if self.obs is not None:
                self.obs.metrics.counter("aggregator_crashes").inc()
                self.obs.events.event("aggregator_crashed", t=t,
                                      wal_pending=wal_pending,
                                      down_for=self.outage)
        if self.outage > 0:
            self._down_until = t + self.outage
            return
        self._restore(t)

    def _restore(self, t: int) -> None:
        self._down_until = None
        self.restarts += 1
        if self.replica:
            return
        state = self.store.recover(self.aggregator.config)
        self.aggregator.restore_state(state.aggregator)
        if self.endpoint is not None:
            self.endpoint.restore_dedup_state(state.endpoint)
        self.records_replayed += state.replayed_records
        if self.obs is not None:
            self.obs.metrics.counter("aggregator_restarts").inc()
            self.obs.metrics.counter("wal_replayed_records").inc(
                state.replayed_records)
            self.obs.events.event("aggregator_restored", t=t,
                                  wal_replayed=state.replayed_records)

    def snapshot(self, t: int) -> None:
        """Snapshot now (the pump calls this on the config cadence)."""
        endpoint_state = (self.endpoint.export_dedup_state()
                          if self.endpoint is not None
                          else {"seen": [], "received": 0, "duplicates": 0})
        self.store.take_snapshot(t, self.aggregator.export_state(),
                                 endpoint_state)

    # -- mutation surfaces (log first, then apply) --------------------------------

    def ingest_wire_batch(self, t: int, batch: "SampleBatch") -> None:
        """Endpoint sink: one accepted non-duplicate upload batch."""
        self.store.log_wire_batch(t, batch)
        columns = SampleColumns.from_samples(batch.samples)
        self.aggregator.ingest_batch(columns)
        if self.reference is not None:
            self.reference.ingest_batch(columns)

    def ingest_columns(self, t: int, columns: SampleColumns,
                       samples: Optional[list[CpiSample]] = None) -> None:
        """Clean-mode upward path: one closed window, columnar."""
        if samples is None:
            samples = columns.to_samples()
        self.store.log_ingest(t, samples)
        self.aggregator.ingest_batch(columns)
        if self.reference is not None:
            self.reference.ingest_batch(columns)

    def maybe_recompute(self, now: int) -> Optional[dict[SpecKey, CpiSpec]]:
        """The refresh check; a down service publishes nothing."""
        if self._down_until is not None:
            return None
        published = self.aggregator.maybe_recompute(now)
        if published is not None:
            self.store.log_refresh(now)
            if self.reference is not None:
                self.reference.recompute(now)
        return published

    def recompute(self, now: int) -> dict[SpecKey, CpiSpec]:
        """Force a refresh (operator path), WAL-logged like any other."""
        published = self.aggregator.recompute(now)
        self.store.log_refresh(now)
        if self.reference is not None:
            self.reference.recompute(now)
        return published

    def set_spec(self, spec: CpiSpec) -> None:
        """Warm-start injection, WAL-logged so restores keep it."""
        self.store.log_set_spec(spec)
        self.aggregator.set_spec(spec)
        if self.reference is not None:
            self.reference.set_spec(spec)

    # -- drift accounting --------------------------------------------------------

    def reference_drift(self) -> dict:
        """Compare the durable aggregator against the reference shadow.

        Hex-exact float comparison over published specs and in-period
        Welford accumulators: ``exact`` is True only when every value is
        bit-identical, which is the soak harness's zero-drift bar.
        """
        if self.reference is None:
            raise RuntimeError("no reference attached; "
                               "call attach_reference() first")

        def canon(aggregator: CpiAggregator) -> list:
            state = aggregator.export_state()
            return [
                [(s["jobname"], s["platforminfo"], s["num_samples"],
                  float(s["cpu_usage_mean"]).hex(), float(s["cpi_mean"]).hex(),
                  float(s["cpi_stddev"]).hex()) for s in state["specs"]],
                [(c["jobname"], c["platforminfo"], c["count"],
                  float(c["mean"]).hex(), float(c["m2"]).hex(),
                  float(c["usage_sum"]).hex(), sorted(
                      c["samples_per_task"].items()))
                 for c in state["current"]],
                state["last_refresh"], state["total_ingested"],
                state["total_rejected"],
            ]

        durable = canon(self.aggregator)
        shadow = canon(self.reference)
        return {
            "exact": durable == shadow,
            "specs_compared": len(shadow[0]),
            "accumulators_compared": len(shadow[1]),
        }
