"""Unit tests for repro.core.specstore (durable WAL + snapshot store).

The contract under test is byte-identical recovery: a
:class:`DurableSpecStore` replayed after a crash must reconstruct the
aggregator's learned state — published specs, in-period Welford
accumulators, refresh clock, ingest totals — and the endpoint's dedup
watermark exactly, hex-float for hex-float.  The end-to-end version of
the same contract (whole pipeline runs with kill schedules vs without)
lives in tests/test_durability.py.
"""

from __future__ import annotations

import json

import pytest

from repro.core.aggregator import CpiAggregator
from repro.core.config import CpiConfig
from repro.core.samplebatch import SampleColumns
from repro.core.specstore import (SNAPSHOT_FILENAME, SPECSTORE_FORMAT_VERSION,
                                  WAL_FILENAME, AggregatorHost,
                                  DurableSpecStore)
from repro.faults.profile import FAULT_PROFILES
from repro.faults.retry import AggregatorEndpoint, SampleBatch
from repro.obs import Observability
from tests.conftest import make_sample, make_spec
from tests.reference import aggregator as reference_aggregator
from tests.reference import wire as reference_wire


def _config(**overrides) -> CpiConfig:
    """A config whose thresholds a handful of samples can clear."""
    defaults = dict(spec_refresh_period=600, min_tasks_for_spec=2,
                    min_samples_per_task=2, specstore_snapshot_interval=900)
    defaults.update(overrides)
    return CpiConfig(**defaults)


def _window(t: int, n: int = 6) -> list:
    """One closed sampling window: ``n`` plausible samples at tick ``t``."""
    return [make_sample(jobname="svc", t=t, cpu_usage=0.5 + 0.01 * i,
                        cpi=1.0 + 0.05 * i, taskname=f"svc/{i % 3}")
            for i in range(n)]


def _canon(state: dict) -> list:
    """Hex-canonical form of an ``export_state`` dict."""
    return [
        [(s["jobname"], s["platforminfo"], s["num_samples"],
          float(s["cpu_usage_mean"]).hex(), float(s["cpi_mean"]).hex(),
          float(s["cpi_stddev"]).hex()) for s in state["specs"]],
        [(c["jobname"], c["platforminfo"], c["count"],
          float(c["mean"]).hex(), float(c["m2"]).hex(),
          float(c["usage_sum"]).hex(), sorted(c["samples_per_task"].items()))
         for c in state["current"]],
        state["last_refresh"], state["total_ingested"], state["total_rejected"],
    ]


def make_host(config=None, profile=None, obs=None,
              fault_seed: int = 1) -> AggregatorHost:
    config = config or _config()
    profile = profile or FAULT_PROFILES["none"]
    aggregator = CpiAggregator(config, obs=obs)
    return AggregatorHost(aggregator, profile, fault_seed, config, obs=obs)


def _feed(host: AggregatorHost, seconds: int, period: int = 60) -> None:
    """Pump the host tick-by-tick, closing one window per ``period``."""
    for t in range(1, seconds + 1):
        host.pump(t)
        if t % period == 0 and host.is_up:
            host.ingest_columns(t, SampleColumns.from_samples(_window(t)))
            host.maybe_recompute(t)


class TestWalReplay:
    def test_recover_is_byte_identical(self):
        host = make_host()
        host.set_spec(make_spec(jobname="warm", cpi_mean=1.7))
        _feed(host, 900)
        assert host.store.wal_records > 0
        recovered = host.store.recover(host.config)
        assert _canon(recovered.aggregator) == _canon(
            host.aggregator.export_state())
        assert recovered.replayed_records == host.store.wal_records

    def test_recovery_replays_rejections_exactly(self):
        # Quarantined samples live in the WAL too; replay re-rejects them
        # silently, so total_rejected reconstructs without double counting.
        host = make_host()
        bad = make_sample(jobname="svc", t=60, cpi=float("nan"))
        host.ingest_columns(
            60, SampleColumns.from_samples([bad] + _window(60)))
        assert host.aggregator.total_samples_rejected == 1
        recovered = host.store.recover(host.config)
        assert recovered.aggregator["total_rejected"] == 1
        assert _canon(recovered.aggregator) == _canon(
            host.aggregator.export_state())

    def test_wire_records_rebuild_dedup_watermark(self):
        store = DurableSpecStore()
        config = _config()
        live = CpiAggregator(config)
        for i in range(3):
            samples = _window(60 * (i + 1), n=2)
            batch = SampleBatch(f"m0/{i}", "m0", 60 * (i + 1),
                                SampleColumns.from_samples(samples))
            store.log_wire_batch(batch.sent_at, batch)
            reference_aggregator.ingest_many(live, samples)
        recovered = store.recover(config)
        assert recovered.endpoint["seen"] == ["m0/0", "m0/1", "m0/2"]
        assert recovered.endpoint["received"] == 3
        assert _canon(recovered.aggregator) == _canon(live.export_state())

    def test_unknown_op_raises(self):
        store = DurableSpecStore()
        store.append({"op": "frobnicate"})
        with pytest.raises(ValueError, match="unknown WAL op"):
            store.recover(_config())

    def test_snapshot_version_mismatch_raises(self):
        store = DurableSpecStore()
        host = make_host()
        _feed(host, 120)
        host.store.take_snapshot(120, host.aggregator.export_state(),
                                 {"seen": [], "received": 0, "duplicates": 0})
        host.store._snapshot["version"] = SPECSTORE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="snapshot version"):
            host.store.recover(host.config)
        del store


#: Clean windows, then one window per wire damage (row 1 damaged).
_WAL_WINDOWS = [("clean", _window(60)), ("clean", _window(120, n=1))] + [
    (name, [damage(s) if i == 1 else s
            for i, s in enumerate(_window(60 * (k + 3)))])
    for k, (name, damage) in enumerate(reference_wire.SAMPLE_DAMAGE)]


class TestWalEdgeParity:
    """The WAL writers take columns and write the lines the object path
    wrote, damaged rows included; recovery replays them alike."""

    def _columnar_store(self, directory) -> DurableSpecStore:
        store = DurableSpecStore()
        store.attach_disk(directory)
        for i, (_, samples) in enumerate(_WAL_WINDOWS):
            t = 60 * (i + 1)
            columns = SampleColumns.from_samples(samples)
            store.log_wire_batch(t, SampleBatch(f"m0/{i}", "m0", t, columns))
            store.log_ingest(t, columns)
        store.close()
        return store

    def _object_store(self) -> DurableSpecStore:
        store = DurableSpecStore()
        for i, (_, samples) in enumerate(_WAL_WINDOWS):
            t = 60 * (i + 1)
            batch = reference_wire.SampleBatch(f"m0/{i}", "m0", t,
                                               tuple(samples))
            store.append(reference_wire.wire_record(t, batch))
            store.append(reference_wire.ingest_record(t, samples))
        return store

    def test_lines_are_byte_equal_to_the_object_path(self, tmp_path):
        self._columnar_store(tmp_path)
        expected = "".join(json.dumps(record) + "\n"
                           for record in self._object_store()._wal)
        assert (tmp_path / WAL_FILENAME).read_text(encoding="utf-8") \
            == expected
        names = {name for name, _ in _WAL_WINDOWS}
        assert names == {"clean", "nan_cpi", "huge_cpi", "zero_cpi",
                         "nan_usage"}

    def test_recovery_replays_to_the_same_state(self, tmp_path):
        config = _config()
        columnar = self._columnar_store(tmp_path)
        loaded = DurableSpecStore.load(tmp_path)
        live = CpiAggregator(config)
        for _, samples in _WAL_WINDOWS:
            columns = SampleColumns.from_samples(samples)
            live.ingest_batch(columns)
            live.ingest_batch(columns)
        expected = _canon(self._object_store().recover(config).aggregator)
        assert live.total_samples_rejected == 2 * 4
        for store in (columnar, loaded):
            recovered = store.recover(config)
            assert _canon(recovered.aggregator) == expected
            assert recovered.endpoint["seen"] == [
                f"m0/{i}" for i in range(len(_WAL_WINDOWS))]
        assert _canon(live.export_state()) == expected


class TestSnapshotCompaction:
    def test_snapshot_compacts_wal_and_recovery_still_exact(self):
        config = _config(specstore_snapshot_interval=300)
        host = make_host(config=config)
        _feed(host, 1000)
        assert host.store.snapshots_taken == 3        # t = 300, 600, 900
        # Only the records since the last snapshot remain in the WAL.
        assert host.store.wal_records <= 1000 // 300 + 2
        recovered = host.store.recover(config)
        assert _canon(recovered.aggregator) == _canon(
            host.aggregator.export_state())

    def test_snapshot_counts_compactions(self):
        obs = Observability()
        config = _config(specstore_snapshot_interval=120)
        host = make_host(config=config, obs=obs)
        _feed(host, 360)
        assert obs.metrics.total("snapshot_compactions") == 3
        assert obs.metrics.total("wal_records_appended") > 0

    def test_boundary_during_outage_fires_after_restore(self):
        # A snapshot boundary that lands while the service is down is
        # deferred to the first up tick, not skipped for a whole interval.
        config = _config(specstore_snapshot_interval=100)
        profile = FAULT_PROFILES["none"].with_overrides(
            aggregator_kill_ticks=(100,), aggregator_outage_seconds=7)
        host = make_host(config=config, profile=profile)
        for t in range(1, 105):
            host.pump(t)
        assert host.store.snapshots_taken == 0        # still down at 104
        for t in range(105, 111):
            host.pump(t)
        assert host.restarts == 1
        assert host.store.snapshots_taken == 1        # fired at t=107


class TestDiskMirror:
    def test_attach_load_round_trip(self, tmp_path):
        config = _config(specstore_snapshot_interval=300)
        host = make_host(config=config)
        host.store.attach_disk(tmp_path)
        host.set_spec(make_spec(jobname="warm"))
        _feed(host, 700)
        host.store.close()
        assert (tmp_path / WAL_FILENAME).exists()
        assert (tmp_path / SNAPSHOT_FILENAME).exists()
        assert not (tmp_path / (SNAPSHOT_FILENAME + ".tmp")).exists()

        reloaded = DurableSpecStore.load(tmp_path)
        assert reloaded.wal_records == host.store.wal_records
        assert _canon(reloaded.recover(config).aggregator) == _canon(
            host.aggregator.export_state())
        reloaded.close()

    def test_torn_tail_dropped_counted_and_rewritten(self, tmp_path):
        host = make_host()
        host.store.attach_disk(tmp_path)
        _feed(host, 240)
        host.store.close()
        before = host.store.wal_records
        with open(tmp_path / WAL_FILENAME, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 999, "op": "ing')   # interrupted append

        obs = Observability()
        reloaded = DurableSpecStore.load(tmp_path, obs=obs)
        assert reloaded.torn_tail_records == 1
        assert reloaded.wal_records == before
        assert obs.metrics.total("wal_torn_tail") == 1
        assert _canon(reloaded.recover(host.config).aggregator) == _canon(
            host.aggregator.export_state())
        reloaded.close()

        # attach_disk rewrote the WAL: a second load sees no torn tail.
        again = DurableSpecStore.load(tmp_path)
        assert again.torn_tail_records == 0
        assert again.wal_records == before
        again.close()

    def test_corrupt_record_mid_file_raises(self, tmp_path):
        host = make_host()
        host.store.attach_disk(tmp_path)
        _feed(host, 240)
        host.store.close()
        lines = (tmp_path / WAL_FILENAME).read_text().splitlines()
        assert len(lines) >= 3
        lines[1] = '{"seq": 1, "op": bro'
        (tmp_path / WAL_FILENAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2:.*corrupt WAL record"):
            DurableSpecStore.load(tmp_path)

    def test_load_rejects_future_snapshot_version(self, tmp_path):
        host = make_host()
        _feed(host, 400)
        host.snapshot(400)
        host.store.attach_disk(tmp_path)
        host.store.close()
        snapshot = json.loads((tmp_path / SNAPSHOT_FILENAME).read_text())
        snapshot["version"] = SPECSTORE_FORMAT_VERSION + 1
        (tmp_path / SNAPSHOT_FILENAME).write_text(json.dumps(snapshot))
        with pytest.raises(ValueError, match="snapshot version"):
            DurableSpecStore.load(tmp_path)

    def test_attach_after_warm_start_loses_nothing(self, tmp_path):
        # Bootstrap specs logged before the disk attach must still land.
        host = make_host()
        host.set_spec(make_spec(jobname="early", cpi_mean=2.2))
        host.store.attach_disk(tmp_path)
        host.store.close()
        reloaded = DurableSpecStore.load(tmp_path)
        recovered = reloaded.recover(host.config)
        assert any(s["jobname"] == "early" for s in
                   recovered.aggregator["specs"])
        reloaded.close()


class TestAggregatorHost:
    def test_zero_outage_kill_is_invisible(self):
        """Crash + same-tick restore ends byte-identical to no kill."""
        baseline = make_host()
        _feed(baseline, 900)
        killed = make_host(profile=FAULT_PROFILES["none"].with_overrides(
            aggregator_kill_ticks=(300, 600)))
        _feed(killed, 900)
        assert killed.crashes == 2 and killed.restarts == 2
        assert killed.records_replayed > 0
        assert _canon(killed.aggregator.export_state()) == _canon(
            baseline.aggregator.export_state())

    def test_outage_gates_endpoint_until_restore(self):
        obs = Observability()
        profile = FAULT_PROFILES["none"].with_overrides(
            aggregator_kill_ticks=(100,), aggregator_outage_seconds=10)
        host = make_host(profile=profile, obs=obs)
        acks = []
        endpoint = AggregatorEndpoint(
            sink=host.ingest_wire_batch, ack=lambda t, a: acks.append(a),
            obs=obs, gate=host.accepting)
        host.bind_endpoint(endpoint)
        batch = SampleBatch("m0/0", "m0", 100,
                            SampleColumns.from_samples(_window(100, n=2)))
        for t in range(1, 101):
            host.pump(t)
        assert not host.is_up
        endpoint.receive(100, batch)                  # refused: down
        assert endpoint.batches_refused == 1
        assert acks == [] and host.aggregator.total_samples_ingested == 0
        assert obs.metrics.total("aggregator_batches_refused") == 1

        for t in range(101, 115):
            host.pump(t)
        assert host.is_up and host.restarts == 1
        endpoint.receive(114, batch)                  # redelivery lands
        assert len(acks) == 1
        assert host.aggregator.total_samples_ingested == 2

    def test_maybe_recompute_suppressed_while_down(self):
        profile = FAULT_PROFILES["none"].with_overrides(
            aggregator_kill_ticks=(50,), aggregator_outage_seconds=30)
        host = make_host(profile=profile)
        for t in range(1, 61):
            host.pump(t)
        assert host.maybe_recompute(60) is None       # down: publish nothing
        for t in range(61, 90):
            host.pump(t)
        assert host.maybe_recompute(89) is not None   # back up: fires

    def test_restore_counts_telemetry(self):
        obs = Observability()
        host = make_host(obs=obs, profile=FAULT_PROFILES["none"]
                         .with_overrides(aggregator_kill_ticks=(120,)))
        _feed(host, 300)
        assert obs.metrics.total("aggregator_crashes") == 1
        assert obs.metrics.total("aggregator_restarts") == 1
        assert obs.metrics.total("wal_replayed_records") == (
            host.records_replayed) > 0

    def test_replica_tracks_schedule_without_state_changes(self):
        profile = FAULT_PROFILES["none"].with_overrides(
            aggregator_kill_ticks=(100,), aggregator_outage_seconds=20)
        replica = make_host(profile=profile)
        replica.become_replica()
        down_ticks = []
        for t in range(1, 301):
            replica.pump(t)
            if not replica.is_up:
                down_ticks.append(t)
        # The replica's gate follows the canonical schedule — down from
        # the kill tick until the outage ends — with no writes of its own.
        assert down_ticks == list(range(100, 120))
        assert replica.crashes == 1 and replica.restarts == 1
        assert replica.store.wal_records == 0
        assert replica.store.snapshots_taken == 0
        assert replica.aggregator.export_state()["total_ingested"] == 0

    def test_random_crash_draws_match_across_hosts(self):
        # Identical (profile, fault_seed) => identical Bernoulli schedule,
        # which is what keeps replica gates aligned with the coordinator.
        profile = FAULT_PROFILES["none"].with_overrides(
            aggregator_crash_rate=0.01)
        a = make_host(profile=profile, fault_seed=7)
        b = make_host(profile=profile, fault_seed=7)
        b.become_replica()
        for t in range(1, 2001):
            a.pump(t)
            b.pump(t)
        assert a.crashes > 0
        assert a.crashes == b.crashes

    def test_reference_drift_exact_then_detects_divergence(self):
        host = make_host()
        _feed(host, 600)
        host.attach_reference()
        _feed(host, 1200)
        drift = host.reference_drift()
        assert drift["exact"] is True
        assert drift["accumulators_compared"] > 0
        # An unlogged mutation is exactly what drift detection is for.
        host.aggregator.ingest_batch(SampleColumns.from_samples(
            [make_sample(jobname="rogue", t=1260)]))
        assert host.reference_drift()["exact"] is False

    def test_reference_drift_requires_attachment(self):
        host = make_host()
        with pytest.raises(RuntimeError, match="attach_reference"):
            host.reference_drift()
