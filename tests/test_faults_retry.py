"""Tests for the retrying upload client and deduplicating endpoint."""

import numpy as np

from repro.core.samplebatch import SampleColumns
from repro.faults.profile import RetryPolicy
from repro.faults.retry import Ack, AggregatorEndpoint, SampleBatch, UploadClient
from repro.obs import Observability
from tests.conftest import make_sample


def window(*samples):
    """One closed window of ``samples``, as the sampler ships it."""
    return SampleColumns.from_samples(samples)


def make_client(policy=None, obs=None):
    """An UploadClient writing every (re)send onto a visible wire."""
    wire = []
    client = UploadClient(
        "m0", send=lambda t, batch: wire.append((t, batch)),
        policy=policy or RetryPolicy(timeout=10, max_attempts=3, jitter=0.0),
        rng=np.random.default_rng(0), obs=obs)
    return client, wire


def make_endpoint(obs=None):
    """An AggregatorEndpoint recording ingested samples and outgoing acks."""
    ingested, acks = [], []
    endpoint = AggregatorEndpoint(
        sink=lambda t, batch: ingested.extend(batch.columns.to_samples()),
        ack=lambda t, ack: acks.append((t, ack)),
        obs=obs)
    return endpoint, ingested, acks


class TestHappyPath:
    def test_upload_ack_roundtrip(self):
        client, wire = make_client()
        endpoint, ingested, acks = make_endpoint()
        batch_id = client.upload(0, window(make_sample(), make_sample(t=61)))
        assert batch_id == "m0/0"
        t_sent, batch = wire[0]
        endpoint.receive(1, batch)
        assert len(ingested) == 2
        client.on_ack(2, acks[0][1])
        assert client.pending_batches == 0
        assert client.batches_acked == 1

    def test_batch_ids_are_unique_per_machine(self):
        client, wire = make_client()
        ids = [client.upload(t, window(make_sample())) for t in range(5)]
        assert ids == [f"m0/{i}" for i in range(5)]


class TestRetryAndTimeout:
    def test_timeout_schedules_backed_off_resend(self):
        policy = RetryPolicy(timeout=10, max_attempts=3, backoff_base=4.0,
                             backoff_factor=2.0, jitter=0.0)
        client, wire = make_client(policy)
        client.upload(0, window(make_sample()))
        for t in range(1, 10):
            client.pump(t)
        assert len(wire) == 1  # still within the timeout
        client.pump(10)        # timed out; first retry backs off 4s
        assert len(wire) == 1
        for t in range(11, 14):
            client.pump(t)
        assert len(wire) == 1  # backoff (4s) still pending
        client.pump(14)
        assert len(wire) == 2 and wire[1][0] == 14  # resent after backoff
        assert client.pending_batches == 1

    def test_abandoned_after_timeout_on_final_attempt(self):
        obs = Observability()
        policy = RetryPolicy(timeout=5, max_attempts=2, backoff_base=1.0,
                             backoff_factor=1.0, jitter=0.0)
        client, wire = make_client(policy, obs=obs)
        client.upload(0, window(make_sample()))
        for t in range(1, 40):
            client.pump(t)
        # Attempt 1 timed out, attempt 2 (the final one) timed out too:
        # the batch is dropped with a counted reason, never retried again.
        assert len(wire) == 2
        assert client.pending_batches == 0
        assert client.batches_abandoned == 1
        assert obs.metrics.total("upload_batches_abandoned") == 1
        assert obs.metrics.total("upload_timeouts") == 2

    def test_ack_during_backoff_cancels_resend(self):
        policy = RetryPolicy(timeout=5, max_attempts=5, backoff_base=10.0,
                             backoff_factor=1.0, jitter=0.0)
        client, wire = make_client(policy)
        batch_id = client.upload(0, window(make_sample()))
        for t in range(1, 7):
            client.pump(t)  # timed out at t=5, resend due at t=15
        client.on_ack(7, Ack(batch_id=batch_id, machine="m0"))
        for t in range(8, 30):
            client.pump(t)
        assert len(wire) == 1  # the scheduled resend never fired
        assert client.pending_batches == 0


class TestDuplicateDelivery:
    def test_endpoint_ingests_once_but_reacks(self):
        endpoint, ingested, acks = make_endpoint()
        batch = SampleBatch("m0/0", "m0", 0, window(make_sample()))
        endpoint.receive(1, batch)
        endpoint.receive(2, batch)  # duplicated in flight
        assert len(ingested) == 1
        assert len(acks) == 2  # re-acked so the client stops retrying
        assert endpoint.duplicates_ignored == 1

    def test_duplicate_ack_is_counted_and_ignored(self):
        obs = Observability()
        client, wire = make_client(obs=obs)
        batch_id = client.upload(0, window(make_sample()))
        ack = Ack(batch_id=batch_id, machine="m0")
        client.on_ack(1, ack)
        client.on_ack(2, ack)  # the ack link duplicated it
        assert client.batches_acked == 1
        assert obs.metrics.total("upload_acks_ignored") == 1

    def test_end_to_end_duplicate_is_idempotent(self):
        obs = Observability()
        client, wire = make_client(obs=obs)
        endpoint, ingested, acks = make_endpoint(obs=obs)
        client.upload(0, window(make_sample()))
        _, batch = wire[0]
        endpoint.receive(1, batch)
        endpoint.receive(1, batch)
        for t, ack in acks:
            client.on_ack(t + 1, ack)
        assert len(ingested) == 1
        assert client.pending_batches == 0
        for t in range(2, 60):
            client.pump(t)
        assert len(wire) == 1  # no spurious retries either


class TestResendQueueOverflow:
    def test_drop_oldest_evicts_longest_waiting(self):
        obs = Observability()
        policy = RetryPolicy(queue_limit=2, overflow="drop-oldest",
                             jitter=0.0)
        client, wire = make_client(policy, obs=obs)
        ids = [client.upload(t, window(make_sample())) for t in range(3)]
        assert ids[2] is not None  # the newcomer was admitted
        assert client.pending_batches == 2
        assert client.batches_overflowed == 1
        # The oldest batch is gone: its late ack is now a no-op.
        client.on_ack(5, Ack(batch_id=ids[0], machine="m0"))
        assert client.batches_acked == 0
        assert obs.metrics.total("resend_queue_overflow") == 1

    def test_drop_newest_rejects_incoming(self):
        obs = Observability()
        policy = RetryPolicy(queue_limit=2, overflow="drop-newest",
                             jitter=0.0)
        client, wire = make_client(policy, obs=obs)
        ids = [client.upload(t, window(make_sample())) for t in range(3)]
        assert ids[2] is None
        assert len(wire) == 2  # the rejected batch never hit the wire
        assert client.pending_batches == 2
        # The two admitted batches are still the live ones.
        client.on_ack(5, Ack(batch_id=ids[0], machine="m0"))
        assert client.batches_acked == 1
        assert obs.metrics.total("resend_queue_overflow") == 1


class TestBackoffDeterminism:
    """Jittered backoff is reproducible: same seed, same schedule."""

    def test_same_rng_seed_same_jittered_schedule(self):
        policy = RetryPolicy(timeout=10, max_attempts=5, backoff_base=4.0,
                             backoff_factor=2.0, jitter=0.5)

        def schedule(seed):
            rng = np.random.default_rng(seed)
            return [policy.backoff(n, rng) for n in range(1, 5)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_jitter_stays_within_the_advertised_swing(self):
        policy = RetryPolicy(backoff_base=8.0, backoff_factor=1.0,
                             backoff_cap=60.0, jitter=0.25)
        rng = np.random.default_rng(3)
        values = [policy.backoff(1, rng) for _ in range(200)]
        assert all(6.0 <= v <= 10.0 for v in values)  # 8 +/- 25%
        assert len(set(values)) > 1                   # actually jittered

    def test_same_seed_same_resend_ticks_end_to_end(self):
        policy = RetryPolicy(timeout=5, max_attempts=4, backoff_base=3.0,
                             backoff_factor=2.0, jitter=0.5)

        def resend_ticks(seed):
            wire = []
            client = UploadClient(
                "m0", send=lambda t, batch: wire.append(t), policy=policy,
                rng=np.random.default_rng(seed), obs=None)
            client.upload(0, window(make_sample()))
            for t in range(1, 120):
                client.pump(t)
            return wire

        assert resend_ticks(42) == resend_ticks(42)
        assert len(resend_ticks(42)) == 4  # initial send + three retries


class TestOutageLongerThanBackoffSchedule:
    """An endpoint down past the client's whole retry budget: the batch is
    abandoned with counted telemetry; one down shorter, it gets through."""

    def _run(self, down_until: int, seconds: int = 200):
        obs = Observability()
        policy = RetryPolicy(timeout=5, max_attempts=3, backoff_base=2.0,
                             backoff_factor=2.0, jitter=0.0)
        up = {"at": down_until}
        endpoint, ingested, acks = make_endpoint(obs=obs)
        endpoint.gate = lambda: clock["t"] >= up["at"]
        clock = {"t": 0}
        wire = []
        client = UploadClient(
            "m0", send=lambda t, batch: wire.append((t, batch)), policy=policy,
            rng=np.random.default_rng(0), obs=obs)
        client.upload(0, window(make_sample()))
        for t in range(1, seconds):
            clock["t"] = t
            # Deliver every send of this tick, then advance the retry loop.
            while wire:
                _, batch = wire.pop(0)
                endpoint.receive(t, batch)
            for at, ack in list(acks):
                acks.remove((at, ack))
                client.on_ack(t, ack)
            client.pump(t)
        return client, endpoint, ingested, obs

    def test_outage_longer_than_full_schedule_abandons(self):
        # Full schedule: timeout 5 + (2 + 5) + (4 + 5) = last attempt dead
        # by t=21; an endpoint down past that sees only refused sends.
        client, endpoint, ingested, obs = self._run(down_until=100)
        assert client.batches_abandoned == 1
        assert client.pending_batches == 0
        assert ingested == []
        assert endpoint.batches_refused == 3  # every attempt was refused
        assert obs.metrics.total("upload_batches_abandoned") == 1
        assert obs.metrics.total("aggregator_batches_refused") == 3

    def test_outage_shorter_than_schedule_recovers(self):
        client, endpoint, ingested, obs = self._run(down_until=10)
        assert client.batches_abandoned == 0
        assert client.batches_acked == 1
        assert len(ingested) == 1
        assert endpoint.batches_refused > 0   # early attempts were refused
        assert obs.metrics.total("upload_batches_abandoned") == 0
