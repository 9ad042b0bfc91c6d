"""The fault plane: one deployment's injectable control-plane fabric.

:class:`FaultPlane` owns, per machine, the three faulty links (sample
uploads, upload acks, spec pushes), the retrying upload client, and the
agent crash injector; plus the single service-side aggregator endpoint.
The pipeline routes its formerly in-process calls through here when a
non-zero :class:`~repro.faults.profile.FaultProfile` is configured, and
calls :meth:`pump` once per simulated second to move time forward for
deliveries, timeouts, retries, crashes, and checkpoints.

Determinism: all randomness is drawn from per-component generators
spawned off one root ``numpy`` seed sequence, in sorted-machine-name
order, and :meth:`pump` visits machines in that same order — a (profile,
fault seed, workload) triple replays the exact same fault schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.faults.checkpoint import CrashInjector
from repro.faults.profile import FaultProfile
from repro.faults.quarantine import corrupt_sample_batch, corrupt_spec_push
from repro.faults.retry import (Ack, AggregatorEndpoint, SampleBatch,
                                UploadClient)
from repro.faults.transport import FaultyLink
from repro.obs import Observability
from repro.records import CpiSpec, SpecKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import MachineAgent
    from repro.core.aggregator import CpiAggregator
    from repro.core.config import CpiConfig
    from repro.core.samplebatch import SampleColumns
    from repro.core.specstore import AggregatorHost

__all__ = ["SpecPush", "FaultPlane"]


@dataclass(frozen=True)
class SpecPush:
    """One spec-map push to one machine, as shipped over the wire."""

    issued_at: int
    specs: dict[SpecKey, CpiSpec]


class _MachinePort:
    """One machine's endpoints on the fabric."""

    def __init__(self, uplink: FaultyLink, acklink: FaultyLink,
                 speclink: FaultyLink, client: UploadClient,
                 crasher: CrashInjector):
        self.uplink = uplink
        self.acklink = acklink
        self.speclink = speclink
        self.client = client
        self.crasher = crasher


class FaultPlane:
    """The injectable transport + failure machinery for one deployment."""

    def __init__(
        self,
        profile: FaultProfile,
        seed: int,
        aggregator: "CpiAggregator",
        agents: dict[str, "MachineAgent"],
        config: "CpiConfig",
        obs: Optional[Observability] = None,
        host: Optional["AggregatorHost"] = None,
    ):
        self.profile = profile
        self.config = config
        self.obs = obs
        self.agents = agents
        # With a durable host, accepted batches are WAL-logged before
        # ingest and uploads are refused while the service is down.
        if host is not None:
            sink = host.ingest_wire_batch
        else:
            def sink(t: int, batch: SampleBatch) -> None:
                aggregator.ingest_batch(batch.columns)
        self.endpoint = AggregatorEndpoint(
            sink=sink, ack=self._route_ack, obs=obs,
            gate=host.accepting if host is not None else None)
        if host is not None:
            host.bind_endpoint(self.endpoint)
        self.ports: dict[str, _MachinePort] = {}
        root = np.random.SeedSequence(seed)
        names = sorted(agents)
        children = root.spawn(5 * len(names))
        for i, name in enumerate(names):
            up_rng, ack_rng, spec_rng, jitter_rng, crash_rng = (
                np.random.default_rng(c) for c in children[5 * i:5 * i + 5])
            uplink = FaultyLink(
                f"upload:{name}", profile.upload, up_rng,
                deliver=self.endpoint.receive,
                corrupter=corrupt_sample_batch, obs=obs)
            acklink = FaultyLink(
                f"ack:{name}", profile.ack, ack_rng,
                deliver=self._make_ack_deliverer(name), obs=obs)
            speclink = FaultyLink(
                f"spec:{name}", profile.spec_push, spec_rng,
                deliver=self._make_spec_deliverer(name),
                corrupter=corrupt_spec_push, obs=obs)
            client = UploadClient(name, uplink.send, profile.retry,
                                  jitter_rng, obs=obs)
            self.ports[name] = _MachinePort(
                uplink, acklink, speclink, client,
                CrashInjector(profile.agent_crash_rate, crash_rng))

    # -- delivery routing --------------------------------------------------------

    def _route_ack(self, t: int, ack: Ack) -> None:
        self.ports[ack.machine].acklink.send(t, ack)

    def _make_ack_deliverer(self, machine: str):
        def deliver(t: int, ack: Ack) -> None:
            # Resolved via self.ports: the client is created after the link.
            self.ports[machine].client.on_ack(t, ack)
        return deliver

    def _make_spec_deliverer(self, machine: str):
        def deliver(t: int, push: SpecPush) -> None:
            self.agents[machine].receive_spec_push(t, push.specs,
                                                   push.issued_at)
        return deliver

    # -- pipeline entry points ---------------------------------------------------

    def upload(self, t: int, machine_name: str,
               columns: "SampleColumns") -> None:
        """Ship one closed window's samples toward the aggregator."""
        self.ports[machine_name].client.upload(t, columns)

    def push_specs(self, t: int, specs: dict[SpecKey, CpiSpec],
                   only: Optional[Iterable[str]] = None) -> None:
        """Fan one freshly-published spec map out to every machine.

        ``only`` limits the fan-out to a subset of machines (shard workers
        push to their own slice; the union across workers is the fleet).
        """
        for name in sorted(self.ports if only is None else only):
            self.ports[name].speclink.send(t, SpecPush(issued_at=t,
                                                       specs=dict(specs)))

    def capture_arrivals(self) -> list:
        """Rewire the endpoint to record arrivals instead of ingesting.

        Shard workers call this: the worker-local
        :class:`~repro.faults.retry.AggregatorEndpoint` still dedupes
        batch ids and sends acks (machine-side behaviour), but instead of
        feeding the worker's demoted replica aggregator, each non-empty
        non-duplicate batch is recorded in the returned list as
        ``(arrival_tick, machine, SampleColumns)`` for the coordinator to
        replay into the canonical aggregator in global (tick, machine)
        order — the same order the single-process pump delivers in.
        """
        arrivals: list = []

        def record(t: int, batch: SampleBatch) -> None:
            if batch.columns:
                arrivals.append((t, batch.machine, batch.columns))

        self.endpoint.sink = record
        return arrivals

    def pump(self, t: int, only: Optional[Iterable[str]] = None) -> None:
        """Advance fabric time by one second.

        Delivers due messages, times out and retries uploads, injects
        agent crashes, and takes scheduled checkpoints — per machine, in
        sorted-name order, so runs replay deterministically.  ``only``
        restricts the sweep to a subset of machines; every per-machine
        component draws from its own generator, so a shard's schedule is
        unchanged by the machines it is pumped alongside.
        """
        for name in sorted(self.ports if only is None else only):
            port = self.ports[name]
            port.uplink.tick(t)
            port.acklink.tick(t)
            port.speclink.tick(t)
            port.client.pump(t)
            agent = self.agents[name]
            if port.crasher.should_crash():
                agent.crash_and_restart(t)
            if t % self.config.checkpoint_interval == 0:
                agent.take_checkpoint(t)

    # -- fault accounting --------------------------------------------------------

    def fault_tallies(self) -> dict[str, int]:
        """Injected faults by kind, summed across every link."""
        tallies: dict[str, int] = {}
        for port in self.ports.values():
            for link in (port.uplink, port.acklink, port.speclink):
                for kind, count in link.fault_tallies.items():
                    tallies[kind] = tallies.get(kind, 0) + count
        crashes = sum(p.crasher.crashes for p in self.ports.values())
        if crashes:
            tallies["crash"] = crashes
        return tallies

    def machine_fault_tallies(self) -> dict[str, dict[str, int]]:
        """Injected faults by machine, by kind (fault-free machines omitted).

        The per-machine breakdown behind the fleet console's faults column;
        a shard worker's dict covers only the machines it pumped, so the
        union across workers partitions the fleet exactly.
        """
        out: dict[str, dict[str, int]] = {}
        for name in sorted(self.ports):
            port = self.ports[name]
            tallies: dict[str, int] = {}
            for link in (port.uplink, port.acklink, port.speclink):
                for kind, count in link.fault_tallies.items():
                    if count:
                        tallies[kind] = tallies.get(kind, 0) + count
            if port.crasher.crashes:
                tallies["crash"] = port.crasher.crashes
            if tallies:
                out[name] = tallies
        return out

    @property
    def total_faults_injected(self) -> int:
        """Every fault of every kind the plane has injected so far."""
        return sum(self.fault_tallies().values())
