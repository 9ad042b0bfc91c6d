"""The cluster-level CPI2 data pipeline (paper Figure 6).

"CPI data is gathered for every task on a machine, then sent off-machine to
a service where data from related tasks is aggregated.  The per-job,
per-platform aggregated CPI values are then sent back to each machine that
is running a task from that job.  Anomalies are detected locally, which
enables rapid responses and increases scalability."

:class:`CpiPipeline` wires one :class:`~repro.cluster.simulation.ClusterSimulation`
to CPI2: it installs a :class:`~repro.core.agent.MachineAgent` on every
machine, routes closed sampling windows both to the central
:class:`~repro.core.aggregator.CpiAggregator` (upward path) and to the local
agent (local path), pushes refreshed specs back down, forwards incidents to
the :class:`~repro.core.forensics.ForensicsStore`, and actuates
migrate/kill decisions through the cluster scheduler.

It is also the simulation's control plane (:meth:`begin_tick`,
:meth:`machine_turn`): once per tick it pumps the fault plane, then works
only on the machines whose agents have something due — taken from one
due-time heap that each agent keeps current through
:attr:`MachineAgent.on_due` — or whose tasks departed.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Optional

from repro.cluster.machine import TickResult
from repro.cluster.scheduler import PlacementError
from repro.cluster.simulation import SECONDS_PER_DAY, ClusterSimulation
from repro.cluster.task import Task
from repro.core.aggregator import CpiAggregator
from repro.core.agent import Incident, MachineAgent
from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.forensics import ForensicsStore
from repro.core.records import CpiSample, CpiSpec
from repro.core.samplebatch import WindowSamples
from repro.core.specstore import AggregatorHost, DurableSpecStore
from repro.core.throttle import ThrottleController
from repro.faults.plane import FaultPlane
from repro.faults.profile import FaultProfile, resolve_fault_profile
from repro.obs import Observability, default_observability, render_metrics_report

__all__ = ["CpiPipeline"]


class CpiPipeline:
    """CPI2 deployed across a simulated cluster."""

    def __init__(
        self,
        simulation: ClusterSimulation,
        config: CpiConfig = DEFAULT_CONFIG,
        forensics: Optional[ForensicsStore] = None,
        throttler_factory=None,
        enable_migration: bool = False,
        log_samples: bool = False,
        obs: Optional[Observability] = None,
        fault_profile: "FaultProfile | str | None" = None,
        fault_seed: int = 0,
        spec_store: Optional[DurableSpecStore] = None,
    ):
        """Args:
            simulation: the cluster to deploy onto.  The pipeline registers
                its sinks/hooks on construction.
            config: CPI2 parameters (the simulation's sampler should use the
                same duty cycle; this is the caller's responsibility).
            forensics: incident store (a fresh one if omitted).
            throttler_factory: ``() -> ThrottleController`` per agent; lets
                experiments swap in :class:`AdaptiveCapController`.
            enable_migration: actuate MIGRATE_VICTIM / KILL_ANTAGONIST
                decisions through the scheduler (off by default, matching the
                paper: "we don't automatically do this").
            log_samples: retain every CPI sample in :attr:`sample_log` for
                offline analysis ("we log and store data about CPIs and
                suspected antagonists"); pair with
                :func:`repro.core.storage.save_samples` to persist.
            obs: telemetry handle shared by the whole deployment — the
                aggregator, every agent (and through them detectors and
                throttlers), and the simulation.  The process default when
                omitted; pass a fresh :class:`~repro.obs.Observability` for
                an isolated registry.
            fault_profile: a :class:`~repro.faults.profile.FaultProfile`
                or preset name (``none``/``light``/``moderate``/``heavy``)
                describing the machine <-> aggregator fabric's failure
                behaviour.  The default (or any zero profile) bypasses the
                fault plane entirely: sample uploads and spec pushes stay
                in-process and runs are byte-identical to a build without
                fault injection.
            fault_seed: root seed for all injected-fault randomness,
                independent of the simulation seed so the workload is
                unchanged under different fault schedules.
            spec_store: a :class:`~repro.core.specstore.DurableSpecStore`
                to WAL every aggregator mutation into.  One is created
                automatically when the fault profile can kill the
                aggregator; pass one explicitly to keep a handle on it
                (the soak harness does) or to mirror it to disk.
        """
        self.simulation = simulation
        self.config = config
        self.obs = obs or default_observability()
        self.obs.bind_clock(lambda: simulation.now)
        self.aggregator = CpiAggregator(config, obs=self.obs)
        self.forensics = forensics or ForensicsStore()
        self.enable_migration = enable_migration
        make_throttler = throttler_factory or (lambda: ThrottleController(config))
        self.agents: dict[str, MachineAgent] = {}
        for name, machine in simulation.machines.items():
            self.agents[name] = MachineAgent(
                machine=machine,
                config=config,
                throttler=make_throttler(),
                incident_sink=self.forensics.record,
                migrator=self._migrate if enable_migration else None,
                obs=self.obs,
            )
        profile = resolve_fault_profile(fault_profile)
        self.fault_profile = profile
        #: Durable process shell around the aggregator; only built when
        #: something needs it (a kill schedule, an outage, or an explicit
        #: store) so plain runs keep their direct aggregator calls.
        self.host: Optional[AggregatorHost] = None
        if (spec_store is not None or profile.has_aggregator_faults
                or profile.aggregator_outage_seconds > 0):
            self.host = AggregatorHost(self.aggregator, profile, fault_seed,
                                       config, obs=self.obs, store=spec_store)
        #: The injectable transport/crash fabric; ``None`` (zero profile)
        #: keeps every path a direct in-process call.  A non-zero outage
        #: forces the plane even on an otherwise clean profile: refusing
        #: uploads only means something when uploads ride the fabric's
        #: retry/backoff clients.
        self.faults: Optional[FaultPlane] = None
        if not profile.is_zero or profile.aggregator_outage_seconds > 0:
            self.faults = FaultPlane(profile, fault_seed, self.aggregator,
                                     self.agents, config, obs=self.obs,
                                     host=self.host)
        #: When set (shard worker), the fault plane is pumped for these
        #: machines only; the coordinator owns the rest of the control plane.
        self.shard_names: Optional[frozenset[str]] = None
        #: The due-time heap of ``(second, machine name)`` entries, and
        #: each agent's one live entry: the second it is woken at, never
        #: later than its next_due.  An entry that no longer matches
        #: ``_wake_at`` was superseded by an earlier one and is skipped.
        self._due: list[tuple[int, str]] = []
        self._wake_at: dict[str, int] = {}
        for agent in self.agents.values():
            agent.on_due = self._schedule
        simulation.add_sample_sink(self._on_samples)
        simulation.set_control_plane(self)
        #: Telemetry plane: when the facade carries a TSDB, scrape it at
        #: every sampling-window close.  A shard worker disables the local
        #: scrape (restrict_to_shard) and ships its registry state to the
        #: coordinator instead, whose TSDB then holds the fleet view.
        self._scrape_locally = True
        if self.obs.timeseries is not None:
            sampler = simulation.config.sampler
            self._scrape_offset = sampler.duration_seconds
            self._scrape_period = sampler.period_seconds
            # Window closes are sampler edges, so the hook acts at none
            # of the seconds before the next edge.
            simulation.add_step_hook(self._on_step_end,
                                     next_event=sampler.next_edge)
        if simulation.obs is None:
            simulation.set_observability(self.obs)
        self.total_samples = 0
        self.machine_seconds = 0
        self.log_samples = log_samples
        #: Every sample seen, when ``log_samples`` is on.
        self.sample_log: list[CpiSample] = []

    # -- simulation plumbing ------------------------------------------------------

    def _on_samples(self, t: int, machine_name: str,
                    samples: WindowSamples) -> None:
        n = len(samples)
        self.total_samples += n
        if self.log_samples:
            self.sample_log.extend(samples)
        # The sampler ships its window as WindowSamples — columns already
        # built, objects only on demand.  Reuse them everywhere.
        columns = samples.columns
        if self.faults is None:
            if n:
                # An empty window skips the batch call outright
                # (ingest_batch early-returns on n == 0, so unobservable).
                if self.host is not None:
                    self.host.ingest_columns(t, columns, samples=samples)
                else:
                    self.aggregator.ingest_batch(columns)
        else:
            self.faults.upload(t, machine_name, samples)
        refreshed = (self.host.maybe_recompute(t) if self.host is not None
                     else self.aggregator.maybe_recompute(t))
        if refreshed is not None:
            if self.faults is None:
                for agent in self.agents.values():
                    agent.update_specs(refreshed, now=t)
            else:
                self.faults.push_specs(t, refreshed)
        # The agent reuses the window's columns instead of re-encoding.
        self.agents[machine_name].ingest_samples(t, samples, columns=columns)

    def _schedule(self, name: str, due: int) -> None:
        """Wake ``name``'s agent at ``due`` unless it is woken earlier
        (an early wake finds nothing due and reschedules)."""
        at = self._wake_at.get(name)
        if at is None or due < at:
            self._wake_at[name] = due
            heapq.heappush(self._due, (due, name))

    def begin_tick(self, t: int) -> Iterable[str]:
        """The control plane's once-per-tick work; returns the machines
        whose agents have something due at ``t``.

        Counts the tick's machine-seconds, pumps the host first (an outage
        ending at ``t`` is back up before ``t``'s deliveries) and then the
        fabric — deliver due messages, advance retries, inject crashes,
        checkpoint — and only then pops the due-time heap, since the pump
        can arm follow-ups (a restore) or move spec anchors.
        """
        machines = self.simulation.machines
        self.machine_seconds += len(machines)
        if self.host is not None:
            self.host.pump(t)
        if self.faults is not None:
            self.faults.pump(t, only=self.shard_names)
        heap = self._due
        if not heap or heap[0][0] > t:
            return ()
        due = set()
        wake_at = self._wake_at
        while heap and heap[0][0] <= t:
            at, name = heapq.heappop(heap)
            if wake_at.get(name) != at:
                continue
            del wake_at[name]
            if name not in machines:
                continue
            at = self.agents[name].next_due(t)
            if at == t:
                due.add(name)
            elif at is not None:
                self._schedule(name, at)
        return due

    def next_event(self, t: int) -> float:
        """The first second ``>= t`` at which :meth:`begin_tick` may do
        more than count machine-seconds: the top of the due-time heap
        (``math.inf`` when it is empty), or ``t`` while a host or fault
        plane pumps every second."""
        if self.host is not None or self.faults is not None:
            return t
        heap = self._due
        return max(t, heap[0][0]) if heap else math.inf

    def quiet_ticks(self, t: int, k: int) -> None:
        """:meth:`begin_tick` for ``k`` seconds from ``t`` before
        :meth:`next_event`: only the machine-seconds to count."""
        self.machine_seconds += k * len(self.simulation.machines)

    def machine_turn(self, t: int, name: str, result: TickResult,
                     due: bool) -> None:
        """One machine's control work at ``t``: its agent's tick when
        due, then the departed tasks' state dropped."""
        agent = self.agents[name]
        if due:
            agent.tick(t)
            at = agent.next_due(t + 1)
            if at is not None:
                self._schedule(name, at)
        for task, _state in result.departures:
            agent.forget_task(task.name, now=t)

    # -- telemetry plane ---------------------------------------------------------

    def _on_step_end(self, t: int) -> None:
        """Scrape at sampling-window closes (only registered with a TSDB)."""
        if not self._scrape_locally:
            return
        if t < self._scrape_offset or (t - self._scrape_offset) % self._scrape_period:
            return
        self.scrape_now(t)

    def scrape_now(self, t: int) -> None:
        """Take one telemetry scrape of this deployment's registry."""
        tsdb = self.obs.timeseries
        if tsdb is None:
            return
        tsdb.scrape_registry(t, self.obs.metrics,
                             extra_gauges={"fleet_machines": len(self.agents)})
        if self.obs.alerts is not None:
            self.obs.alerts.evaluate(tsdb, t)

    def scrape_shards(self, t: int, states: list[dict]) -> None:
        """Coordinator-side scrape: own registry state plus worker states.

        ``states`` are :func:`repro.obs.metrics.export_state` dumps shipped
        by the shard workers at barrier ``t``; summed with the
        coordinator's own registry they reconstruct exactly what a
        single-process scrape at ``t`` would have read.
        """
        tsdb = self.obs.timeseries
        if tsdb is None:
            return
        from repro.obs.metrics import export_state

        tsdb.scrape_states(t, [export_state(self.obs.metrics)] + list(states),
                           extra_gauges={"fleet_machines": len(self.agents)})
        if self.obs.alerts is not None:
            self.obs.alerts.evaluate(tsdb, t)

    def fleet_console(self):
        """The per-machine health scoreboard for this deployment."""
        from repro.obs.console import build_console

        machine_faults = (self.faults.machine_fault_tallies()
                          if self.faults is not None else {})
        rows = {
            name: {
                "anomalies": agent.anomalies_seen,
                "caps_active": int(self.obs.metrics.value(
                    "caps_active", machine=name) or 0),
                "degraded": agent.degraded,
                "crashes": agent.crash_count,
                "faults": machine_faults.get(name, {}),
            }
            for name, agent in self.agents.items()
        }
        engine = self.obs.alerts
        tsdb = self.obs.timeseries
        return build_console(
            rows, seconds=self.simulation.now,
            alerts_fired=engine.fired_counts() if engine is not None else {},
            alerts_active=engine.active() if engine is not None else [],
            scrapes=tsdb.scrapes if tsdb is not None else 0)

    def _migrate(self, task: Task) -> None:
        try:
            self.simulation.scheduler.migrate_task(task)
            self.obs.metrics.counter("migrations", outcome="moved").inc()
            self.obs.events.event("task_migrated", task=task.name,
                                  job=task.job.name)
        except PlacementError:
            # Nowhere to go; the task stays put and CPI2 retries later.
            self.obs.metrics.counter("migrations", outcome="no_placement").inc()
            self.obs.events.event("migration_failed", task=task.name,
                                  job=task.job.name, reason="no_placement")

    def restrict_to_shard(self, names) -> None:
        """Confine this deployment to a subset of machines (shard worker).

        The simulation drops non-shard machines/samplers from its
        iteration tables and the fault plane is pumped for the shard only;
        agents for non-shard machines remain constructed (their RNG-free
        construction already happened) but never tick.  See
        :mod:`repro.cluster.shards` for the coordinator side.
        """
        keep = frozenset(names)
        self.simulation.restrict_to(keep)
        self.shard_names = keep
        # The coordinator owns the fleet TSDB; workers only ship state.
        self._scrape_locally = False
        if self.host is not None:
            # The coordinator owns the canonical durable host; this
            # worker's host only tracks the up/down schedule so its
            # endpoint gate refuses exactly what the coordinator's would.
            # Accepted batches go to the worker's arrival capture
            # (FaultPlane.capture_arrivals), not into the replica's WAL.
            self.host.become_replica()

    # -- operator conveniences ---------------------------------------------------------

    def bootstrap_specs(self, specs: list[CpiSpec]) -> None:
        """Warm-start the aggregator and all agents with known specs.

        Models the paper's use of historical data from prior runs, and lets
        experiments begin detecting immediately rather than after a learning
        period.
        """
        for spec in specs:
            if self.host is not None:
                self.host.set_spec(spec)
            else:
                self.aggregator.set_spec(spec)
        published = self.aggregator.specs()
        for agent in self.agents.values():
            agent.update_specs(published)

    def refresh_specs_now(self) -> None:
        """Force a spec recomputation and push, off the normal schedule."""
        refreshed = (self.host.recompute(self.simulation.now)
                     if self.host is not None
                     else self.aggregator.recompute(self.simulation.now))
        for agent in self.agents.values():
            agent.update_specs(refreshed)

    def metrics_report(self) -> str:
        """This deployment's metrics, rendered for the terminal."""
        return render_metrics_report(self.obs.metrics)

    def all_incidents(self) -> list[Incident]:
        """Every incident raised by any agent, in id order."""
        incidents = [i for agent in self.agents.values() for i in agent.incidents]
        incidents.sort(key=lambda i: i.incident_id)
        return incidents

    def incident_rate_per_machine_day(self) -> float:
        """Identified-antagonist incidents per machine-day (Section 7: ~0.37).

        Counts incidents where an antagonist was identified (the policy chose
        a target), divided by elapsed machine-days.
        """
        if self.machine_seconds == 0:
            return 0.0
        identified = sum(
            1 for i in self.all_incidents() if i.decision.target is not None)
        machine_days = self.machine_seconds / SECONDS_PER_DAY
        return identified / machine_days if machine_days > 0 else 0.0

    def apply_scheduler_hints(self, min_incidents: int = 2) -> int:
        """Feed forensics anti-affinity hints to the scheduler.

        Returns the number of pairs installed.  This is the Section 9 future
        work ("making job placement antagonist-aware automatically") made
        concrete.
        """
        hints = self.forensics.scheduler_hints(min_incidents)
        for victim_job, antagonist_job in hints:
            self.simulation.scheduler.avoid_colocation(victim_job, antagonist_job)
        return len(hints)
