"""The cluster simulation loop: one clock, stepped or block-stepped.

The clock counts simulated seconds.  A second at which something besides
the machines' own physics must act is one tick (:meth:`ClusterSimulation.step`):

1. executes every machine (CPU allocation, contention, counters),
2. runs its control plane and per-machine hooks: the CPI2 pipeline, once
   per tick, pumps its fault plane and works only on the machines whose
   agents have something due (a follow-up, a degraded-mode transition)
   or whose tasks departed; a per-machine hook (``TraceRecorder``) sees
   every machine,
3. at the seconds a sampling window opens or closes — every machine's
   sampler shares ``SimConfig.sampler``, so those seconds are the same for
   all — runs every machine's CPI sampler and fans closed windows out to
   sinks (the CPI2 pipeline registers itself as a sink), and
4. periodically asks the scheduler to re-place preempted/pending tasks.

:meth:`ClusterSimulation.run` ticks only those seconds.  From each second
it finds the *horizon*: the earliest of the next sampler edge
(:meth:`SamplerConfig.next_edge`), the control plane's next event
(:meth:`ControlPlane.next_event`: the top of the pipeline's due-time
heap), the next rescheduling second, each step hook's next acting second
and the end of the run.  The quiet seconds before it need nothing but
the fleet's physics, so the fleet runs them as blocks of seconds x tasks
(:meth:`FusedFleet.block`) and the control plane counts them in one add
(:meth:`ControlPlane.quiet_ticks`); the horizon itself is a tick.  A run
ticks every second when any of these holds: a tick hook is registered, a
step hook does not declare its acting seconds, the control plane has no
horizon (a fault plane or an aggregator host), or the fleet cannot take
a block (no batch accounting, no blockable program, a duty cycle in
force, a machine outside the fleet).  Either way every observable equals
:meth:`ClusterSimulation.step` at every second.

The loop is deterministic given the seed: every stochastic component draws
from generators spawned off one root ``numpy`` seed sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Iterable, Mapping, Optional,
                    Protocol)

import numpy as np

from repro.cluster.fused import FusedFleet
from repro.cluster.machine import Machine, TickResult
from repro.cluster.scheduler import ClusterScheduler
from repro.obs import Observability
from repro.perf.sampler import CpiSampler, SamplerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.samplebatch import SampleColumns

__all__ = ["SimConfig", "ClusterSimulation"]

#: Sink signature: (time, machine_name, the window just closed).  The
#: window is the sampler's :class:`~repro.core.samplebatch.SampleColumns`,
#: never empty, and shared by every sink: a sink reads it, and one that
#: needs sample objects decodes them with ``to_samples()``.
SampleSink = Callable[[int, str, "SampleColumns"], None]

#: Hook signature: (time, machine, tick_result) after a machine executed.
TickHook = Callable[[int, Machine, TickResult], None]

#: Hook signature: (time,) at the very end of a tick, after samplers and
#: sinks ran but before the clock advances.  The telemetry plane scrapes
#: from here so a scrape at t sees every effect of tick t.
StepHook = Callable[[int], None]


class ControlPlane(Protocol):
    """What the simulation drives once per tick after the machines ran.

    The simulation reports the first machine's departures, calls
    :meth:`begin_tick`, then gives a turn to each machine that is due or
    had departures, in name order, reporting each later machine's
    departures just before its turn.  :meth:`ClusterSimulation.run` asks
    :meth:`next_event` where its horizon is, and reports the quiet
    seconds it ran as fleet blocks with :meth:`quiet_ticks` instead of
    ticks.
    """

    def begin_tick(self, t: int) -> Iterable[str]:
        """Once per tick; returns the names of the machines due at ``t``."""

    def machine_turn(self, t: int, name: str, result: TickResult,
                     due: bool) -> None:
        """A machine's control work at ``t``: ``due`` says it was named
        by :meth:`begin_tick`; ``result`` holds its departures."""

    def next_event(self, t: int) -> float:
        """The first second ``>= t`` at which :meth:`begin_tick` may do
        more than count (``math.inf`` for none): ``t`` itself when it
        works every second."""

    def quiet_ticks(self, t: int, k: int) -> None:
        """Seconds ``t .. t+k-1``, all before :meth:`next_event`, passed
        with nothing due: :meth:`begin_tick`'s bookkeeping for them."""


SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400


@dataclass
class SimConfig:
    """Simulation-wide knobs.

    Attributes:
        seed: root seed for all randomness in the simulation.
        reschedule_period: seconds between attempts to re-place pending tasks.
        sampler: CPI sampling duty cycle for every machine.
    """

    seed: int = 42
    reschedule_period: int = 60
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self) -> None:
        if self.reschedule_period < 1:
            raise ValueError(
                f"reschedule_period must be >= 1, got {self.reschedule_period}")


class ClusterSimulation:
    """Owns the clock and drives machines, samplers, hooks, and the scheduler."""

    def __init__(
        self,
        machines: Iterable[Machine],
        config: SimConfig | None = None,
        scheduler: Optional[ClusterScheduler] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or SimConfig()
        #: Telemetry handle; ``None`` keeps the tick loop uninstrumented.
        #: The CPI2 pipeline injects its own via :meth:`set_observability`.
        self.obs: Optional[Observability] = None
        self._c_ticks = None
        self._c_departures = None
        if obs is not None:
            self.set_observability(obs)
        self.machines: dict[str, Machine] = {m.name: m for m in machines}
        if not self.machines:
            raise ValueError("simulation needs at least one machine")
        root = np.random.SeedSequence(self.config.seed)
        children = root.spawn(len(self.machines) + 1)
        for child, machine in zip(children, self.machines.values()):
            machine.rng = np.random.default_rng(child)
        self.rng = np.random.default_rng(children[-1])
        self.scheduler = scheduler or ClusterScheduler(
            self.machines.values(), rng=self.rng)
        self.samplers: dict[str, CpiSampler] = {
            name: CpiSampler(machine, self.config.sampler, obs=self.obs)
            for name, machine in self.machines.items()
        }
        self._sample_sinks: list[SampleSink] = []
        self._tick_hooks: list[TickHook] = []
        self._step_hooks: list[StepHook] = []
        #: Each step hook's next acting second, or None for a hook that
        #: did not declare it (see add_step_hook).
        self._step_hook_events: list[Optional[Callable[[int], int]]] = []
        self._control: Optional[ControlPlane] = None
        #: Cached name-sorted iteration order for machines and samplers.
        #: Machines never change identity mid-run today; the cache is
        #: invalidated explicitly (or by a length change) if topology ever
        #: does change.
        self._machine_order: Optional[tuple[tuple[str, Machine], ...]] = None
        self._sampler_order: Optional[tuple[tuple[str, CpiSampler], ...]] = None
        #: The cluster-fused execution arena (rebuilt on placement changes;
        #: ``None`` until built or when any machine is ineligible).
        self._fleet: Optional[FusedFleet] = None
        #: The next second to execute.
        self.now = 0

    # -- wiring -----------------------------------------------------------------

    def add_sample_sink(self, sink: SampleSink) -> None:
        """Register a consumer of closed sampling windows."""
        self._sample_sinks.append(sink)

    def add_tick_hook(self, hook: TickHook) -> None:
        """Register a per-(tick, machine) observer, called after execution
        for every machine, after the control plane's turns."""
        self._tick_hooks.append(hook)

    def set_control_plane(self, plane: ControlPlane) -> None:
        """Attach the control plane (one per simulation; see
        :class:`ControlPlane`)."""
        if self._control is not None:
            raise ValueError("the simulation already has a control plane")
        self._control = plane

    def add_step_hook(self, hook: StepHook,
                      next_event: Optional[Callable[[int], int]] = None
                      ) -> None:
        """Register an end-of-tick observer (runs before the clock advances).

        Unlike tick hooks these fire once per tick, not once per machine,
        and only after every sampler window closed and every sink ran —
        the point in the tick where the telemetry plane takes its scrape.
        ``next_event(t)`` declares the first second ``>= t`` at which the
        hook does anything; :meth:`run` then skips the hook at the quiet
        seconds before it.  Without it, :meth:`run` ticks every second.
        """
        self._step_hooks.append(hook)
        self._step_hook_events.append(next_event)

    def set_observability(self, obs: Observability) -> None:
        """Attach telemetry: tick/departure counters and departure events.

        Also handed to every sampler so discarded windows (zero
        instructions, corrupted counter reads) are counted at the source.
        """
        self.obs = obs
        self._c_ticks = obs.metrics.counter("sim_ticks")
        self._c_departures = obs.metrics.counter("task_departures")
        for sampler in getattr(self, "samplers", {}).values():
            sampler.obs = obs

    # -- running ------------------------------------------------------------------

    def invalidate_iteration_order(self) -> None:
        """Drop the cached machine/sampler iteration order.

        Call after mutating :attr:`machines` or :attr:`samplers` in place
        (adding/removing machines mid-run).  A length change is also
        detected automatically at the next step.
        """
        self._machine_order = None
        self._sampler_order = None
        self._fleet = None

    def _iteration_order(self) -> tuple[tuple[tuple[str, Machine], ...],
                                        tuple[tuple[str, CpiSampler], ...]]:
        machine_order = self._machine_order
        sampler_order = self._sampler_order
        if (machine_order is None or sampler_order is None
                or len(machine_order) != len(self.machines)
                or len(sampler_order) != len(self.samplers)):
            machine_order = tuple(
                (name, self.machines[name]) for name in sorted(self.machines))
            sampler_order = tuple(
                (name, self.samplers[name]) for name in sorted(self.samplers))
            shared = self.config.sampler
            for name, sampler in sampler_order:
                if sampler.config != shared:
                    raise ValueError(
                        f"sampler {name!r} runs {sampler.config}, not the "
                        f"simulation's {shared}: every sampler must share "
                        f"SimConfig.sampler")
            self._machine_order = machine_order
            self._sampler_order = sampler_order
        return machine_order, sampler_order

    def step(self) -> Mapping[str, TickResult]:
        """Execute one simulated second across the whole cluster."""
        if self._c_ticks is not None:
            self._c_ticks.inc()
        return self._step()

    def _step(self) -> Mapping[str, TickResult]:
        """One tick, without the per-call tick-counter increment (so
        :meth:`run` can batch it into a single add)."""
        t = self.now
        results = self._tick_machines(t)
        self._run_samplers(t)
        self._finish_step(t)
        return results

    def _tick_machines(self, t: int) -> Mapping[str, TickResult]:
        """Phase 1: every machine's physics, then the control plane's
        turns and the per-machine hooks."""
        machine_order, _ = self._iteration_order()
        fleet = self._current_fleet(machine_order)
        if fleet is not None:
            results = fleet.step(t)
            departed = results.departed
        else:
            results = {name: machine.tick(t)
                       for name, machine in machine_order}
            departed = tuple(name for name, result in results.items()
                             if result.departures)
        control = self._control
        if control is None:
            for name in departed:
                self._report_departures(name, results[name])
        else:
            # The first machine's departures precede the control plane's
            # tick (its fault pump); every later machine's precede its own
            # turn.
            first = machine_order[0][0]
            if departed and departed[0] == first:
                self._report_departures(first, results[first])
            due = control.begin_tick(t)
            if due or departed:
                for name in sorted(set(due).union(departed)):
                    result = results[name]
                    if name != first and result.departures:
                        self._report_departures(name, result)
                    control.machine_turn(t, name, result, name in due)
        hooks = self._tick_hooks
        if hooks:
            for name, machine in machine_order:
                result = results[name]
                for hook in hooks:
                    hook(t, machine, result)
        return results

    def _current_fleet(self, machine_order: tuple[tuple[str, Machine], ...]
                       ) -> Optional[FusedFleet]:
        """All machines' physics in one cluster-wide arena (bit-identical
        to per-machine stepping; see repro.cluster.fused).  Rebuilt when
        placement changes or a machine was ticked on its own since;
        ``None`` when any machine's tick is patched or overridden (each
        machine's own tick runs instead)."""
        fleet = self._fleet
        if fleet is None or not fleet.matches(machine_order):
            fleet = FusedFleet.build(machine_order)
            self._fleet = fleet
        return fleet

    def _report_departures(self, name: str, result: TickResult) -> None:
        """Count one machine's departures and emit a ``task_departed``
        event for each."""
        obs = self.obs
        if obs is None:
            return
        self._c_departures.inc(len(result.departures))
        for task, state in result.departures:
            obs.events.event(
                "task_departed", machine=name, task=task.name,
                job=task.job.name, state=state.value)

    def _run_samplers(self, t: int) -> None:
        """Phase 2: at a window edge, tick every sampler, fanning each
        closed window straight out to the sinks (machine by machine, in
        sorted-name order)."""
        if not self.config.sampler.acts_at(t):
            return
        _, sampler_order = self._iteration_order()
        for name, sampler in sampler_order:
            samples = sampler.tick(t)
            if samples:
                for sink in self._sample_sinks:
                    sink(t, name, samples)

    def _tick_samplers(self, t: int) -> list[tuple[str, "SampleColumns"]]:
        """Phase 2, collect-only variant: tick samplers and return the
        closed windows *without* dispatching to sinks.

        The shard worker uses this to interpose its coordinator barrier
        between window close and downstream processing.  Collection order
        is the same sorted-name order :meth:`_run_samplers` dispatches in.
        """
        closed: list[tuple[str, "SampleColumns"]] = []
        if not self.config.sampler.acts_at(t):
            return closed
        _, sampler_order = self._iteration_order()
        for name, sampler in sampler_order:
            samples = sampler.tick(t)
            if samples:
                closed.append((name, samples))
        return closed

    def _finish_step(self, t: int) -> None:
        """Phase 3: end-of-tick hooks, periodic rescheduling, clock advance."""
        if self._step_hooks:
            for hook in self._step_hooks:
                hook(t)
        if t > 0 and t % self.config.reschedule_period == 0:
            self.scheduler.reschedule_pending()
        self.now += 1

    def restrict_to(self, names: Iterable[str]) -> None:
        """Confine the tick loop to a subset of machines (shard execution).

        Machines and samplers outside ``names`` are dropped from the
        iteration tables; the scheduler keeps its full view (sharded runs
        refuse workloads that would reschedule, so it is never consulted).
        Intended for a worker process that rebuilt the full deterministic
        scenario and executes only its shard — per-machine RNG streams are
        assigned before restriction, so they are unchanged by it.
        """
        keep = set(names)
        unknown = keep - set(self.machines)
        if unknown:
            raise ValueError(f"unknown machines: {sorted(unknown)}")
        self.machines = {n: m for n, m in self.machines.items() if n in keep}
        self.samplers = {n: s for n, s in self.samplers.items() if n in keep}
        self.invalidate_iteration_order()

    def run(self, seconds: int) -> None:
        """Advance the simulation by ``seconds`` ticks.

        Equivalent to ``seconds`` calls to :meth:`step`, but the per-tick
        observability counter is batched into one add up front, and the
        quiet seconds before each horizon (:meth:`_horizon`) run as fleet
        blocks (:meth:`_run_quiet`).
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if seconds and self._c_ticks is not None:
            self._c_ticks.inc(seconds)
        end = self.now + seconds
        while self.now < end:
            t = self.now
            h = self._horizon(t, end)
            if h > t and self._run_quiet(t, h) > t:
                continue
            self._step()

    def _horizon(self, t: int, end: int) -> int:
        """The first second in ``[t, end)`` at which anything but the
        fleet may act, else ``end``: the next sampler edge, rescheduling
        second, control-plane event or step-hook action; ``t`` when a tick
        hook or a step hook without a declared ``next_event`` must see
        every second."""
        control = self._control
        h = end if control is None else min(end, control.next_event(t))
        if h <= t or self._tick_hooks:
            return t
        config = self.config
        period = config.reschedule_period
        h = min(h, config.sampler.next_edge(t),
                max(period, -(-t // period) * period))
        for next_event in self._step_hook_events:
            if next_event is None:
                return t
            h = min(h, next_event(t))
        return h

    def _run_quiet(self, t: int, h: int) -> int:
        """Run the quiet seconds ``t .. h-1`` as fleet blocks, as far as
        the fleet takes them (:meth:`FusedFleet.block`); returns the next
        second to run (``t`` when the fleet took none)."""
        machine_order, _ = self._iteration_order()
        fleet = self._current_fleet(machine_order)
        if fleet is None:
            return t
        start = t
        while t < h:
            stop = fleet.block(t, h)
            if stop == t:
                break
            t = stop
        if t > start:
            if self._control is not None:
                self._control.quiet_ticks(start, t - start)
            self.now = t
        return t

    def run_minutes(self, minutes: float) -> None:
        """Advance by ``minutes`` simulated minutes."""
        self.run(int(minutes * SECONDS_PER_MINUTE))

    def run_hours(self, hours: float) -> None:
        """Advance by ``hours`` simulated hours."""
        self.run(int(hours * SECONDS_PER_HOUR))
