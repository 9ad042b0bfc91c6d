"""Reference control plane: the original every-second, per-machine loop.

This is how the simulation drove CPI2's control plane before the pipeline
kept a due-time heap:

* every second, for every machine in name order, the simulation emitted
  the machine's ``task_departed`` events and then called every tick hook
  with it;
* the pipeline's tick hook counted one machine-second, pumped the
  aggregator host and then the fault plane at its first call of the
  second, ticked the machine's agent and forgot the machine's departed
  tasks;
* every sampler was ticked every second (the schedule that skips the
  no-op seconds came later).

:func:`install` puts that loop back on one pipeline's simulation, ahead of
any tick hook already registered (the pipeline registered its hook when it
was built).  It leaves the machines' physics alone: the simulation's fleet
still steps every machine.
"""

from types import MethodType

from repro.cluster.fused import FusedFleet
from repro.core.pipeline import CpiPipeline


def install(pipeline: CpiPipeline) -> None:
    """Drive ``pipeline`` the original way: every machine, every second."""
    sim = pipeline.simulation
    sim._control = None
    for agent in pipeline.agents.values():
        agent.on_due = None
    sim._tick_hooks.insert(0, _PerMachineHook(pipeline))
    sim._tick_machines = MethodType(_tick_machines, sim)
    sim._run_samplers = MethodType(_run_samplers, sim)


class _PerMachineHook:
    """The pipeline's original per-(tick, machine) hook."""

    def __init__(self, pipeline: CpiPipeline) -> None:
        self.pipeline = pipeline
        self.last_pump = None

    def __call__(self, t, machine, result) -> None:
        pipeline = self.pipeline
        pipeline.machine_seconds += 1
        if ((pipeline.faults is not None or pipeline.host is not None)
                and t != self.last_pump):
            self.last_pump = t
            if pipeline.host is not None:
                pipeline.host.pump(t)
            if pipeline.faults is not None:
                pipeline.faults.pump(t, only=pipeline.shard_names)
        agent = pipeline.agents[machine.name]
        agent.tick(t)
        for task, _state in result.departures:
            agent.forget_task(task.name, now=t)


def _tick_machines(sim, t):
    machine_order, _ = sim._iteration_order()
    fleet = sim._fleet
    if fleet is None or not fleet.matches(machine_order):
        fleet = FusedFleet.build(machine_order)
        sim._fleet = fleet
    if fleet is not None:
        results = fleet.step(t)
    else:
        results = {name: machine.tick(t) for name, machine in machine_order}
    obs = sim.obs
    for name, machine in machine_order:
        result = results[name]
        if obs is not None and result.departures:
            sim._c_departures.inc(len(result.departures))
            for task, state in result.departures:
                obs.events.event(
                    "task_departed", machine=name, task=task.name,
                    job=task.job.name, state=state.value)
        for hook in sim._tick_hooks:
            hook(t, machine, result)
    return results


def _run_samplers(sim, t):
    _, sampler_order = sim._iteration_order()
    for name, sampler in sampler_order:
        samples = sampler.tick(t)
        if samples:
            for sink in sim._sample_sinks:
                sink(t, name, samples)
