"""Reference demand: the per-task closures, reached without a switch.

The closures in :mod:`repro.workloads.demand` are both the workloads'
definition and, through :class:`DemandClosures`, the program of every
arena :class:`DemandColumns` cannot compile, so the reference is still in
``src/``.  These helpers make a machine take that path.
"""

from repro.cluster.demandplane import DemandClosures, DemandColumns


def install(monkeypatch) -> None:
    """Compile no columns anywhere: every arena runs its closures."""
    monkeypatch.setattr(DemandColumns, "compile",
                        classmethod(lambda cls, *args: DemandClosures(*args)))


def pin_closures(workloads) -> None:
    """Keep arenas holding these workloads on the closures.

    An instance-bound ``cpu_demand`` is one of the overrides that make
    :meth:`DemandColumns.compile` return :class:`DemandClosures`.
    """
    for workload in workloads:
        workload.cpu_demand = workload.cpu_demand


def gated_closure(workload, start: int):
    """Silence ``workload``'s demand before ``start`` the way trials did
    before :func:`repro.workloads.demand.gated`: a closure over its
    ``cpu_demand``, bound on the instance (so its fleet runs closures)."""
    original = workload.cpu_demand

    def gated_demand(t: int) -> float:
        return 0.0 if t < start else original(t)

    workload.cpu_demand = gated_demand
    return workload
