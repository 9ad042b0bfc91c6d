"""Reference demand: the per-task closures, reached without a switch.

The closures in :mod:`repro.workloads.demand` are both the workloads'
definition and the fallback for tables :class:`DemandColumns` cannot
compile, so the reference is still in ``src/``.  These helpers make a
machine take that path.
"""

from repro.cluster.demandplane import DemandColumns


def install(monkeypatch) -> None:
    """Compile no demand program anywhere: every table runs the closures."""
    monkeypatch.setattr(DemandColumns, "compile",
                        classmethod(lambda cls, *args, **kwargs: None))


def pin_closures(workloads) -> None:
    """Keep tables holding these workloads on the closures.

    An instance-bound ``cpu_demand`` is one of the overrides that make
    :meth:`DemandColumns.compile` return ``None``.
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
