"""Per-tick execution traces: record a run, analyse it offline.

The paper's case-study figures are exactly this artefact — a victim's CPI
and an antagonist's CPU usage, second by second, around a throttling event.
:class:`TraceRecorder` hooks a simulation and captures those series for any
subset of tasks, at any decimation, and round-trips through JSON lines so a
scenario can be recorded once and studied (or plotted with
:mod:`repro.analysis.viz`) afterwards.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.cluster.machine import Machine, TickResult
from repro.cluster.simulation import ClusterSimulation

__all__ = ["TracePoint", "TraceRecorder", "load_trace"]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TracePoint:
    """One task's execution during one recorded second."""

    t: int
    machine: str
    taskname: str
    jobname: str
    grant: float
    cpi: float
    capped: bool


class TraceRecorder:
    """Streams selected per-task tick data out of a running simulation."""

    def __init__(
        self,
        simulation: ClusterSimulation,
        task_filter: Optional[Callable[[str], bool]] = None,
        interval: int = 1,
    ):
        """Args:
            simulation: the simulation to hook (registration is immediate).
            task_filter: keep only task names this returns True for
                (``None`` records everything — mind the volume).
            interval: record every Nth second (decimation).
        """
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.task_filter = task_filter
        self.interval = interval
        self.points: list[TracePoint] = []
        simulation.add_tick_hook(self._record)

    def _record(self, t: int, machine: Machine, result: TickResult) -> None:
        if t % self.interval != 0:
            return
        for taskname, grant in result.grants.items():
            if self.task_filter is not None and not self.task_filter(taskname):
                continue
            task = (machine.get_task(taskname)
                    if machine.has_task(taskname) else None)
            self.points.append(TracePoint(
                t=t,
                machine=machine.name,
                taskname=taskname,
                jobname=taskname.rsplit("/", 1)[0],
                grant=grant,
                cpi=result.cpis.get(taskname, float("nan")),
                capped=(task.cgroup.is_capped(t) if task is not None
                        else False),
            ))

    # -- views -------------------------------------------------------------------

    def series(self, taskname: str, field: str = "cpi"
               ) -> tuple[list[int], list[float]]:
        """(timestamps, values) for one task's recorded field.

        ``field`` is one of ``cpi`` / ``grant``.
        """
        if field not in ("cpi", "grant"):
            raise ValueError(f"field must be 'cpi' or 'grant', got {field!r}")
        ts, values = [], []
        for point in self.points:
            if point.taskname == taskname:
                ts.append(point.t)
                values.append(getattr(point, field))
        return ts, values

    def tasknames(self) -> list[str]:
        """Distinct task names present in the trace."""
        return sorted({p.taskname for p in self.points})

    def window(self, start: int, end: int) -> list[TracePoint]:
        """Points with ``start <= t < end``."""
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        return [p for p in self.points if start <= p.t < end]

    # -- persistence --------------------------------------------------------------

    def save(self, path: PathLike) -> int:
        """Write the trace as JSON lines; returns the number of points."""
        with open(path, "w", encoding="utf-8") as handle:
            for point in self.points:
                handle.write(json.dumps(asdict(point)) + "\n")
        return len(self.points)


def load_trace(path: PathLike) -> list[TracePoint]:
    """Read a trace written by :meth:`TraceRecorder.save`."""
    field_names = set(TracePoint.__dataclass_fields__)
    points = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if set(data) != field_names:
                raise ValueError(f"{path}:{line_number}: bad trace record")
            points.append(TracePoint(**data))
    return points
