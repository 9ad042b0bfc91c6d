"""Offline performance forensics (the paper's Dremel stand-in).

"To allow offline analysis, we log and store data about CPIs and suspected
antagonists.  Job owners and administrators can issue SQL-like queries
against this data ... e.g., to find the most aggressive antagonists for a job
in a particular time window.  They can use this information to ask the
cluster scheduler to avoid co-locating their job and these antagonists in
the future."  (Section 5.)

:class:`ForensicsStore` keeps flattened :class:`IncidentRecord` rows and
offers a small fluent query interface (select / where / group-by / order-by /
limit) plus the two canned analyses the paper calls out: most-aggressive
antagonists, and co-location-avoidance hints for the scheduler.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # the agent imports the checkpoint, which imports storage
    from repro.core.agent import Incident

__all__ = ["IncidentRecord", "Query", "ForensicsStore"]


@dataclass(frozen=True)
class IncidentRecord:
    """One incident, flattened for querying."""

    incident_id: int
    time_seconds: int
    machine: str
    victim_job: str
    victim_task: str
    victim_cpi: float
    cpi_threshold: float
    action: str
    antagonist_job: Optional[str]
    antagonist_task: Optional[str]
    correlation: Optional[float]
    recovered: Optional[bool]
    relative_cpi: Optional[float]

    @classmethod
    def from_incident(cls, incident: Incident) -> "IncidentRecord":
        """Flatten a live :class:`~repro.core.agent.Incident`."""
        target = incident.decision.target
        score = incident.decision.score
        return cls(
            incident_id=incident.incident_id,
            time_seconds=incident.time_seconds,
            machine=incident.machine,
            victim_job=incident.victim_jobname,
            victim_task=incident.victim_taskname,
            victim_cpi=incident.victim_cpi,
            cpi_threshold=incident.cpi_threshold,
            action=incident.decision.action.value,
            antagonist_job=target.job.name if target is not None else None,
            antagonist_task=target.name if target is not None else None,
            correlation=score.correlation if score is not None else None,
            recovered=incident.recovered,
            relative_cpi=incident.relative_cpi,
        )


class Query:
    """A small fluent query over incident records.

    Example::

        (store.query()
              .where(victim_job="websearch-leaf")
              .where_fn(lambda r: r.correlation and r.correlation > 0.4)
              .order_by("correlation", descending=True)
              .limit(5)
              .run())
    """

    def __init__(self, rows: Iterable[IncidentRecord]):
        self._rows = list(rows)
        self._predicates: list[Callable[[IncidentRecord], bool]] = []
        self._order_key: Optional[str] = None
        self._order_desc = False
        self._limit: Optional[int] = None

    def where(self, **equals: Any) -> "Query":
        """Keep rows whose named fields equal the given values."""
        for name in equals:
            if name not in IncidentRecord.__dataclass_fields__:
                raise ValueError(f"unknown field {name!r}")

        def predicate(row: IncidentRecord) -> bool:
            return all(getattr(row, k) == v for k, v in equals.items())

        self._predicates.append(predicate)
        return self

    def where_fn(self, fn: Callable[[IncidentRecord], bool]) -> "Query":
        """Keep rows for which ``fn`` returns True."""
        self._predicates.append(fn)
        return self

    def between(self, start: int, end: int) -> "Query":
        """Keep rows with ``start <= time_seconds < end``."""
        if end <= start:
            raise ValueError(f"empty time range [{start}, {end})")
        return self.where_fn(lambda r: start <= r.time_seconds < end)

    def order_by(self, field: str, descending: bool = False) -> "Query":
        """Sort by one field; ``None`` values sort last."""
        if field not in IncidentRecord.__dataclass_fields__:
            raise ValueError(f"unknown field {field!r}")
        self._order_key = field
        self._order_desc = descending
        return self

    def limit(self, n: int) -> "Query":
        """Keep at most ``n`` rows."""
        if n < 0:
            raise ValueError(f"limit must be >= 0, got {n}")
        self._limit = n
        return self

    def run(self) -> list[IncidentRecord]:
        """Execute and return the matching rows."""
        rows = [r for r in self._rows
                if all(p(r) for p in self._predicates)]
        if self._order_key is not None:
            key = self._order_key
            present = [r for r in rows if getattr(r, key) is not None]
            missing = [r for r in rows if getattr(r, key) is None]
            present.sort(key=lambda r: getattr(r, key), reverse=self._order_desc)
            rows = present + missing  # None sorts last regardless of direction
        if self._limit is not None:
            rows = rows[:self._limit]
        return rows

    def group_count(self, field: str) -> dict[Any, int]:
        """Row counts grouped by one field's value."""
        if field not in IncidentRecord.__dataclass_fields__:
            raise ValueError(f"unknown field {field!r}")
        counts: dict[Any, int] = {}
        for row in self.run():
            value = getattr(row, field)
            counts[value] = counts.get(value, 0) + 1
        return counts

    #: Aggregations usable with :meth:`group_agg`.
    AGGREGATES: dict[str, Callable[[list[float]], float]] = {
        "mean": lambda xs: sum(xs) / len(xs),
        "sum": sum,
        "min": min,
        "max": max,
        "count": len,
        "median": lambda xs: float(sorted(xs)[len(xs) // 2]
                                   if len(xs) % 2
                                   else (sorted(xs)[len(xs) // 2 - 1]
                                         + sorted(xs)[len(xs) // 2]) / 2.0),
    }

    def group_agg(self, group_field: str, value_field: str,
                  agg: str = "mean") -> dict[Any, float]:
        """SQL's ``SELECT group, AGG(value) ... GROUP BY group``.

        Rows whose ``value_field`` is ``None`` are skipped; groups with no
        usable rows are omitted.

        Example — mean relative CPI per antagonist job::

            store.query().where(action="throttle").group_agg(
                "antagonist_job", "relative_cpi", "mean")
        """
        for field in (group_field, value_field):
            if field not in IncidentRecord.__dataclass_fields__:
                raise ValueError(f"unknown field {field!r}")
        try:
            fn = self.AGGREGATES[agg]
        except KeyError:
            raise ValueError(f"unknown aggregate {agg!r}; expected one of "
                             f"{sorted(self.AGGREGATES)}") from None
        grouped: dict[Any, list[float]] = {}
        for row in self.run():
            value = getattr(row, value_field)
            if value is None:
                continue
            grouped.setdefault(getattr(row, group_field), []).append(value)
        return {key: float(fn(values)) for key, values in grouped.items()}


class ForensicsStore:
    """The incident log and its query/analysis surface."""

    def __init__(self) -> None:
        self._records: list[IncidentRecord] = []

    # -- ingest ------------------------------------------------------------------

    def record(self, incident: Incident) -> IncidentRecord:
        """Log one incident (the agents' incident sink)."""
        row = IncidentRecord.from_incident(incident)
        self._records.append(row)
        return row

    def add_record(self, row: IncidentRecord) -> None:
        """Append an already-flattened record (bulk loads, merges)."""
        self._records.append(row)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[IncidentRecord]:
        """All records (a copy)."""
        return list(self._records)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as plain dicts, for export."""
        return [asdict(r) for r in self._records]

    # -- queries --------------------------------------------------------------------

    def query(self) -> Query:
        """Start a fluent query over all records."""
        return Query(self._records)

    def top_antagonists(self, victim_job: Optional[str] = None,
                        start: Optional[int] = None, end: Optional[int] = None,
                        limit: int = 10) -> list[tuple[str, int]]:
        """The most-blamed antagonist jobs, optionally per victim and window.

        This is the paper's "find the most aggressive antagonists for a job
        in a particular time window".
        """
        query = self.query().where_fn(lambda r: r.antagonist_job is not None)
        if victim_job is not None:
            query = query.where(victim_job=victim_job)
        if start is not None and end is not None:
            query = query.between(start, end)
        counts = query.group_count("antagonist_job")
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]

    def scheduler_hints(self, min_incidents: int = 2) -> list[tuple[str, str]]:
        """(victim_job, antagonist_job) pairs worth anti-affinitising.

        A pair qualifies once it has accumulated ``min_incidents`` incidents.
        Feeding these to :meth:`ClusterScheduler.avoid_colocation` closes the
        loop the paper leaves as future work ("we hope to provide this
        information to the scheduler automatically").
        """
        if min_incidents < 1:
            raise ValueError(f"min_incidents must be >= 1, got {min_incidents}")
        pair_counts: dict[tuple[str, str], int] = {}
        for row in self._records:
            if row.antagonist_job is None:
                continue
            pair = (row.victim_job, row.antagonist_job)
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
        return sorted(pair for pair, count in pair_counts.items()
                      if count >= min_incidents)
