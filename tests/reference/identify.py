"""Reference co-tenant ranking: one usage read per suspect per timestamp.

This is how :func:`repro.core.identify.rank_cotenant_suspects` ranked before
the matrix path became the only one: every co-tenant's usage series is
built from one ``Cgroup.usage_between`` window read per victim timestamp,
each series is scored by the literal Section 4.2 transcription,
:func:`repro.core.correlation.antagonist_correlation`, and the scores are
sorted best-first with ties broken by task name.

Tests swap it in for the agent and the trial harness with :func:`install`.
"""

from typing import Iterable, Mapping, Sequence

from repro.cluster.task import Task
from repro.core import agent
from repro.core.correlation import SuspectScore, antagonist_correlation
from repro.experiments import trials


def install(monkeypatch) -> None:
    monkeypatch.setattr(agent, "rank_cotenant_suspects",
                        rank_cotenant_suspects)
    monkeypatch.setattr(trials, "rank_cotenant_suspects",
                        rank_cotenant_suspects)


def rank_suspects(
    victim_cpi: Sequence[float],
    cpi_threshold: float,
    suspects: Mapping[str, tuple[str, Sequence[float]]],
) -> list[SuspectScore]:
    """Score ``taskname -> (jobname, usage_series)`` suspects and rank them."""
    scores = [
        SuspectScore(taskname=taskname, jobname=jobname,
                     correlation=antagonist_correlation(
                         victim_cpi, usage, cpi_threshold))
        for taskname, (jobname, usage) in suspects.items()
    ]
    scores.sort(key=lambda s: (-s.correlation, s.taskname))
    return scores


def rank_cotenant_suspects(
    tasks: Iterable[Task],
    victim_jobname: str,
    victim_cpi: Sequence[float],
    timestamps: Sequence[int],
    cpi_threshold: float,
    duration: int,
) -> tuple[list[SuspectScore], dict[str, Task]]:
    cotenants = [task for task in tasks if task.job.name != victim_jobname]
    suspect_tasks = {task.name: task for task in cotenants}
    if not cotenants:
        return [], suspect_tasks
    suspects = {
        task.name: (
            task.job.name,
            [task.cgroup.usage_between(t - duration, t)
             for t in timestamps],
        )
        for task in cotenants
    }
    return rank_suspects(victim_cpi, cpi_threshold, suspects), suspect_tasks
