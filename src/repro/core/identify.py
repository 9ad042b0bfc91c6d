"""Matrix antagonist identification: Section 4.2 for all suspects at once.

The literal transcription of the formula,
:func:`~repro.core.correlation.antagonist_correlation`, scores one suspect
with one Python loop, fed by one
:meth:`~repro.cluster.cgroup.Cgroup.usage_between` window read per
victim timestamp.  At 100 co-tenants and a 30-point victim series that
is ~3,000 window reads, per analysis.  This module computes the whole
ranking from columnar data, and is the only ranking path:

* :func:`suspect_usage_matrix` reads every suspect's per-second usage in
  all ``S x T`` sampling windows and reduces them together.  When every
  suspect's cgroup is a row of one usage history — one machine's task
  table, the agent's and the trial harness's case — that is one gather
  and one window sum (:meth:`~repro.cluster.cgroup.UsageHistory.means`);
  otherwise (cgroups of several tables, or of none) it is the same
  reader, one cgroup at a time.
* :func:`rank_suspects_matrix` evaluates the paper's asymmetric correlation
  formula over the whole ``(S, T)`` usage matrix in one vectorized pass.

Both are **bit-identical** to scoring each suspect with
:func:`~repro.core.correlation.antagonist_correlation` over
``usage_between`` reads and sorting by ``(-correlation, taskname)`` —
the test oracle ``tests/reference/identify.py``; the golden-parity suite
(``tests/test_analysis_plane.py``) pins the two via ``float.hex()``.  The
rules that make that possible (see ``docs/performance.md``):

* Window sums and correlation accumulations run **sequentially along the
  time axis** (a Python loop of vectorized adds across the suspect axis) —
  numpy's pairwise ``.sum()`` and prefix-sum differences round differently
  from the scalar running sum and would break parity.
* Seconds with no recorded usage are zero-filled, and window sums start
  from ``0.0``, so a running sum is never ``-0.0`` and ``x + 0.0 == x``
  bitwise.
* Victim samples exactly at the threshold are *skipped* (no ``+ 0.0``
  term), via the shared :func:`~repro.core.correlation._victim_terms`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.correlation import SuspectScore, _victim_terms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cgroup import Cgroup
    from repro.cluster.task import Task

__all__ = ["suspect_usage_matrix", "rank_suspects_matrix",
           "rank_cotenant_suspects"]


def suspect_usage_matrix(cgroups: Sequence["Cgroup"],
                         timestamps: Sequence[int],
                         duration: int) -> np.ndarray:
    """Window-mean CPU usage for every suspect at every victim timestamp.

    Args:
        cgroups: one cgroup per suspect (row order preserved).
        timestamps: the victim's sample timestamps (seconds); entry ``t``
            covers the half-open window ``[t - duration, t)``.
        duration: the sampling window length in seconds (>= 1).

    Returns:
        An ``(S, T)`` float64 matrix where ``[s, k]`` equals
        ``cgroups[s].usage_between(timestamps[k] - duration,
        timestamps[k])`` bit-for-bit: both read the same usage history,
        with seconds outside it as ``0.0``, and sum from ``0.0`` in time
        order.
    """
    if duration < 1:
        raise ValueError(f"duration must be >= 1, got {duration}")
    starts = np.asarray(timestamps, dtype=np.int64) - duration
    if not cgroups:
        return np.empty((0, starts.size))
    history = cgroups[0].usage
    rows = [cgroup.usage_row for cgroup in cgroups
            if cgroup.usage is history]
    if len(rows) == len(cgroups):
        return history.means(np.array(rows, dtype=np.intp), starts, duration)
    return np.stack([cgroup.usage.means(cgroup.usage_row, starts, duration)
                     for cgroup in cgroups])


def rank_suspects_matrix(
    victim_cpi: Sequence[float],
    cpi_threshold: float,
    suspects: Sequence[tuple[str, str]],
    usage: np.ndarray,
) -> list[SuspectScore]:
    """Score and rank all suspects from an ``(S, T)`` usage matrix.

    Args:
        victim_cpi: the victim's CPI series over the window (length ``T``).
        cpi_threshold: the victim's abnormal-CPI threshold.
        suspects: ``(taskname, jobname)`` per row of ``usage``.
        usage: suspect-by-timestamp window-mean usage, as from
            :func:`suspect_usage_matrix`.

    Returns:
        One :class:`SuspectScore` per suspect, sorted descending by
        correlation (ties broken by task name for determinism); each
        score has the same float bits as
        :func:`~repro.core.correlation.antagonist_correlation` over that
        suspect's row.

    Raises:
        ValueError: on an empty window, a non-positive threshold, negative
            CPI or usage values, or a shape mismatch.
    """
    terms = _victim_terms(victim_cpi, cpi_threshold)
    n_suspects = len(suspects)
    if n_suspects == 0:
        return []
    usage = np.asarray(usage, dtype=np.float64)
    if usage.shape != (n_suspects, len(terms)):
        raise ValueError(
            f"usage matrix shape {usage.shape} != "
            f"({n_suspects}, {len(terms)})")
    negative = usage < 0.0
    if negative.any():
        # argwhere is row-major: first offending suspect, then first
        # offending sample — the order the scalar loops validate in.
        row, col = np.argwhere(negative)[0]
        raise ValueError(
            f"usage values must be >= 0, got {float(usage[row, col])}")
    # Per-suspect total usage: sequential along the time axis so the
    # normalisation denominator matches the scalar running sum bit-for-bit.
    totals = usage[:, 0].copy()
    for j in range(1, usage.shape[1]):
        totals += usage[:, j]
    # The scalar reference short-circuits to 0.0 only for totals <= 0.0;
    # a NaN total (NaN usage) flows through the arithmetic there, so it
    # must flow through here too — mask exactly the <= 0.0 rows.
    zero_rows = totals <= 0.0
    denominator = np.where(zero_rows, 1.0, totals)
    scores = np.zeros(n_suspects)
    for j, term in enumerate(terms):
        if term is None:
            continue  # exactly at threshold: skipped, not + 0.0
        scores += (usage[:, j] / denominator) * term
    if zero_rows.any():
        scores[zero_rows] = 0.0
    ranked = [
        SuspectScore(taskname=taskname, jobname=jobname, correlation=score)
        for (taskname, jobname), score in zip(suspects, scores.tolist())
    ]
    ranked.sort(key=lambda s: (-s.correlation, s.taskname))
    return ranked


def rank_cotenant_suspects(
    tasks: Iterable["Task"],
    victim_jobname: str,
    victim_cpi: Sequence[float],
    timestamps: Sequence[int],
    cpi_threshold: float,
    duration: int,
) -> tuple[list[SuspectScore], dict[str, "Task"]]:
    """Rank every co-tenant of a victim's machine.

    The shared identification front end for the agent and the trial
    harness: filters out the victim's job-mates ("never suspect the
    victim's own job-mates"), gathers each remaining task's usage aligned
    to the victim's sample windows as one usage matrix, and ranks.

    Returns:
        ``(scores, suspect_tasks)`` where ``suspect_tasks`` maps taskname
        to the live task for every co-tenant considered (empty when the
        victim has no co-tenants from other jobs).
    """
    cotenants = [task for task in tasks if task.job.name != victim_jobname]
    suspect_tasks = {task.name: task for task in cotenants}
    if not cotenants:
        return [], suspect_tasks
    usage = suspect_usage_matrix([task.cgroup for task in cotenants],
                                 timestamps, duration)
    labels = [(task.name, task.job.name) for task in cotenants]
    return (rank_suspects_matrix(victim_cpi, cpi_threshold, labels, usage),
            suspect_tasks)
