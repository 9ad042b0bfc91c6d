"""The amelioration policy (paper Section 5).

"Our policy is simple: we give preference to latency-sensitive jobs over
batch ones.  If the suspected antagonist is a batch job and the victim is a
latency-sensitive one, then we forcibly reduce the antagonist's CPU usage
... CPI2 will do hard-capping automatically if it is confident in its
antagonist selection and the victim job is eligible for protection ... if the
victim's CPI remains high, then we return for another round of analysis."

The policy here encodes those rules plus the escalation paths the paper
describes around them: operators may kill a persistent offender ("our
version of task migration"), and case 4 shows that when throttling brings
only modest relief "the correct response ... would be to migrate the victim
to another machine."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.task import Task
from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.correlation import SuspectScore

__all__ = ["PolicyAction", "PolicyDecision", "AmeliorationPolicy"]


class PolicyAction(enum.Enum):
    """What to do about an identified antagonist."""

    #: Hard-cap the antagonist automatically.
    THROTTLE = "throttle"
    #: Log the incident but take no automatic action (conservative rollout,
    #: or every strong suspect is itself latency-sensitive).
    REPORT_ONLY = "report-only"
    #: No suspect cleared the correlation threshold.
    NO_ACTION = "no-action"
    #: Throttling has repeatedly failed to help; move the victim instead.
    MIGRATE_VICTIM = "migrate-victim"
    #: The same antagonist keeps reoffending; kill/restart it elsewhere.
    KILL_ANTAGONIST = "kill-antagonist"


@dataclass(frozen=True)
class PolicyDecision:
    """The policy's verdict for one anomaly."""

    action: PolicyAction
    #: The chosen antagonist task, for THROTTLE / KILL_ANTAGONIST.
    target: Optional[Task] = None
    #: The winning suspect's score, when one exists.
    score: Optional[SuspectScore] = None
    #: Human-readable justification, for the incident log.
    reason: str = ""


@dataclass
class _VictimHistory:
    """Per-victim record of amelioration attempts that did not help."""

    failed_throttles: int = 0
    #: Antagonists throttled for this victim so far (bookkeeping only: the
    #: paper relies on the natural mechanism — "since throttling the
    #: antagonist's CPU reduces its correlation with the victim's CPI, it is
    #: not likely to get picked in a later round" — and case 4 shows the same
    #: antagonist legitimately throttled twice).
    throttled_antagonists: set[str] = field(default_factory=set)


class AmeliorationPolicy:
    """Decides THROTTLE / REPORT / MIGRATE / KILL for detected anomalies."""

    def __init__(self, config: CpiConfig = DEFAULT_CONFIG,
                 migrate_after_failures: int = 2,
                 kill_after_offences: int = 3):
        """Args:
            config: CPI2 parameters (threshold, auto-throttle flag).
            migrate_after_failures: consecutive unhelpful throttles for one
                victim before recommending victim migration (case 4's lesson).
            kill_after_offences: times one antagonist may be capped (for any
                victim) before the policy recommends kill-and-restart.
        """
        if migrate_after_failures < 1:
            raise ValueError(
                f"migrate_after_failures must be >= 1, got {migrate_after_failures}")
        if kill_after_offences < 1:
            raise ValueError(
                f"kill_after_offences must be >= 1, got {kill_after_offences}")
        self.config = config
        self.migrate_after_failures = migrate_after_failures
        self.kill_after_offences = kill_after_offences
        self._victims: dict[str, _VictimHistory] = {}
        self._offences: dict[str, int] = {}

    # -- the decision ------------------------------------------------------------

    def decide(self, victim: Task,
               suspects: Sequence[tuple[SuspectScore, Task]]) -> PolicyDecision:
        """Choose an action for a victim given its ranked, scored suspects.

        ``suspects`` must be ranked best-first (as
        :func:`~repro.core.identify.rank_cotenant_suspects` returns) and
        carry the resolved :class:`Task` for each score.
        """
        history = self._victims.setdefault(victim.name, _VictimHistory())
        if history.failed_throttles >= self.migrate_after_failures:
            return PolicyDecision(
                action=PolicyAction.MIGRATE_VICTIM,
                reason=(f"{history.failed_throttles} throttling attempts did not "
                        f"restore {victim.name}; migrate the victim"),
            )

        qualified = [
            (score, task) for score, task in suspects
            if score.meets(self.config.correlation_threshold)
        ]
        if not qualified:
            best = suspects[0][0].correlation if suspects else float("nan")
            return PolicyDecision(
                action=PolicyAction.NO_ACTION,
                reason=(f"no suspect above correlation threshold "
                        f"{self.config.correlation_threshold} (best: {best:.2f})"),
            )

        # Preference for latency-sensitive jobs over batch: only batch
        # suspects are throttle-eligible; among them the highest-correlated
        # wins.  A currently-capped suspect's usage (and hence correlation)
        # has already collapsed, so re-picks of a just-throttled antagonist
        # only happen once its cap lapsed and it reoffended — which is
        # exactly when the paper throttles it again (case 4).
        for score, task in qualified:
            if not task.scheduling_class.is_batch:
                continue
            if self._offences.get(task.name, 0) >= self.kill_after_offences:
                return PolicyDecision(
                    action=PolicyAction.KILL_ANTAGONIST, target=task, score=score,
                    reason=(f"{task.name} capped {self._offences[task.name]} times "
                            "already; kill and restart it elsewhere"),
                )
            if not victim.job.protection_eligible:
                return PolicyDecision(
                    action=PolicyAction.REPORT_ONLY, target=task, score=score,
                    reason=f"victim job {victim.job.name} not protection-eligible",
                )
            if not self.config.auto_throttle:
                return PolicyDecision(
                    action=PolicyAction.REPORT_ONLY, target=task, score=score,
                    reason="auto-throttling disabled; reporting for operators",
                )
            return PolicyDecision(
                action=PolicyAction.THROTTLE, target=task, score=score,
                reason=(f"{task.name} ({task.scheduling_class.value}) correlates "
                        f"{score.correlation:.2f} with victim {victim.name}"),
            )

        top = qualified[0][0]
        return PolicyDecision(
            action=PolicyAction.REPORT_ONLY, score=top,
            reason=("no throttle-eligible batch suspect remaining (all are "
                    "latency-sensitive, or already capped for this victim)"),
        )

    # -- feedback ------------------------------------------------------------------

    def record_throttle(self, victim: Task, antagonist: Task) -> None:
        """Note that ``antagonist`` was capped on behalf of ``victim``."""
        history = self._victims.setdefault(victim.name, _VictimHistory())
        history.throttled_antagonists.add(antagonist.name)
        self._offences[antagonist.name] = self._offences.get(antagonist.name, 0) + 1

    def record_outcome(self, victim: Task, recovered: bool) -> None:
        """Report whether the victim's CPI returned to normal after a cap."""
        history = self._victims.setdefault(victim.name, _VictimHistory())
        if recovered:
            history.failed_throttles = 0
            history.throttled_antagonists.clear()
        else:
            history.failed_throttles += 1

    def offence_count(self, taskname: str) -> int:
        """How many times a task has been capped, across all victims."""
        return self._offences.get(taskname, 0)
