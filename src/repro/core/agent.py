"""The per-machine management agent: detection, identification, amelioration.

"To avoid a central bottleneck, CPI values are measured and analyzed locally
by a management agent that runs in every machine.  We send this agent a
predicted CPI distribution for all jobs it is running tasks for ... Once an
anomaly is detected on a machine, an attempt is made to identify an
antagonist ... at most one of these attempts is performed each second."
(Sections 4.1-4.2.)

The agent consumes its machine's once-a-minute CPI samples, runs the outlier
detector against the pushed-down specs, rate-limits identification attempts,
correlates the victim against every co-tenant from *other* jobs, asks the
policy what to do, actuates hard-caps, and — crucially — follows up: when a
cap expires it measures whether the victim actually recovered, feeds the
outcome back to the policy (enabling re-analysis, the paper's "presumably we
picked poorly the first time"), and finalises the incident record.

Each closed window is ingested as columns (:class:`SampleColumns`), at any
window size: one vectorized quarantine mask, then batch detection.  Its
per-sample oracle is ``tests/reference/ingest.py``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.task import Task
from repro.core.config import CpiConfig, DEFAULT_CONFIG
from repro.core.correlation import SuspectScore
from repro.core.identify import rank_cotenant_suspects
from repro.core.outlier import AnomalyEvent, OutlierDetector
from repro.core.policy import AmeliorationPolicy, PolicyAction, PolicyDecision
from repro.core.records import CpiSpec, SpecKey
from repro.core.samplebatch import SampleColumns
from repro.core.throttle import ThrottleController
from repro.core.window import ColumnarWindow, WindowStore
from repro.faults.checkpoint import (AgentCheckpoint, CheckpointFormatError,
                                     CheckpointVersionError, FollowUpState)
from repro.faults.quarantine import quarantine_reason, spec_is_plausible
from repro.obs import Observability, default_observability
from repro.obs.metrics import Counter, Histogram
from repro.obs.tracing import PipelineTrace, Span

__all__ = ["Incident", "MachineAgent"]

_incident_ids = itertools.count(1)

#: Accepted samples in a closed window from which the agent writes them to
#: its windows as one scatter per column rather than one append each.
_SCATTER_MIN_SAMPLES = 8

#: Correlation scores live in [-1, 1]; bucket at the paper's 0.35 threshold.
_CORRELATION_BUCKETS = (-0.5, 0.0, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0)


@dataclass
class Incident:
    """One detected-and-handled interference episode."""

    incident_id: int
    machine: str
    time_seconds: int
    victim_taskname: str
    victim_jobname: str
    victim_cpi: float
    cpi_threshold: float
    suspects: list[SuspectScore]
    decision: PolicyDecision
    #: Filled in at follow-up time for throttled incidents.
    post_cpi: Optional[float] = None
    recovered: Optional[bool] = None
    #: Stage-by-stage span trace (detect→identify→decide→actuate→followup).
    trace: Optional[PipelineTrace] = field(default=None, repr=False,
                                           compare=False)

    @property
    def top_suspect(self) -> Optional[SuspectScore]:
        """The highest-correlated suspect, if any were scored."""
        return self.suspects[0] if self.suspects else None

    @property
    def relative_cpi(self) -> Optional[float]:
        """Post-throttle CPI over pre-throttle CPI (Figure 16's metric)."""
        if self.post_cpi is None or self.victim_cpi <= 0:
            return None
        return self.post_cpi / self.victim_cpi


@dataclass
class _FollowUp:
    """A scheduled victim-recovery check for an applied cap."""

    due_at: int
    incident: Incident
    victim: Task
    #: The throttled task; ``None`` after a checkpoint restore found it
    #: gone (the name below still identifies it in events).
    antagonist: Optional[Task]
    antagonist_name: str
    #: The open ``followup`` trace span, closed when the check completes.
    span: Optional[Span] = None


class MachineAgent:
    """CPI2's agent for one machine."""

    def __init__(
        self,
        machine: Machine,
        config: CpiConfig = DEFAULT_CONFIG,
        throttler: Optional[ThrottleController] = None,
        policy: Optional[AmeliorationPolicy] = None,
        incident_sink: Optional[Callable[[Incident], None]] = None,
        migrator: Optional[Callable[[Task], None]] = None,
        obs: Optional[Observability] = None,
    ):
        """Args:
            machine: the machine this agent manages.
            config: CPI2 parameters.
            throttler: cap actuator (a fresh one per agent if omitted).
            policy: amelioration policy (a fresh one if omitted).
            incident_sink: called with every finalised or reported incident
                (the pipeline wires this to the forensics store).
            migrator: called when the policy says MIGRATE_VICTIM or
                KILL_ANTAGONIST; receives the task to move.  If ``None``
                those decisions are logged but not actuated.
            obs: telemetry handle (metrics/events/traces); the process
                default when omitted.
        """
        self.machine = machine
        self.config = config
        self.obs = obs or default_observability()
        self.detector = OutlierDetector(config, obs=self.obs)
        self.throttler = throttler or ThrottleController(config)
        if getattr(self.throttler, "obs", None) is None:
            self.throttler.obs = self.obs
        self.policy = policy or AmeliorationPolicy(config)
        self.incident_sink = incident_sink
        self.migrator = migrator
        self._specs: dict[SpecKey, CpiSpec] = {}
        self._windows: dict[str, ColumnarWindow] = {}
        #: The rows behind the windows this agent opens.
        self._store = WindowStore()
        #: Instruments resolved at first use (:meth:`_counter`).
        self._counters: dict[tuple[str, Optional[str]], Counter] = {}
        self._victim_cpi: Optional[Histogram] = None
        self._followups: list[_FollowUp] = []
        self._last_analysis: Optional[int] = None
        self.incidents: list[Incident] = []
        self.anomalies_seen = 0
        #: Simulated time the freshest applied spec push was *issued*;
        #: ``None`` (bootstrap/tests) means the specs never go stale.
        self._spec_anchor: Optional[int] = None
        self._degraded = False
        self._last_checkpoint: Optional[AgentCheckpoint] = None
        self.crash_count = 0
        #: Told ``(machine name, second)`` whenever :meth:`tick` may have
        #: work earlier than it had (a follow-up armed, the spec anchor
        #: moved, a degraded-mode transition); the pipeline's due-time
        #: heap listens.
        self.on_due: Optional[Callable[[str, int], None]] = None

    @property
    def degraded(self) -> bool:
        """True while the agent is analysing against stale specs."""
        return self._degraded

    # -- spec distribution (pipeline -> agent) ----------------------------------

    def update_specs(self, specs: dict[SpecKey, CpiSpec],
                     now: Optional[int] = None) -> None:
        """Receive the latest predicted-CPI specs from the aggregator.

        Args:
            specs: the full published spec map.
            now: when this push was issued; anchors staleness tracking.
                Omitted (bootstrap, tests, operator injection) the specs
                never expire.
        """
        self._specs = dict(specs)
        if now is not None:
            self._spec_anchor = now
            self._wake(now)

    def receive_spec_push(self, t: int, specs: dict[SpecKey, CpiSpec],
                          issued_at: int) -> None:
        """Apply one spec push that crossed the (possibly faulty) fabric.

        Unlike :meth:`update_specs` this defends against wire damage and
        disorder: pushes older than the one already applied are ignored
        (delay/reorder faults can deliver them late), and implausible
        entries — NaN or absurd means, the signature of corruption — fall
        back to the last known-good spec for that key, counted per entry.
        """
        if self._spec_anchor is not None and issued_at < self._spec_anchor:
            self.obs.metrics.counter("spec_pushes_ignored",
                                     reason="out_of_order").inc()
            self.obs.events.event("spec_push_ignored", reason="out_of_order",
                                  machine=self.machine.name,
                                  issued_at=issued_at,
                                  applied=self._spec_anchor)
            return
        accepted: dict[SpecKey, CpiSpec] = {}
        rejected = 0
        for key, spec in specs.items():
            if spec_is_plausible(spec, self.config.quarantine_cpi_bound):
                accepted[key] = spec
                continue
            rejected += 1
            self.obs.metrics.counter("spec_entries_rejected",
                                     reason="implausible").inc()
            previous = self._specs.get(key)
            if previous is not None:
                accepted[key] = previous  # last known-good
        self._specs = accepted
        self._spec_anchor = issued_at
        if rejected:
            self.obs.events.event(
                "spec_push_degraded", machine=self.machine.name,
                rejected=rejected, accepted=len(accepted))
        self._refresh_degraded(t)
        self._wake(t)

    def spec_for(self, jobname: str) -> Optional[CpiSpec]:
        """The spec for a job on this machine's platform, if published."""
        return self._specs.get(SpecKey(jobname, self.machine.platform.name))

    # -- degraded mode (stale specs) ---------------------------------------------

    def spec_staleness(self, t: int) -> Optional[int]:
        """Seconds since the applied spec push was issued; ``None`` when
        the specs came from bootstrap/operator injection (never stale)."""
        if self._spec_anchor is None:
            return None
        return t - self._spec_anchor

    def specs_too_stale(self, t: int) -> bool:
        """Whether specs are beyond the TTL and detection must stand down.

        The TTL is ``spec_ttl_periods`` refresh periods: a healthy fabric
        delivers a push every period, so staleness past a few periods
        means the world the specs describe is gone and anomalies against
        them would be noise.
        """
        staleness = self.spec_staleness(t)
        if staleness is None:
            return False
        ttl = self.config.spec_ttl_periods * self.config.spec_refresh_period
        return staleness > ttl

    def _refresh_degraded(self, t: int) -> None:
        """Track degraded-mode transitions (events + gauge, never silent)."""
        stale = self.specs_too_stale(t)
        if stale == self._degraded:
            return
        self._degraded = stale
        self.obs.metrics.gauge("degraded_agents").inc(1 if stale else -1)
        self.obs.events.event(
            "degraded_mode_entered" if stale else "degraded_mode_exited",
            machine=self.machine.name,
            staleness=self.spec_staleness(t))
        self._wake(t)

    # -- scheduling (when tick has work) ----------------------------------------

    def next_due(self, t: int) -> Optional[int]:
        """The first second ``>= t`` at which :meth:`tick` has work, or
        ``None`` when only a spec push or a new follow-up can give it some.

        Work is a follow-up coming due, or a degraded-mode transition:
        entering it the first second the specs are past their TTL, and —
        once degraded — leaving it as soon as a push moved the anchor
        back within the TTL.
        """
        due = None
        if self._followups:
            due = max(t, min(f.due_at for f in self._followups))
        anchor = self._spec_anchor
        if anchor is None:
            return due
        if self._degraded:
            if not self.specs_too_stale(t):
                return t
            return due
        ttl = self.config.spec_ttl_periods * self.config.spec_refresh_period
        if not math.isfinite(ttl):
            return due
        # The first whole second whose staleness exceeds the TTL.
        stale_at = max(t, anchor + math.floor(ttl) + 1)
        return stale_at if due is None or stale_at < due else due

    def _wake(self, t: int) -> None:
        """Tell :attr:`on_due` when :meth:`tick` next has work."""
        hook = self.on_due
        if hook is not None:
            due = self.next_due(t)
            if due is not None:
                hook(self.machine.name, due)

    # -- sample ingestion ---------------------------------------------------------

    def ingest_samples(self, t: int, columns: SampleColumns
                       ) -> list[Incident]:
        """Process one closed sampling window's samples; returns new incidents.

        Implausible samples (NaN, zero-CPI, absurd-CPI — corrupted counter
        reads or wire damage) are quarantined before they can poison the
        correlation windows or detector streaks.  When specs are too stale
        (:meth:`specs_too_stale`) detection is suppressed with a counted
        ``analysis_dropped`` reason: samples still feed the windows so
        follow-ups keep working, but no new incidents open against a
        long-expired model.

        The window is processed as columns — a vectorized quarantine mask,
        then batch outlier detection
        (:meth:`~repro.core.outlier.OutlierDetector.observe_batch`) — and
        no :class:`CpiSample` is materialised.  ``columns`` is only read:
        the pipeline hands the same object to the aggregator or the
        upload client.  The output equals a per-sample loop's
        (``tests/reference/ingest.py``); only event *interleaving* within a
        window differs (quarantine events precede detection events instead
        of alternating per sample).

        At most one analysis per window can run in full (all samples in a
        window share time ``t`` and ``analysis_min_interval >= 1``
        rate-limits the rest), drop paths mutate no machine state, and
        every sample lands in its task window before any anomaly is
        handled — and the one handled analysis only reads the *victim's*
        window, which holds exactly the same samples at that point in both
        orders (a closed window has at most one sample per task).  So the
        samples reach the windows as one scatter write per column
        (:meth:`_append_windows`), and once an analysis has run at ``t``
        the rest of the window's anomalies are noted as rate-limited in
        one pass (:meth:`_drop_rate_limited`).
        """
        self._refresh_degraded(t)
        cpi = columns.cpi
        usage = columns.cpu_usage
        bound = self.config.quarantine_cpi_bound
        ok = (np.isfinite(cpi) & np.isfinite(usage) & (cpi != 0.0)
              & (cpi <= bound))
        tasks = columns.tasks
        keys = columns.keys
        task_code = columns.task_code
        task_code_list = task_code.tolist()
        key_code_list = columns.key_code.tolist()
        if not ok.all():
            usage_list = usage.tolist()
            cpi_list = cpi.tolist()
            for row in np.flatnonzero(~ok).tolist():
                self._note_quarantined(
                    tasks[task_code_list[row]], keys[key_code_list[row]],
                    quarantine_reason(cpi_list[row], usage_list[row], bound))
        ok_rows = np.flatnonzero(ok)
        if ok_rows.size == 0:
            return []
        # int(timestamp_seconds) == int64(microseconds / 1e6): same
        # float64 divide, same truncation toward zero.
        ts_sec = (columns.timestamp / 1e6).astype(np.int64)
        self._append_windows(columns, ok_rows, ts_sec)
        if self._degraded:
            for row in ok_rows.tolist():
                self._note_stale_drop(t, tasks[task_code_list[row]],
                                      keys[key_code_list[row]])
            return []
        stddevs = self.config.outlier_stddevs
        thresholds_by_key = np.zeros(len(keys))
        has_spec_by_key = np.zeros(len(keys), dtype=bool)
        for code, key in enumerate(keys):
            spec = self._specs.get(key)
            if spec is not None:
                has_spec_by_key[code] = True
                thresholds_by_key[code] = spec.outlier_threshold(stddevs)
        key_code_ok = columns.key_code[ok_rows]
        anomalies = self.detector.observe_batch(
            timestamps_sec=ts_sec[ok_rows],
            cpi=cpi[ok_rows],
            usage=usage[ok_rows],
            thresholds=thresholds_by_key[key_code_ok],
            has_spec=has_spec_by_key[key_code_ok],
            task_code=task_code[ok_rows],
            tasknames=tasks,
            key_code=key_code_ok,
            keys=keys,
        )
        incidents: list[Incident] = []
        for i, (_row, anomaly) in enumerate(anomalies):
            if self._rate_limited(t):
                # Every later anomaly of the window is rate-limited too:
                # they share ``t`` and a drop leaves the clock alone.
                self._drop_rate_limited(anomalies[i:])
                break
            incident = self._note_anomaly(t, anomaly)
            if incident is not None:
                incidents.append(incident)
        return incidents

    def _append_windows(self, columns: SampleColumns, ok_rows: np.ndarray,
                        ts_sec: np.ndarray) -> None:
        """Append the window's accepted samples to their tasks' windows.

        A closed window holds at most one sample per task, so from
        :data:`_SCATTER_MIN_SAMPLES` samples on they land in the agent's
        window store with one scatter write per column; a scatter's fixed
        cost is that of about eight scalar appends.  Fewer samples, one
        task sampled twice over, or a window that is not a row of the
        store (one a caller put in :attr:`_windows`) take one scalar
        append per sample, in row order.
        """
        tasks = columns.tasks
        windows = self._windows
        store = self._store
        if ok_rows.size == len(columns):
            ok_rows = slice(None)
        names = [tasks[code] for code in columns.task_code[ok_rows].tolist()]
        found = list(map(windows.get, names))
        if None in found:
            store.reserve(found.count(None))
            for i, window in enumerate(found):
                if window is None:
                    name = names[i]
                    window = windows.get(name)
                    if window is None:
                        window = windows[name] = store.window(name)
                    found[i] = window
        keys = columns.keys
        key_codes = columns.key_code[ok_rows].tolist()
        if (len(names) >= _SCATTER_MIN_SAMPLES
                and len(set(names)) == len(names)
                and all(window._store is store for window in found)):
            meta = [(key.jobname, key.platforminfo) for key in keys]
            store.append_rows(found, columns.timestamp[ok_rows],
                              ts_sec[ok_rows], columns.cpu_usage[ok_rows],
                              columns.cpi[ok_rows],
                              [meta[code] for code in key_codes])
            return
        for window, ts_us, sec, usage, cpi, code in zip(
                found, columns.timestamp[ok_rows].tolist(),
                ts_sec[ok_rows].tolist(), columns.cpu_usage[ok_rows].tolist(),
                columns.cpi[ok_rows].tolist(), key_codes):
            key = keys[code]
            window.append(ts_us, sec, usage, cpi, key.jobname,
                          key.platforminfo)

    def _note_quarantined(self, taskname: str, key: SpecKey,
                          reason: str) -> None:
        self.obs.metrics.counter("samples_quarantined", reason=reason).inc()
        self.obs.events.event(
            "sample_quarantined", reason=reason,
            machine=self.machine.name, task=taskname, job=key.jobname)

    def _counter(self, name: str, reason: Optional[str] = None) -> Counter:
        """The agent's ``name`` counter (labelled ``reason=`` when given),
        resolved once per agent — the registry sorts the labels on every
        lookup — and created, as a lookup creates it, at first use."""
        key = (name, reason)
        counter = self._counters.get(key)
        if counter is None:
            labels = {} if reason is None else {"reason": reason}
            counter = self.obs.metrics.counter(name, **labels)
            self._counters[key] = counter
        return counter

    def _victim_cpi_histogram(self) -> Histogram:
        histogram = self._victim_cpi
        if histogram is None:
            histogram = self._victim_cpi = self.obs.metrics.histogram(
                "victim_cpi")
        return histogram

    def _note_stale_drop(self, t: int, taskname: str, key: SpecKey) -> None:
        self._counter("analyses_dropped", "stale_spec").inc()
        self.obs.events.event(
            "analysis_dropped", reason="stale_spec",
            machine=self.machine.name, task=taskname, job=key.jobname,
            staleness=self.spec_staleness(t))

    def _note_anomaly(self, t: int, anomaly: AnomalyEvent
                      ) -> Optional[Incident]:
        """Count/emit one declared anomaly and hand it to analysis."""
        self.anomalies_seen += 1
        self._counter("anomalies_detected").inc()
        self._victim_cpi_histogram().observe(anomaly.cpi)
        self.obs.events.event(
            "anomaly_detected",
            machine=self.machine.name,
            task=anomaly.taskname,
            job=anomaly.jobname,
            cpi=round(anomaly.cpi, 4),
            threshold=round(anomaly.threshold, 4),
            violations=anomaly.violations,
        )
        return self._handle_anomaly(t, anomaly)

    # -- anomaly handling ------------------------------------------------------------

    def _rate_limited(self, t: int) -> bool:
        if (self._last_analysis is not None
                and t - self._last_analysis < self.config.analysis_min_interval):
            return True
        return False

    def _victim_series(self, taskname: str, now: int
                       ) -> tuple[list[int], list[float]]:
        """(timestamps, cpi values) for the victim inside the window."""
        window = self._windows.get(taskname)
        if window is None:
            return [], []
        horizon = now - self.config.correlation_window
        seconds = window.timestamps_sec
        inside = seconds > horizon
        if not inside.any():
            return [], []
        return seconds[inside].tolist(), window.cpi[inside].tolist()

    def _drop_analysis(self, t: int, anomaly: AnomalyEvent,
                       reason: str) -> None:
        """Make a skipped analysis visible: one event + one counted reason."""
        self._counter("analyses_dropped", reason).inc()
        if reason == "rate_limited":
            self._counter("analyses_rate_limited").inc()
        self.obs.events.event(
            "analysis_dropped",
            reason=reason,
            machine=self.machine.name,
            task=anomaly.taskname,
            job=anomaly.jobname,
            cpi=round(anomaly.cpi, 4),
        )

    def _drop_rate_limited(self, anomalies: list) -> None:
        """Note a window's rate-limited tail of ``(row, anomaly)`` pairs in
        one pass: the events of :meth:`_note_anomaly` + :meth:`_drop_analysis`
        for each, in order, and each counter raised once by the count."""
        n = len(anomalies)
        self.anomalies_seen += n
        histogram = self._victim_cpi_histogram()
        for _row, anomaly in anomalies:
            histogram.observe(anomaly.cpi)
        self._counter("anomalies_detected").inc(n)
        self._counter("analyses_dropped", "rate_limited").inc(n)
        self._counter("analyses_rate_limited").inc(n)
        events = self.obs.events
        if not events.enabled():
            return
        machine = self.machine.name
        for _row, anomaly in anomalies:
            cpi = round(anomaly.cpi, 4)
            events.event(
                "anomaly_detected", machine=machine, task=anomaly.taskname,
                job=anomaly.jobname, cpi=cpi,
                threshold=round(anomaly.threshold, 4),
                violations=anomaly.violations)
            events.event(
                "analysis_dropped", reason="rate_limited", machine=machine,
                task=anomaly.taskname, job=anomaly.jobname, cpi=cpi)

    def _handle_anomaly(self, t: int, anomaly: AnomalyEvent) -> Optional[Incident]:
        """Identification + policy + actuation for one anomaly."""
        if self._rate_limited(t):
            self._drop_analysis(t, anomaly, "rate_limited")
            return None
        if not self.machine.has_task(anomaly.taskname):
            # The victim departed between sampling and analysis.
            self._drop_analysis(t, anomaly, "victim_departed")
            return None
        if any(f.victim.name == anomaly.taskname for f in self._followups):
            # An amelioration is already in flight for this victim; the paper
            # re-analyses only after the cap, if the CPI remained high.
            self._drop_analysis(t, anomaly, "followup_in_flight")
            return None
        self._last_analysis = t

        detect_start = (t if anomaly.first_flag_seconds is None
                        else anomaly.first_flag_seconds)
        trace = self.obs.tracer.start_trace(
            "incident", detect_start,
            machine=self.machine.name, victim=anomaly.taskname,
            victim_job=anomaly.jobname)
        trace.span("detect", detect_start, t,
                   cpi=round(anomaly.cpi, 4),
                   threshold=round(anomaly.threshold, 4),
                   violations=anomaly.violations)

        victim = self.machine.get_task(anomaly.taskname)
        timestamps, victim_cpi = self._victim_series(anomaly.taskname, t)
        if len(timestamps) < 2:
            self._drop_analysis(t, anomaly, "too_few_samples")
            trace.span("identify", t, t, outcome="too_few_samples")
            return None
        wall_start = time.perf_counter()
        scores, suspect_tasks = rank_cotenant_suspects(
            self.machine.resident_tasks(), victim.job.name, victim_cpi,
            timestamps, anomaly.threshold, self.config.sampling_duration)
        if not suspect_tasks:
            self._drop_analysis(t, anomaly, "no_cotenants")
            trace.span("identify", t, t, outcome="no_cotenants")
            return None
        identify_span = trace.span(
            "identify", t, t, suspects=len(scores),
            wall_us=int((time.perf_counter() - wall_start) * 1e6))
        if scores:
            identify_span.attributes["top_correlation"] = round(
                scores[0].correlation, 4)
            self.obs.metrics.histogram(
                "correlation_score", buckets=_CORRELATION_BUCKETS,
            ).observe(scores[0].correlation)
        scored_tasks = [(s, suspect_tasks[s.taskname]) for s in scores]
        decision = self.policy.decide(victim, scored_tasks)
        trace.span("decide", t, t, action=decision.action.value,
                   target=decision.target.name if decision.target else None,
                   reason=decision.reason)
        incident = Incident(
            incident_id=next(_incident_ids),
            machine=self.machine.name,
            time_seconds=t,
            victim_taskname=victim.name,
            victim_jobname=victim.job.name,
            victim_cpi=anomaly.cpi,
            cpi_threshold=anomaly.threshold,
            suspects=scores,
            decision=decision,
            trace=trace,
        )
        trace.attributes["incident_id"] = incident.incident_id
        self.incidents.append(incident)
        self.obs.metrics.counter("incidents_by_action",
                                 action=decision.action.value).inc()
        self.obs.events.event(
            "incident_opened",
            incident_id=incident.incident_id,
            machine=self.machine.name,
            victim=victim.name,
            victim_job=victim.job.name,
            action=decision.action.value,
            target=decision.target.name if decision.target else None,
            correlation=(round(decision.score.correlation, 4)
                         if decision.score else None),
        )
        self._actuate(t, incident, victim, decision)
        if decision.action is not PolicyAction.THROTTLE and self.incident_sink:
            # Throttled incidents reach the sink once their follow-up closes.
            self.incident_sink(incident)
        return incident

    def _actuate(self, t: int, incident: Incident, victim: Task,
                 decision: PolicyDecision) -> None:
        trace = incident.trace
        if decision.action is PolicyAction.THROTTLE:
            assert decision.target is not None and decision.score is not None
            action = self.throttler.cap(
                decision.target, t,
                victim_taskname=victim.name,
                correlation=decision.score.correlation,
            )
            self.policy.record_throttle(victim, decision.target)
            followup_span = None
            if trace is not None:
                trace.span("actuate", t, t, action="throttle",
                           target=decision.target.name, quota=action.quota)
                followup_span = trace.span("followup", t,
                                           antagonist=decision.target.name)
            self._followups.append(_FollowUp(
                due_at=t + self.config.hardcap_duration,
                incident=incident,
                victim=victim,
                antagonist=decision.target,
                antagonist_name=decision.target.name,
                span=followup_span,
            ))
            self._update_caps_gauge(t)
            self._wake(t)
        elif decision.action in (PolicyAction.MIGRATE_VICTIM,
                                 PolicyAction.KILL_ANTAGONIST):
            target = (victim if decision.action is PolicyAction.MIGRATE_VICTIM
                      else decision.target)
            actuated = self.migrator is not None and target is not None
            if trace is not None:
                trace.span("actuate", t, t, action=decision.action.value,
                           target=target.name if target else None,
                           actuated=actuated)
            if actuated:
                self.migrator(target)
        elif trace is not None:
            trace.span("actuate", t, t, action=decision.action.value)

    def _update_caps_gauge(self, t: int) -> None:
        self.obs.metrics.gauge("caps_active", machine=self.machine.name).set(
            len(self.throttler.active_caps(t)))

    # -- follow-ups --------------------------------------------------------------------

    def tick(self, t: int) -> None:
        """Process second ``t``'s degraded-mode transition and due recovery
        checks.

        At a second before :meth:`next_due` this is a no-op, so a caller
        may tick every second or only when :meth:`next_due` (kept current
        through :attr:`on_due`) says there is work, as the pipeline does.
        """
        self._refresh_degraded(t)
        due = [f for f in self._followups if f.due_at <= t]
        if not due:
            return
        self._followups = [f for f in self._followups if f.due_at > t]
        for followup in due:
            self._finish_followup(t, followup)

    def _finish_followup(self, t: int, followup: _FollowUp) -> None:
        incident = followup.incident
        victim = followup.victim
        post_cpi = self._recent_cpi(victim.name, since=incident.time_seconds)
        incident.post_cpi = post_cpi
        if post_cpi is None:
            # The victim left or stopped sampling; treat as recovered so we
            # don't escalate against a ghost.
            incident.recovered = True
            outcome = "victim_gone"
        else:
            incident.recovered = post_cpi <= incident.cpi_threshold
            outcome = "recovered" if incident.recovered else "still_suffering"
        if self.machine.has_task(victim.name):
            self.policy.record_outcome(victim, bool(incident.recovered))
        if followup.span is not None:
            followup.span.finish(t, outcome=outcome,
                                 post_cpi=(round(post_cpi, 4)
                                           if post_cpi is not None else None))
        self.obs.metrics.counter("followups_completed", outcome=outcome).inc()
        relative = incident.relative_cpi
        self.obs.events.event(
            "followup_completed",
            incident_id=incident.incident_id,
            machine=self.machine.name,
            victim=victim.name,
            antagonist=followup.antagonist_name,
            outcome=outcome,
            recovered=incident.recovered,
            post_cpi=round(post_cpi, 4) if post_cpi is not None else None,
            relative_cpi=round(relative, 4) if relative is not None else None,
        )
        self._update_caps_gauge(t)
        if self.incident_sink:
            self.incident_sink(incident)
        # If the victim is still suffering, the next anomalous sample will
        # trigger another round of analysis; the policy remembers the failed
        # pick and will not choose it again ("presumably we picked poorly").

    def _recent_cpi(self, taskname: str, since: int) -> Optional[float]:
        """Mean victim CPI over samples taken after ``since`` (the cap window)."""
        window = self._windows.get(taskname)
        if window is None:
            return None
        after = window.timestamps_sec > since
        if not after.any():
            return None
        values = window.cpi[after].tolist()
        # builtins.sum over the same python floats in the same order as the
        # old list comprehension — bit-identical mean.
        return sum(values) / len(values)

    # -- bookkeeping ----------------------------------------------------------------------

    def forget_task(self, taskname: str, now: Optional[int] = None) -> None:
        """Drop per-task state when a task departs the machine.

        Pending follow-ups whose victim is the departed task are purged and
        their incidents finalised through the sink immediately (departed
        victims count as recovered, with no post-cap CPI) — otherwise the
        stale entries would block analyses for any later task reusing the
        name until the follow-up's due time.

        Args:
            taskname: the departed task.
            now: current simulation time; each purged follow-up falls back
                to its own due time when omitted.
        """
        stale = [f for f in self._followups if f.victim.name == taskname]
        if stale:
            self._followups = [f for f in self._followups
                               if f.victim.name != taskname]
        # Window first: _finish_followup must see the victim as gone so the
        # departed-victim rule (recovered, post_cpi=None) applies.
        window = self._windows.pop(taskname, None)
        if window is not None:
            self._store.release(window)
        self.detector.forget_task(taskname)
        for followup in stale:
            self.obs.metrics.counter("followups_purged").inc()
            self.obs.events.event(
                "followup_purged",
                reason="victim_departed",
                incident_id=followup.incident.incident_id,
                machine=self.machine.name,
                victim=taskname,
                antagonist=followup.antagonist_name,
            )
            self._finish_followup(now if now is not None else followup.due_at,
                                  followup)

    # -- checkpoint / crash / recovery ----------------------------------------------

    def take_checkpoint(self, t: int) -> AgentCheckpoint:
        """Snapshot the state a restart must not lose; kept as latest.

        Covers the outlier windows (per-task recent samples), detector
        streaks, and in-flight follow-ups — the state whose loss would
        silently forget an anomalous task mid-incident.  Each window is
        held as a compacted copy; :meth:`~repro.faults.checkpoint.
        AgentCheckpoint.to_dict` turns the snapshot into what a real agent
        would write to disk.
        """
        checkpoint = AgentCheckpoint(
            machine=self.machine.name,
            taken_at=t,
            last_analysis=self._last_analysis,
            anomalies_seen=self.anomalies_seen,
            windows={name: window.copy()
                     for name, window in self._windows.items()
                     if len(window)},
            detector_flags=self.detector.export_flags(),
            followups=[
                FollowUpState(
                    due_at=f.due_at,
                    victim_taskname=f.victim.name,
                    antagonist_taskname=f.antagonist_name,
                    incident_id=f.incident.incident_id,
                    incident_time=f.incident.time_seconds,
                    victim_jobname=f.incident.victim_jobname,
                    victim_cpi=f.incident.victim_cpi,
                    cpi_threshold=f.incident.cpi_threshold,
                    action=f.incident.decision.action.value,
                ) for f in self._followups
            ],
        )
        self._last_checkpoint = checkpoint
        self.obs.metrics.counter("agent_checkpoints").inc()
        return checkpoint

    def crash(self, t: int) -> None:
        """Simulate the agent process dying: volatile state is gone.

        Windows, detector streaks, follow-ups, and the analysis rate-limit
        clock are lost.  The spec cache survives (a real agent persists the
        small spec map locally and re-reads it on start — losing it would
        blind detection until the next daily push).  Already-raised
        incidents survive in :attr:`incidents` as the historical record:
        they were shipped to the forensics sink when they opened.
        """
        self.crash_count += 1
        lost_followups = len(self._followups)
        self.obs.metrics.counter("agent_crashes").inc()
        self.obs.events.event(
            "agent_crashed", machine=self.machine.name,
            lost_followups=lost_followups, lost_windows=len(self._windows))
        self._windows = {}
        self._store = WindowStore()
        self._followups = []
        self._last_analysis = None
        self.detector = OutlierDetector(self.config, obs=self.obs)

    def restore(self, checkpoint: AgentCheckpoint, t: int) -> None:
        """Recover from a checkpoint after :meth:`crash`.

        Windows and detector streaks are reloaded wholesale.  Follow-ups
        are re-armed against the live machine: a follow-up whose victim or
        antagonist no longer exists is finalised immediately through the
        sink (counted as purged, reason ``lost_at_restore``) rather than
        silently dropped.  Incidents referenced by id are reused when this
        agent object still holds them; otherwise (restore into a fresh
        process) they are rebuilt from the checkpointed fields.
        """
        self._store = store = WindowStore()
        self._windows = {name: store.adopt(window)
                         for name, window in checkpoint.windows.items()}
        self.detector.restore_flags(checkpoint.detector_flags)
        self._last_analysis = checkpoint.last_analysis
        self.anomalies_seen = max(self.anomalies_seen,
                                  checkpoint.anomalies_seen)
        recovered = 0
        for state in checkpoint.followups:
            incident = next((i for i in self.incidents
                             if i.incident_id == state.incident_id), None)
            antagonist = (self.machine.get_task(state.antagonist_taskname)
                          if self.machine.has_task(state.antagonist_taskname)
                          else None)
            if incident is None:
                incident = Incident(
                    incident_id=state.incident_id,
                    machine=checkpoint.machine,
                    time_seconds=state.incident_time,
                    victim_taskname=state.victim_taskname,
                    victim_jobname=state.victim_jobname,
                    victim_cpi=state.victim_cpi,
                    cpi_threshold=state.cpi_threshold,
                    suspects=[],
                    decision=PolicyDecision(
                        action=PolicyAction(state.action),
                        target=antagonist,
                        reason="restored-from-checkpoint"),
                )
                self.incidents.append(incident)
            if not self.machine.has_task(state.victim_taskname):
                # Victim left while the agent was down; finalise now so
                # the incident is not silently forgotten.
                self.obs.metrics.counter("followups_purged").inc()
                self.obs.events.event(
                    "followup_purged", reason="lost_at_restore",
                    incident_id=state.incident_id,
                    machine=self.machine.name,
                    victim=state.victim_taskname,
                    antagonist=state.antagonist_taskname)
                incident.recovered = True
                if self.incident_sink:
                    self.incident_sink(incident)
                continue
            self._followups.append(_FollowUp(
                due_at=state.due_at,
                incident=incident,
                victim=self.machine.get_task(state.victim_taskname),
                antagonist=antagonist,
                antagonist_name=state.antagonist_taskname,
            ))
            recovered += 1
        if recovered:
            self.obs.metrics.counter("followups_recovered").inc(recovered)
        self.obs.events.event(
            "agent_restored", machine=self.machine.name,
            checkpoint_age=t - checkpoint.taken_at,
            followups_recovered=recovered,
            windows_restored=len(self._windows))
        self._wake(t)

    def restore_from_dict(self, data: dict, t: int) -> bool:
        """Restore from a serialised checkpoint (what a real agent reads
        off disk at start-up); returns whether anything was restored.

        A checkpoint written under a different schema version — a stale
        file left by a pre-upgrade agent — is ignored with a counted
        ``checkpoint_version_mismatch`` event, and a damaged one (a field
        missing or unusable) with a counted ``checkpoint_malformed`` event:
        the agent relearns its windows instead of crashing on the file,
        which would wedge it in a restart loop a restart cannot fix.
        Nothing of a rejected checkpoint is restored.
        """
        try:
            checkpoint = AgentCheckpoint.from_dict(data)
        except (CheckpointVersionError, CheckpointFormatError) as error:
            reason = ("checkpoint_version_mismatch"
                      if isinstance(error, CheckpointVersionError)
                      else "checkpoint_malformed")
            self.obs.metrics.counter(reason).inc()
            self.obs.events.warning(reason, machine=self.machine.name,
                                    error=str(error))
            return False
        self.restore(checkpoint, t)
        return True

    def crash_and_restart(self, t: int) -> None:
        """Crash, then restart from the latest checkpoint (if any)."""
        checkpoint = self._last_checkpoint
        self.crash(t)
        self.obs.metrics.counter("agent_restarts").inc()
        if checkpoint is not None:
            self.restore(checkpoint, t)
