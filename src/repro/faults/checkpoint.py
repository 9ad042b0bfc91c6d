"""Agent checkpoint/recovery and crash injection.

A management agent is an ordinary process: it gets OOM-killed, upgraded,
or taken down with its machine's kernel.  What must survive a restart is
the state that *cannot be relearned quickly*: the per-task outlier windows
(losing them silences detection for minutes) and the in-flight follow-ups
(losing one means an applied hard-cap is never checked and its incident
never finalised — an anomalous task silently forgotten mid-incident).

:class:`AgentCheckpoint` is the snapshot of exactly that state.  It holds
compacted array copies of the agent's windows (taking one costs four
column copies per task), and builds plain JSON-able dicts only when
:meth:`AgentCheckpoint.to_dict` is asked for what a real agent would
fsync; :meth:`AgentCheckpoint.from_dict` validates such a dict before
anything is restored from it.  :class:`CrashInjector` draws crash times
from a seeded generator so a (profile, seed) pair replays the same crash
schedule exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.policy import PolicyAction
from repro.core.storage import sample_from_dict, sample_to_dict
from repro.core.window import ColumnarWindow

__all__ = ["CHECKPOINT_VERSION", "CheckpointVersionError",
           "CheckpointFormatError", "FollowUpState", "AgentCheckpoint",
           "CrashInjector"]

#: Current checkpoint schema version.  Bump on any incompatible change to
#: the serialised layout; agents ignore (never crash on) mismatches.
CHECKPOINT_VERSION = 1


class CheckpointVersionError(ValueError):
    """A serialised checkpoint carries an unknown schema version."""


class CheckpointFormatError(ValueError):
    """A serialised checkpoint lacks a field or holds an unusable value."""


#: Serialised fields and the JSON types a restore can use.
_CHECKPOINT_FIELDS: dict[str, Any] = {
    "version": int, "machine": str, "taken_at": int,
    "last_analysis": (int, type(None)), "anomalies_seen": int,
    "windows": dict, "detector_flags": dict, "followups": list,
}
_FOLLOWUP_FIELDS: dict[str, Any] = {
    "due_at": int, "victim_taskname": str, "antagonist_taskname": str,
    "incident_id": int, "incident_time": int, "victim_jobname": str,
    "victim_cpi": (int, float), "cpi_threshold": (int, float),
    "action": str,
}


def _check_record(kind: str, data: Any, fields: dict[str, Any]) -> None:
    """Raise :class:`CheckpointFormatError` unless ``data`` is a dict with
    exactly ``fields``' keys, each holding a value of its type."""
    if not isinstance(data, dict):
        raise CheckpointFormatError(
            f"bad {kind} record: {type(data).__name__}, not a dict")
    if set(data) != set(fields):
        raise CheckpointFormatError(
            f"bad {kind} record: keys {sorted(data)} != {sorted(fields)}")
    for key, types in fields.items():
        if not isinstance(data[key], types):
            raise CheckpointFormatError(
                f"bad {kind} record: {key}={data[key]!r}")


def _window_from_records(taskname: str, records: Any) -> ColumnarWindow:
    """One task's window from its serialised samples."""
    if not isinstance(records, list):
        raise CheckpointFormatError(
            f"bad window {taskname!r}: {type(records).__name__}, not a list")
    try:
        samples = [sample_from_dict(record) for record in records]
        if any(sample.taskname != taskname for sample in samples):
            raise ValueError("holds another task's sample")
        return ColumnarWindow.from_samples(taskname, samples)
    except (TypeError, ValueError) as error:
        raise CheckpointFormatError(
            f"bad window {taskname!r}: {error}") from error


@dataclass(frozen=True)
class FollowUpState:
    """The durable core of one in-flight recovery check.

    Tasks are referenced by name (they live in the machine, not the
    agent); the incident fields are enough to finalise the incident after
    a restart even if the original in-memory object is gone.
    """

    due_at: int
    victim_taskname: str
    antagonist_taskname: str
    incident_id: int
    incident_time: int
    victim_jobname: str
    victim_cpi: float
    cpi_threshold: float
    action: str

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "FollowUpState":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            CheckpointFormatError: for a missing, extra or mistyped field,
                or an ``action`` that names no :class:`PolicyAction`.
        """
        _check_record("follow-up", data, _FOLLOWUP_FIELDS)
        try:
            PolicyAction(data["action"])
        except ValueError as error:
            raise CheckpointFormatError(
                f"bad follow-up record: {error}") from error
        return cls(**data)


@dataclass
class AgentCheckpoint:
    """Everything a restarted agent needs to keep working an incident."""

    machine: str
    taken_at: int
    last_analysis: Optional[int]
    anomalies_seen: int
    #: taskname -> a copy of that task's recent samples (the correlation
    #: window); never shared with a live agent.
    windows: dict[str, ColumnarWindow] = field(default_factory=dict)
    #: taskname -> in-window outlier flag timestamps (detector streaks).
    detector_flags: dict[str, list[int]] = field(default_factory=dict)
    followups: list[FollowUpState] = field(default_factory=list)
    #: Schema version this checkpoint was taken under.
    version: int = CHECKPOINT_VERSION

    def to_dict(self) -> dict[str, Any]:
        """The checkpoint as a JSON-able dict (what a real agent persists)."""
        return {
            "version": self.version,
            "machine": self.machine,
            "taken_at": self.taken_at,
            "last_analysis": self.last_analysis,
            "anomalies_seen": self.anomalies_seen,
            "windows": {name: [sample_to_dict(s) for s in window.samples]
                        for name, window in self.windows.items()},
            "detector_flags": self.detector_flags,
            "followups": [f.to_dict() for f in self.followups],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "AgentCheckpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output.

        Everything :meth:`~repro.core.agent.MachineAgent.restore` reads is
        checked here, so a restore from the result cannot fail half-way.

        Raises:
            CheckpointVersionError: for a checkpoint written under a
                different schema version (a stale file from before an
                upgrade, or from after a downgrade).  Callers should treat
                this as "no checkpoint" — relearn, don't crash.
            CheckpointFormatError: for a current-version checkpoint with a
                missing, extra or mistyped field anywhere (a damaged
                file).  Callers treat it the same way.
        """
        if not isinstance(data, dict):
            raise CheckpointFormatError(
                f"checkpoint is a {type(data).__name__}, not a dict")
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint schema version {version!r} != "
                f"{CHECKPOINT_VERSION} (machine {data.get('machine')!r})")
        _check_record("checkpoint", data, _CHECKPOINT_FIELDS)
        detector_flags = data["detector_flags"]
        for name, flags in detector_flags.items():
            if not (isinstance(flags, list)
                    and all(isinstance(flag, int) for flag in flags)):
                raise CheckpointFormatError(
                    f"bad detector flags for {name!r}: {flags!r}")
        return cls(
            machine=data["machine"],
            taken_at=data["taken_at"],
            last_analysis=data["last_analysis"],
            anomalies_seen=data["anomalies_seen"],
            windows={name: _window_from_records(name, records)
                     for name, records in data["windows"].items()},
            detector_flags={name: list(flags)
                            for name, flags in detector_flags.items()},
            followups=[FollowUpState.from_dict(f)
                       for f in data["followups"]],
        )


class CrashInjector:
    """Draws one machine's agent-crash schedule, deterministically."""

    def __init__(self, crash_rate: float, rng: np.random.Generator):
        """Args:
            crash_rate: per-second crash probability (0 disables).
            rng: private seeded generator.
        """
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError(
                f"crash_rate must be in [0, 1], got {crash_rate}")
        self.crash_rate = crash_rate
        self.rng = rng
        self.crashes = 0

    def should_crash(self) -> bool:
        """Bernoulli draw for this second; counts positives."""
        if self.crash_rate <= 0.0:
            return False
        if self.rng.random() < self.crash_rate:
            self.crashes += 1
            return True
        return False
