"""Structured event logging: the run log CPI2 operators grep.

Every noteworthy control-loop step — anomaly declared, analysis dropped,
cap applied, follow-up closed — is a dict-shaped *event* with a stable
``event`` type plus context fields (machine, task, job, simulated time).
Events flow through stdlib :mod:`logging` under the ``repro.events`` logger,
so the usual handler machinery applies; :func:`configure_logging` wires the
two handlers the CLI exposes (human console at ``--log-level``, JSONL file
at ``--log-json``).

:class:`StructuredLogger` also supports in-process sinks (plain callables
receiving the payload dict) so tests and the forensics layer can capture
events without touching global logging state.
"""

from __future__ import annotations

import io
import json
import logging
from typing import Callable, Optional

__all__ = [
    "EVENT_LOGGER_NAME",
    "JsonlFormatter",
    "StructuredLogger",
    "configure_logging",
    "reset_logging",
]

#: All structured events are logged under this logger name.
EVENT_LOGGER_NAME = "repro.events"

#: Marker attribute identifying handlers installed by configure_logging.
_MANAGED = "_repro_obs_managed"


class _EventMessage:
    """Lazily renders an event payload for human-readable handlers."""

    __slots__ = ("payload",)

    def __init__(self, payload: dict):
        self.payload = payload

    def __str__(self) -> str:
        parts = [str(self.payload.get("event", "?"))]
        parts.extend(f"{k}={v}" for k, v in self.payload.items()
                     if k != "event")
        return " ".join(parts)


class JsonlFormatter(logging.Formatter):
    """One compact JSON object per record.

    Records carrying an ``event_payload`` (everything emitted through
    :class:`StructuredLogger`) serialise that dict verbatim; anything else
    logged under the handler's logger is wrapped as a generic ``log`` event
    so the output file stays line-parseable end to end.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload = getattr(record, "event_payload", None)
        if payload is None:
            payload = {
                "event": "log",
                "level": record.levelname.lower(),
                "logger": record.name,
                "message": record.getMessage(),
            }
        return json.dumps(payload, sort_keys=True, default=str,
                          separators=(",", ":"))


class StructuredLogger:
    """Emits dict-shaped events with simulated-time stamps.

    Args:
        name: stdlib logger to emit through.
        clock: zero-arg callable returning the current simulated time in
            seconds; stamped on every event as ``t``.  Bound by the pipeline
            to its simulation's clock.
    """

    def __init__(self, name: str = EVENT_LOGGER_NAME,
                 clock: Optional[Callable[[], int]] = None):
        self._logger = logging.getLogger(name)
        self.clock = clock
        self._sinks: list[Callable[[dict], None]] = []

    def add_sink(self, sink: Callable[[dict], None]) -> None:
        """Also deliver every event payload to ``sink`` (tests, capture)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[dict], None]) -> None:
        self._sinks.remove(sink)

    def enabled(self, level: int = logging.INFO) -> bool:
        """Whether an event at ``level`` reaches anyone (a sink, or a
        logging level that passes): a caller can skip building fields
        that :meth:`event` would drop."""
        return bool(self._sinks) or self._logger.isEnabledFor(level)

    def event(self, event: str, *, level: int = logging.INFO,
              **fields: object) -> Optional[dict]:
        """Emit one structured event; returns the payload, or None if dropped.

        The payload is only built when someone is listening (a sink, or a
        logging level that passes), which keeps disabled logging nearly free
        on the per-sample hot path.
        """
        if not self._sinks and not self._logger.isEnabledFor(level):
            return None
        payload: dict = {"event": event}
        if self.clock is not None:
            payload["t"] = self.clock()
        payload.update(fields)
        if self._logger.isEnabledFor(level):
            self._logger.log(level, "%s", _EventMessage(payload),
                             extra={"event_payload": payload})
        for sink in self._sinks:
            sink(payload)
        return payload

    def debug(self, event: str, **fields: object) -> Optional[dict]:
        return self.event(event, level=logging.DEBUG, **fields)

    def warning(self, event: str, **fields: object) -> Optional[dict]:
        return self.event(event, level=logging.WARNING, **fields)


def _remove_managed_handlers(logger: logging.Logger) -> None:
    for handler in list(logger.handlers):
        if getattr(handler, _MANAGED, False):
            logger.removeHandler(handler)
            handler.close()


def configure_logging(level: str = "warning",
                      json_path: Optional[str] = None,
                      stream: Optional[io.TextIOBase] = None) -> logging.Logger:
    """Wire the ``repro`` logger tree for a run.

    Args:
        level: console verbosity (debug/info/warning/error).  Events below
            this level do not reach the console, but all of them reach the
            JSONL file when one is configured.
        json_path: write every event as one JSON line to this file.
        stream: console destination (stderr by default; injectable for tests).

    Returns the configured ``repro`` logger.  Safe to call repeatedly —
    handlers installed by a previous call are replaced, not stacked.
    """
    console_level = getattr(logging, level.upper(), None)
    if not isinstance(console_level, int):
        raise ValueError(f"unknown log level {level!r}")
    root = logging.getLogger("repro")
    _remove_managed_handlers(root)
    # The logger gate must be at least as permissive as the most permissive
    # handler: the JSONL file always gets everything from DEBUG up.
    root.setLevel(logging.DEBUG if json_path else console_level)
    root.propagate = False

    console = logging.StreamHandler(stream)
    console.setLevel(console_level)
    console.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    setattr(console, _MANAGED, True)
    root.addHandler(console)

    if json_path:
        jsonl = logging.FileHandler(json_path, mode="w", encoding="utf-8")
        jsonl.setLevel(logging.DEBUG)
        jsonl.setFormatter(JsonlFormatter())
        setattr(jsonl, _MANAGED, True)
        root.addHandler(jsonl)
    return root


def reset_logging() -> None:
    """Remove handlers installed by :func:`configure_logging` (tests)."""
    root = logging.getLogger("repro")
    _remove_managed_handlers(root)
    root.setLevel(logging.NOTSET)
    root.propagate = True
