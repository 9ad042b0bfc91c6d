"""Outside-in layer tracer: class-level timing shims around public callables.

The benchmark measures layers without touching ``src/``: every span target is
a dotted path in :data:`SPAN_TARGETS`, resolved at install time and wrapped
*on its owner* (the class, or every ``repro`` module holding the function) —
never on an instance.  Instance-patching ``Machine.tick`` would knock the
machine out of :class:`~repro.cluster.fused.FusedFleet`; a class-level shim
keeps ``type(m).tick is Machine.tick`` true, so fusion stays engaged and the
traced run executes the production path.

A target that no longer exists is recorded as ``absent`` and reports zero
calls — upcoming PRs delete ``flush_charges`` and friends, and the benchmark
must keep running across them.

Aggregates (calls, self seconds, total seconds) are kept for the whole run.
Full spans are kept only while :attr:`Tracer.recording` is on (the harness
turns it on for the last simulated minute) and written as Chrome trace-event
JSON, loadable in ``chrome://tracing`` or Perfetto.

Self time of a span is its duration minus the time covered by its child
spans, so self times of all spans under one root sum to the root's duration.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Callable, Iterator, Optional

__all__ = ["SPAN_TARGETS", "MANUAL_SPANS", "Tracer", "resolve_target"]

#: span name -> dotted path of the public callable it wraps.  The one table
#: every shim comes from; BENCHMARK.json's per-layer ``<span>.self_s`` /
#: ``<span>.calls`` names are derived from its keys.
SPAN_TARGETS: dict[str, str] = {
    "cluster.simulation.run": "repro.cluster.simulation.ClusterSimulation.run",
    "cluster.scheduler.submit": "repro.cluster.scheduler.ClusterScheduler.submit",
    "cluster.scheduler.reschedule_pending":
        "repro.cluster.scheduler.ClusterScheduler.reschedule_pending",
    "cluster.fused.step": "repro.cluster.fused.FusedFleet.step",
    "cluster.machine.tick": "repro.cluster.machine.Machine.tick",
    "cluster.demandplane.demand":
        "repro.cluster.demandplane.DemandColumns.demand",
    "cluster.demandplane.allowed_and_capped":
        "repro.cluster.demandplane.DemandColumns.allowed_and_capped",
    "cluster.demandplane.charge_tick":
        "repro.cluster.demandplane.DemandColumns.charge_tick",
    "cluster.demandplane.flush_charges":
        "repro.cluster.demandplane.DemandColumns.flush_charges",
    "perf.counters.burn_matrix": "repro.perf.counters.CounterBank.burn_matrix",
    "perf.sampler.tick": "repro.perf.sampler.CpiSampler.tick",
    "core.agent.tick": "repro.core.agent.MachineAgent.tick",
    "core.agent.ingest_samples": "repro.core.agent.MachineAgent.ingest_samples",
    "core.agent.take_checkpoint":
        "repro.core.agent.MachineAgent.take_checkpoint",
    "core.aggregator.ingest_batch":
        "repro.core.aggregator.CpiAggregator.ingest_batch",
    "core.aggregator.maybe_recompute":
        "repro.core.aggregator.CpiAggregator.maybe_recompute",
    "core.outlier.observe_batch":
        "repro.core.outlier.OutlierDetector.observe_batch",
    "core.identify.rank_cotenant_suspects":
        "repro.core.identify.rank_cotenant_suspects",
    "core.policy.decide": "repro.core.policy.AmeliorationPolicy.decide",
    "core.throttle.cap": "repro.core.throttle.ThrottleController.cap",
    "core.specstore.pump": "repro.core.specstore.AggregatorHost.pump",
    "core.specstore.ingest_columns":
        "repro.core.specstore.AggregatorHost.ingest_columns",
    "core.specstore.snapshot": "repro.core.specstore.AggregatorHost.snapshot",
    "core.specstore.recover": "repro.core.specstore.DurableSpecStore.recover",
    "faults.plane.upload": "repro.faults.plane.FaultPlane.upload",
    "faults.plane.pump": "repro.faults.plane.FaultPlane.pump",
    "faults.plane.push_specs": "repro.faults.plane.FaultPlane.push_specs",
    "obs.timeseries.scrape_registry":
        "repro.obs.timeseries.TimeSeriesDB.scrape_registry",
    "obs.alerts.evaluate": "repro.obs.alerts.AlertEngine.evaluate",
    "experiments.trials.run_trial": "repro.experiments.trials.run_trial",
}

#: Spans the harness opens itself (no single callable to wrap).
MANUAL_SPANS: tuple[str, ...] = ("experiments.scenarios.build",)


def resolve_target(path: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a dotted path; raises if it is gone.

    The longest importable prefix is the module; the rest is an attribute
    chain whose last link is the callable and whose second-to-last is the
    owner (a class or the module itself).
    """
    parts = path.split(".")
    module: Optional[ModuleType] = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    if module is None:
        raise ImportError(f"no importable module in {path!r}")
    owner: Any = module
    for name in parts[cut:-1]:
        owner = getattr(owner, name)
    if not callable(getattr(owner, parts[-1])):
        raise AttributeError(f"{path} is not callable")
    return owner, parts[-1]


def _invoke(fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Aggregating span recorder with install/restore of timing shims."""

    def __init__(self, targets: Optional[dict[str, str]] = None,
                 manual: tuple[str, ...] = MANUAL_SPANS) -> None:
        self.targets = dict(SPAN_TARGETS if targets is None else targets)
        self.names: list[str] = list(self.targets) + list(manual)
        self._index = {name: i for i, name in enumerate(self.names)}
        #: Per span: [calls, self seconds, total seconds].
        self.totals: list[list] = [[0, 0.0, 0.0] for _ in self.names]
        #: Span names whose target could not be resolved at install time.
        self.absent: list[str] = []
        #: Open spans, innermost last: [span index, child seconds so far].
        self._stack: list[list] = []
        #: While true, closed spans are appended to :attr:`spans`.
        self.recording = False
        #: (span index, parent index or -1, start, end) while recording.
        self.spans: list[tuple[int, int, float, float]] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._manual = {name: self._shim(_invoke, self._index[name])
                        for name in manual}

    # -- shims ---------------------------------------------------------------------

    def _shim(self, fn: Callable, index: int) -> Callable:
        stack = self._stack
        record = self.totals[index]
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        def shim(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [index, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                record[0] += 1
                record[1] += duration - frame[1]
                record[2] += duration
                if parent is not None:
                    parent[1] += duration
                if tracer.recording:
                    spans.append((index, -1 if parent is None else parent[0],
                                  start, end))

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", "shim")
        return shim

    def start_recording(self) -> None:
        """Keep full spans from here on, dropping any kept before."""
        del self.spans[:]
        self.recording = True

    def install(self) -> None:
        """Wrap every resolvable target; list the rest in :attr:`absent`."""
        self.absent = []
        for name, path in self.targets.items():
            try:
                owner, attr = resolve_target(path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            index = self._index[name]
            if isinstance(owner, ModuleType):
                self._wrap_function(owner, attr, index)
            else:
                self._wrap_method(owner, attr, index)

    def _wrap_method(self, cls: type, attr: str, index: int) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:  # inherited: wrap what the class resolves to
            raw = getattr(cls, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._shim(raw.__func__, index))
        else:
            wrapped = self._shim(raw, index)
        self._restore.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, wrapped)

    def _wrap_function(self, module: ModuleType, attr: str,
                       index: int) -> None:
        """Module-level function: rebind it in every ``repro`` module that
        imported it by name, so ``from x import f`` callers are traced too."""
        original = getattr(module, attr)
        wrapped = self._shim(original, index)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if mod.__dict__.get(attr) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        self.recording = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)  # was inherited, not defined here
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside the manual span ``name`` (nested and accounted
        exactly like a shimmed call)."""
        return self._manual[name](fn, *args, **kwargs)

    # -- results -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[self._index[name]][0]

    def self_seconds(self, name: str) -> float:
        return self.totals[self._index[name]][1]

    def total_seconds(self, name: str) -> float:
        return self.totals[self._index[name]][2]

    def summary(self) -> dict[str, dict]:
        """``{span: {calls, self_s, total_s, status}}`` for the results file."""
        return {
            name: {"calls": rec[0], "self_s": rec[1], "total_s": rec[2],
                   "status": "absent" if name in self.absent else "traced"}
            for name, rec in zip(self.names, self.totals)
        }

    def chrome_trace(self) -> dict:
        """The recorded spans as Chrome trace-event JSON (complete events)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(s[2] for s in self.spans)
        events = [{
            "name": self.names[index], "cat": self.names[index].split(".")[0],
            "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"parent": self.names[parent] if parent >= 0 else None},
        } for index, parent, start, end in self.spans]
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
