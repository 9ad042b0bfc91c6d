"""Reference agent ingest: one closed window, one sample at a time.

This is how :meth:`repro.core.agent.MachineAgent.ingest_samples` handled
small windows before the columnar path became the only one: every sample
is validated by the literal quarantine ladder below (kept here, not
imported, so a change to the production check order shows), appended to
its task's window, and — unless the agent is degraded — classified by the
per-sample Section 4.1 rules of ``tests/reference/outlier.py`` against its
spec, with each declared anomaly handed to analysis before the next
sample.

Tests swap it in for every agent with :func:`install`.
"""

import math

from repro.core.agent import MachineAgent
from repro.core.window import ColumnarWindow
from tests.reference import outlier as reference_outlier


def install(monkeypatch) -> None:
    monkeypatch.setattr(MachineAgent, "ingest_samples", ingest_samples)


def quarantine_reason(sample, cpi_bound):
    if not math.isfinite(sample.cpi):
        return "non_finite_cpi"
    if not math.isfinite(sample.cpu_usage):
        return "non_finite_usage"
    if sample.cpi == 0.0:
        return "zero_cpi"
    if sample.cpi > cpi_bound:
        return "absurd_cpi"
    return None


def ingest_samples(agent, t, columns):
    agent._refresh_degraded(t)
    incidents = []
    for sample in columns.to_samples():
        reason = quarantine_reason(sample, agent.config.quarantine_cpi_bound)
        if reason is not None:
            agent._note_quarantined(sample.taskname, sample.key(), reason)
            continue
        window = agent._windows.get(sample.taskname)
        if window is None:
            window = ColumnarWindow(sample.taskname)
            agent._windows[sample.taskname] = window
        window.append_sample(sample)
        if agent._degraded:
            agent._note_stale_drop(t, sample.taskname, sample.key())
            continue
        anomaly = reference_outlier.observe(
            agent.detector, sample, agent._specs.get(sample.key()))
        if anomaly is None:
            continue
        incident = agent._note_anomaly(t, anomaly)
        if incident is not None:
            incidents.append(incident)
    return incidents
