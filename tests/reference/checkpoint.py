"""Reference checkpoint serialisation: the windows as dicts, one per sample.

This is how :meth:`repro.core.agent.MachineAgent.take_checkpoint` built
``AgentCheckpoint.windows`` before the checkpoint held window copies: every
non-empty window materialised as ``CpiSample`` objects and each turned into
a dict by ``dataclasses.asdict``.  ``AgentCheckpoint.to_dict()["windows"]``
must serialise to the same JSON bytes.
"""

from dataclasses import asdict


def windows_to_dict(windows):
    """``{taskname: [sample dict, ...]}`` for every non-empty window."""
    return {name: [asdict(s) for s in window.samples]
            for name, window in windows.items()
            if len(window)}
