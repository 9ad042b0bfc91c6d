"""Every name a ``repro`` module lists in ``__all__`` must exist."""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"{info.name}.{name}")
    assert missing == []
