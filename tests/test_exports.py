"""Every ``__all__`` entry of every ``repro`` module names something.

A stale export (a name left in ``__all__`` after its definition was
deleted) breaks ``from module import *`` and misleads readers; this walk
catches one in any module the package holds.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            yield importlib.import_module(info.name)


def test_every_export_resolves():
    missing = [f"{module.__name__}.{name}"
               for module in _modules()
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_the_walk_sees_the_subpackages():
    names = {module.__name__ for module in _modules()}
    assert {"repro.graph.ops", "repro.gpu.config",
            "repro.core.kernels.launch"} <= names
