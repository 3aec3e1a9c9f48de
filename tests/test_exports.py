"""Every name a forestalg module exports in `__all__` must exist, and so must
every function the benchmark's tracer wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import forestalg

MODULES = sorted(info.name for info in pkgutil.iter_modules(forestalg.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_modules_are_found():
    assert {"algebra", "decide", "ktypes", "terms"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("forestalg." + name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_tracer_bindings_resolve_to_callables():
    # the tracer skips a binding it cannot find, which would zero its metric
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in MODULES:
        importlib.import_module("forestalg." + name)
    missing = []
    for prefix, (bindings, _) in tracer.BINDINGS.items():
        for owner_path, attr in bindings:
            owner = forestalg
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, attr, None)):
                missing.append((prefix, owner_path, attr))
    assert missing == []
