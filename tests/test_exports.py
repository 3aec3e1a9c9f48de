"""Every name a forestalg module exports in `__all__` must exist."""

import importlib
import pkgutil

import pytest

import forestalg

MODULES = sorted(info.name for info in pkgutil.iter_modules(forestalg.__path__))


def test_modules_are_found():
    assert {"algebra", "decide", "ktypes", "terms"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("forestalg." + name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
