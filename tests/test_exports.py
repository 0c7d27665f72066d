"""Every name a raspen module lists in __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import raspen

MODULES = sorted(m.name for m in pkgutil.iter_modules(raspen.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"raspen.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"raspen.{name}.__all__ names missing attributes: {missing}"
