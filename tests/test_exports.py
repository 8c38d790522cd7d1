"""Every wacyl module star-imports cleanly and provides each name its
__all__ lists, so a deleted function cannot stay exported."""

import importlib
import pkgutil

import pytest

import wacyl

MODULES = ["wacyl"] + sorted(f"wacyl.{m.name}"
                             for m in pkgutil.iter_modules(wacyl.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_provides_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    for export in getattr(importlib.import_module(name), "__all__", ()):
        assert export in namespace, f"{name}.__all__ names {export!r}"
