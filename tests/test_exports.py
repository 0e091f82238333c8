"""Every name a module exports exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import rrlab

MODULES = ["rrlab"] + [
    f"rrlab.{m.name}" for m in pkgutil.iter_modules(rrlab.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

