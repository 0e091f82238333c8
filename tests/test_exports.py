"""Every name a module exports exists, so a deletion cannot leave a stale export."""

import importlib
import inspect
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


def test_public_ctx_parameters_are_required():
    # no numeric entry point builds a context of its own: every ctx is passed in
    functions = [getattr(rrlab, n) for n in rrlab.__all__]
    functions = [f for f in functions if callable(f) and not isinstance(f, type)]
    params = [(f.__name__, inspect.signature(f).parameters.get("ctx")) for f in functions]
    assert len([n for n, p in params if p is not None]) >= 20
    assert [n for n, p in params if p is not None and p.default is not p.empty] == []
