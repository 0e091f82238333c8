"""Every name a module exports exists, so a deletion cannot leave a stale export,
and every name a module imports is used, so a deletion cannot leave a dead import."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


# The package's modules and the tests; the package's __init__ imports what it exports
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted({*(ROOT / "src" / "rrlab").glob("*.py"), *(ROOT / "tests").glob("*.py")})
SOURCES.remove(ROOT / "src" / "rrlab" / "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    # a module-level import binds a name that some Name node or __all__ entry uses
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert [name for name in imported if name not in used] == []


def test_public_ctx_parameters_are_required():
    # no numeric entry point builds a context of its own: every ctx is passed in
    functions = [getattr(rrlab, n) for n in rrlab.__all__]
    functions = [f for f in functions if callable(f) and not isinstance(f, type)]
    params = [(f.__name__, inspect.signature(f).parameters.get("ctx")) for f in functions]
    assert len([n for n, p in params if p is not None]) >= 20
    assert [n for n, p in params if p is not None and p.default is not p.empty] == []
