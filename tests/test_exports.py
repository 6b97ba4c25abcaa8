"""Every name a public export list promises resolves on its module, and
no module imports a name it never reads."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import tpcmg

# __main__ runs the CLI on import; every other submodule is imported here
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(tpcmg.__path__)
                    if info.name != "__main__")

SOURCES = sorted(pathlib.Path(tpcmg.__path__[0]).glob("*.py")) \
    + sorted(pathlib.Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", ["tpcmg"] + [f"tpcmg.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def unused_imports(source):
    """Names the module source binds by import but never reads and does
    not list in __all__; __future__ imports are exempt."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_unused_import_detected():
    source = "from os import path, sep\nimport numpy as np\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["np", "path"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never reads: {unused}"
