"""Every name a public export list promises resolves on its module, no
module imports a name it never reads, and every private name the package
defines is read somewhere in it."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import tpcmg

# __main__ runs the CLI on import; every other submodule is imported here
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(tpcmg.__path__)
                    if info.name != "__main__")

PACKAGE_SOURCES = sorted(pathlib.Path(tpcmg.__path__[0]).glob("*.py"))
SOURCES = PACKAGE_SOURCES + sorted(pathlib.Path(__file__).parent.glob("*.py"))


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


def _private_definitions(tree):
    """_-prefixed (not dunder) names a module defines at top level, as
    functions, classes or assigned constants, or as methods of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for leaf in (target.elts if isinstance(target, ast.Tuple) else [target]):
                if isinstance(leaf, ast.Name):
                    names.append(leaf.id)
    return [name for name in names
            if name.startswith("_") and not name.endswith("__")]


def dead_private_names(sources):
    """(module, name) of each private definition in ``sources`` (module
    name -> source) that no module reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted((module, name) for module, tree in trees.items()
                  for name in _private_definitions(tree) if name not in read)


def test_dead_private_name_detected():
    sources = {
        "a": "_LIMIT, _SPARE = 1, 2\n"
             "def _used(): return _LIMIT\n"
             "def _unused(): pass\n"
             "class K:\n"
             "    def __init__(self): self._helper()\n"
             "    def _helper(self): pass\n"
             "    def _orphan(self): pass\n",
        "b": "from a import _used\nx = _used()\n",
    }
    assert dead_private_names(sources) == [("a", "_SPARE"), ("a", "_orphan"),
                                           ("a", "_unused")]


def test_no_dead_private_names():
    dead = dead_private_names({path.name: path.read_text() for path in PACKAGE_SOURCES})
    assert not dead, f"private names that nothing in tpcmg reads: {dead}"


def transform_uses(source):
    """Sorted uses in ``source`` of the FFT layer: scipy.fft imported in
    any form, and the names _rfft/_irfft imported or read."""
    uses = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            uses.update(a.name for a in node.names
                        if a.name == "scipy.fft" or a.name.startswith("scipy.fft."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "scipy.fft" or module.startswith("scipy.fft."):
                uses.add(module)
            uses.update(f"{module}.{a.name}" for a in node.names
                        if a.name in ("_rfft", "_irfft")
                        or (module == "scipy" and a.name == "fft"))
        elif isinstance(node, ast.Name) and node.id in ("_rfft", "_irfft"):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ("_rfft", "_irfft"):
            uses.add(node.attr)
    return sorted(uses)


def test_transform_use_detected():
    for source in ("import scipy.fft as _fft\n", "from scipy.fft import rfft\n",
                   "from scipy import fft\n", "from .kernels import _irfft\n",
                   "from . import kernels\ny = kernels._rfft(x)\n"):
        assert transform_uses(source), source
    assert transform_uses("import scipy.linalg\nfrom .kernels import _circulant_product\n") == []


@pytest.mark.parametrize("path", [p for p in PACKAGE_SOURCES if p.name != "kernels.py"],
                         ids=lambda p: p.name)
def test_transforms_only_in_kernels(path):
    """Every FFT the package takes goes through kernels' transform pair."""
    uses = transform_uses(path.read_text())
    assert not uses, f"{path.name} uses the FFT layer directly: {uses}"


def operator_constructions(source):
    """Sorted names of the operator classes, ToeplitzSpec and TpcOperator,
    that ``source`` calls, by bare name or as an attribute."""
    classes = ("ToeplitzSpec", "TpcOperator")
    called = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in classes:
                called.add(name)
    return sorted(called)


def test_operator_construction_detected():
    assert operator_constructions("op = TpcOperator(A, B, C, D, p, q, x, z, o)\n"
                                  "t = kernels.ToeplitzSpec(3, c)\n") == [
        "ToeplitzSpec", "TpcOperator"]
    assert operator_constructions("from .kernels import TpcOperator\n"
                                  "op = _tpc_from_tables(3, a, b, c, d)\n") == []


@pytest.mark.parametrize("path", [p for p in PACKAGE_SOURCES
                                  if p.name not in ("kernels.py", "hierarchy.py")],
                         ids=lambda p: p.name)
def test_operators_built_only_in_kernels_and_hierarchy(path):
    """The models build their operators through kernels._tpc_from_tables,
    the one mapping of [M Q; P N] onto the cross layout."""
    called = operator_constructions(path.read_text())
    assert not called, f"{path.name} constructs operators directly: {called}"


def package_imports(source):
    """Sorted (module, name) of each tpcmg module ``source`` imports from,
    relatively or by absolute name; name is None for a whole module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update((a.name.split(".")[1], None) for a in node.names
                         if a.name.startswith("tpcmg."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("tpcmg"):
                module = module[len("tpcmg"):].lstrip(".")
            elif node.level == 0:
                continue
            if module:
                found.update((module.split(".")[0], a.name) for a in node.names)
            else:
                found.update((a.name, None) for a in node.names)
    return sorted(found, key=str)


def test_package_import_detected():
    source = ("import numpy\nfrom . import kernels, peridynamic\n"
              "from .solver import SmootherConfig, vcycle\n"
              "import tpcmg.hierarchy\nfrom tpcmg.kernels import _rfft\n")
    assert package_imports(source) == sorted(
        [("kernels", None), ("peridynamic", None), ("solver", "SmootherConfig"),
         ("solver", "vcycle"), ("hierarchy", None), ("kernels", "_rfft")], key=str)


def test_oracle_independent_of_fast_path():
    """The oracle reads no kernel, hierarchy or solver code: of the solver
    only the SmootherConfig a dense cycle takes its parameters from."""
    source = (pathlib.Path(tpcmg.__path__[0]) / "oracle.py").read_text()
    imports = package_imports(source)
    banned = [(module, name) for module, name in imports
              if module in ("hierarchy", "kernels")
              or (module == "solver" and name != "SmootherConfig")]
    assert not banned, f"oracle.py imports from the fast path: {banned}"
