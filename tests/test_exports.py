"""Every name a public export list promises resolves on its module."""

import importlib
import pkgutil

import pytest

import tpcmg

# __main__ runs the CLI on import; every other submodule is imported here
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(tpcmg.__path__)
                    if info.name != "__main__")


@pytest.mark.parametrize("name", ["tpcmg"] + [f"tpcmg.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

