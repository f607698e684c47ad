"""The export lists: every module's ``__all__`` names what it defines, and
the package namespace imports only exported names.

A function deleted from a module but left in its ``__all__``, or imported
into ``photonlab`` without being exported, fails here.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import photonlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(photonlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"photonlab.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(photonlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        exported = importlib.import_module(f"photonlab.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace: dict = {}
    exec(f"from photonlab.{name} import *", namespace)
    module = importlib.import_module(f"photonlab.{name}")
    assert set(module.__all__) <= set(namespace)
