"""Export guard: every name in a module's ``__all__`` resolves, and every
name the package imports is exported by the module it comes from, so a
deleted name cannot linger in an export list."""

import ast
import importlib
import os
import pkgutil

import pytest

import mdaccel

MODULES = sorted(m.name for m in pkgutil.iter_modules(mdaccel.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module("mdaccel." + name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_name_the_package_imports_is_exported():
    with open(os.path.join(os.path.dirname(mdaccel.__file__), "__init__.py")) as f:
        tree = ast.parse(f.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("mdaccel." + node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(mdaccel, alias.name) is getattr(module, alias.name)
