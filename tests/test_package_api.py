"""The package's public names: every ``__all__`` entry exists, and the package re-exports only them."""

import ast
import importlib
import os
import pkgutil

import pytest

import stablegof

MODULES = [info.name for info in pkgutil.iter_modules(stablegof.__path__)]


def package_imports():
    """(module, name) for each name ``stablegof/__init__.py`` imports from a submodule."""
    with open(os.path.join(os.path.dirname(stablegof.__file__), "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"stablegof.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"stablegof.{name}.__all__ names missing {attr!r}"


def test_the_package_imports_only_public_names():
    imports = package_imports()
    assert len(imports) > 20
    for module_name, attr in imports:
        module = importlib.import_module(f"stablegof.{module_name}")
        assert attr in module.__all__, f"stablegof imports {attr!r}, not in {module_name}.__all__"
        assert getattr(stablegof, attr) is getattr(module, attr)
