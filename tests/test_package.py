"""The import surface of the package: each module's ``__all__``, the names
that ``spinlattice/__init__.py`` re-exports, and the names each module
imports."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import spinlattice

PACKAGE = pathlib.Path(spinlattice.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE)]))


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"spinlattice.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_the_package_reexports_only_names_in_all():
    """A module without ``__all__`` exports its names that do not start
    with an underscore, as ``from module import *`` does."""
    outside = []
    for node in ast.walk(_tree("__init__")):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"spinlattice.{node.module}")
            public = getattr(module, "__all__", None)
            if public is None:
                public = [attr for attr in vars(module)
                          if not attr.startswith("_")]
            outside += [f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name not in public]
    assert outside == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_reads(name):
    tree = _tree(name)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []
