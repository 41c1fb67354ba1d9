"""Tooling checks on the package's public names."""

import ast
import importlib
from pathlib import Path

import pytest

import splinedim

MODULES = ["dimension", "ideals", "mesh", "polyring", "ratlinalg", "refine"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"splinedim.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, (name, missing)


def test_package_reexports_only_names_in_the_module_all():
    tree = ast.parse(Path(splinedim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"splinedim.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
