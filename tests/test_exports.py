"""Tooling checks on the package's public names."""

import ast
import importlib
import importlib.util
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


def test_every_name_the_benchmark_tracer_wraps_or_reads_exists():
    """perfbench/tracer.py wraps functions by module attribute and methods
    from the class dict, and reads RatMatrix.row_dicts, nrows and ncols; a
    name missing there breaks only the benchmark, so it is checked here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    reads = [
        ("read", "splinedim.ratlinalg", "RatMatrix", attr)
        for attr in ("row_dicts", "nrows", "ncols")
    ]
    missing = [
        (modname, attr)
        for _, modname, attr in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ] + [
        (modname, f"{clsname}.{attr}")
        for _, modname, clsname, attr in [*tracer.METHODS, *reads]
        if attr not in getattr(importlib.import_module(modname), clsname).__dict__
    ]
    assert not missing
