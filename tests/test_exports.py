"""Tooling checks on the package's public names."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splinedim

MODULES = ["dimension", "ideals", "mesh", "polyring", "ratlinalg", "refine"]
ROOT = Path(__file__).resolve().parents[1]


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
    path = ROOT / "perfbench" / "tracer.py"
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


@pytest.mark.parametrize(
    "method, span",
    [
        ("exact", "dimension.exact_dimension"),
        ("lb51", "dimension.lower_bound_51"),
        ("lb52", "dimension.lower_bound_52"),
        ("ub53", "dimension.upper_bound_53"),
    ],
)
def test_the_benchmark_tracer_sees_each_single_method_entry_point(tmp_path, method, span):
    """The tracer rebinds module attributes, so `dim --method M` must call its
    entry point through the name `cli` imported; a reference captured at
    import (a dict of functions, say) would hide every call from the trace."""
    out = tmp_path / "trace.json"
    argv = ["dim", "--gen", "morgan-scott", "-r", "1", "-s", "2", "-d", "4", "--method", method]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(out), "cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls, _ = json.loads(out.read_text())["spans"][span]
    assert calls == 1


def _traced_calls(tmp_path, *argv):
    """Calls per span of one `splinedim ARGV` run under perfbench/traced.py."""
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(out), "cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: calls for name, (calls, _ns) in json.loads(out.read_text())["spans"].items()}


def test_a_traced_run_reaches_every_stage_the_benchmark_times(tmp_path):
    """Each span the tracer wraps must still be reached through the names the
    package calls it by; `table` builds no `GradedIdeal`, so `ideal --variant
    tilde` covers the vertex ideal and its `graded_dim`."""
    calls = _traced_calls(tmp_path, "table", "--gen", "ps6:morgan-scott", "-r", "1", "-s", "2", "-d", "3")
    stages = (
        "ideals.edge_ideal_for", "dimension.euler_assembly", "dimension.h0_dimension",
        "mesh.validate_disk", "mesh.vertex_ordering", "refine.powell_sabin_6split",
        "ratlinalg.rank", "ratlinalg.rref", "ratlinalg.kernel_basis", "ratlinalg.matrix_init",
        "ideals.graded_piece_matrix", "polyring.power", "polyring.mul",
        "polyring.times_monomial", "cli.main",
    )
    assert [name for name in stages if not calls.get(name)] == []
    calls = _traced_calls(
        tmp_path, "ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2",
        "--vertex", "3", "--variant", "tilde", "-d", "4",
    )
    stages = ("ideals.vertex_ideal", "ideals.graded_dim", "mesh.vertex_ordering")
    assert [name for name in stages if not calls.get(name)] == []
