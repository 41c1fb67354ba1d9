"""Tooling checks on the package's public names."""

import ast
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import splinedim
from splinedim import ratlinalg
from splinedim.cli import builtin_mesh, main
from splinedim.dimension import EdgePieces, euler_assembly, star_smoothness_spec
from splinedim.mesh import SmoothnessSpec, mesh_to_json
from splinedim.refine import morgan_scott_mesh, powell_sabin_6split

MODULES = ["dimension", "ideals", "mesh", "polyring", "ratlinalg", "refine"]
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splinedim"


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


@pytest.mark.parametrize("name", sorted({p.name for p in PACKAGE.glob("*.py")} - {"__init__.py"}))
def test_every_imported_name_is_read_in_its_module(name):
    """An import nothing reads is dead code; `__init__.py` is exempt, since
    its imports are the package's re-exports."""
    tree = ast.parse((PACKAGE / name).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


@pytest.mark.parametrize(
    "name", sorted({p.name for p in PACKAGE.glob("*.py")} - {"mesh.py", "refine.py"})
)
def test_only_mesh_json_and_refinement_modules_import_fractions(name):
    """Rationals are data only: mesh coordinates and JSON numbers (`mesh`)
    and the new points of a refinement (`refine`).  Every other module
    computes with integers, on the mesh's integer homogeneous points."""
    tree = ast.parse((PACKAGE / name).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert "fractions" not in modules


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    """Every benchmark job is a fresh process, so the CLI's import is paid
    per job: its records are named tuples, and nothing it imports pulls in
    `dataclasses`, or `inspect` and the modules that come with it."""
    code = "import sys, splinedim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _read_names(tree):
    """The variable and attribute names a module's code reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_function_and_method_in_the_package_is_used():
    """A def nothing reads is dead surface.  Each function or method defined
    in the package must be read by some package module, be in its module's
    `__all__`, be a dunder, override a base-class method (argparse's
    `error`), or be named in perfbench/tracer.py, which wraps and reads
    package methods by name (`RatMatrix.row_dicts`)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    read = set().union(*map(_read_names, trees.values()))
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    read |= _read_names(tracer) | {
        node.value for node in ast.walk(tracer)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    unused = []
    for stem, tree in trees.items():
        module = importlib.import_module("splinedim" if stem == "__init__" else f"splinedim.{stem}")
        owner = {
            item: getattr(module, node.name)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name, cls = node.name, owner.get(node)
            if (
                name in read
                or name in getattr(module, "__all__", ())
                or name.startswith("__") and name.endswith("__")
                or cls is not None and any(hasattr(base, name) for base in cls.__mro__[1:])
            ):
                continue
            unused.append(f"{stem}.{cls.__name__ + '.' if cls else ''}{name}")
    assert unused == []


# Paper results that no pipeline or CLI path reads yet, each pinned against
# the kernel oracle by tests/test_acceptance.py
PAPER_RESULTS = {
    "argyris_dim": "the degree-(4r+1) dimension with supersmoothness 2r at every vertex",
    "intrinsic_supersmoothness_order": "the supersmoothness every C^r spline has at a star's center",
}


def test_every_public_name_is_used_or_a_pinned_paper_result():
    """Public surface that nothing uses is dead surface.  Each name in a
    module's `__all__` must be read by package code (the `__all__` entry
    and the package re-export are not reads), or be read, imported or
    named in a string by perfbench/*.py, or be one of PAPER_RESULTS, each
    of which tests/test_acceptance.py reads and nothing else does."""
    read = set().union(*(_read_names(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")))
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        read |= _read_names(tree) | {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        } | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for stem in MODULES for name in importlib.import_module(f"splinedim.{stem}").__all__}
    assert sorted(public - read) == sorted(PAPER_RESULTS)
    acceptance = _read_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    assert set(PAPER_RESULTS) <= acceptance


def _is_public(name):
    return not name.startswith("_") or name.startswith("__") and name.endswith("__")


def test_no_public_function_takes_a_parameter_of_a_private_class():
    """A private class in a public signature lets a caller hand in data that
    no public check guards: a per-degree entry point once took its degree's
    private system as an argument and answered for whatever it was given.
    Each public function, and each public method of a public class, must
    annotate its parameters with public types only."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    private = {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.startswith("_")
    }
    assert private  # the check has something to find
    found = []
    for stem, tree in trees.items():
        public = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        public += [
            (f"{cls.name}.{node.name}", node)
            for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_public(cls.name)
            for node in cls.body if isinstance(node, ast.FunctionDef)
        ]
        for name, node in public:
            if not _is_public(node.name):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            for param in params:
                ann = param and param.annotation
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    ann = ast.parse(ann.value, mode="eval")
                named = {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(ann or ast.Pass())
                    if isinstance(n, (ast.Name, ast.Attribute))
                }
                found += [f"{stem}.{name}({param.arg}: {cls})" for cls in sorted(named & private)]
    assert found == []


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
    tilde` covers the vertex ideal and its `graded_dim`.  No command calls
    `kernel_basis`: the kernel oracle reads its functionals off reduced
    rows (`reduced_kernel`), with no elimination.  No command calls
    `times_monomial` or the checked `RatMatrix` constructor either: graded
    pieces are laid out from their generators' terms, and every matrix the
    package builds holds int rows it built (`RatMatrix._of_int_rows`)."""
    unreached = ("ratlinalg.kernel_basis", "ratlinalg.matrix_init", "polyring.times_monomial")
    calls = _traced_calls(tmp_path, "table", "--gen", "ps6:morgan-scott", "-r", "1", "-s", "2", "-d", "3")
    stages = (
        "ideals.edge_ideal_for", "dimension.euler_assembly", "dimension.h0_dimension",
        "mesh.validate_disk", "mesh.vertex_ordering", "refine.powell_sabin_6split",
        "ratlinalg.rank", "ratlinalg.rref", "ideals.graded_piece_matrix",
        "polyring.power", "polyring.mul", "cli.main",
    )
    assert [name for name in stages if not calls.get(name)] == []
    assert [name for name in unreached if calls.get(name)] == []
    calls = _traced_calls(
        tmp_path, "ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2",
        "--vertex", "3", "--variant", "tilde", "-d", "4",
    )
    stages = ("ideals.vertex_ideal", "ideals.graded_dim", "mesh.vertex_ordering")
    assert [name for name in stages if not calls.get(name)] == []
    assert [name for name in unreached if calls.get(name)] == []


def test_every_rank_elimination_runs_inside_ratmatrix_rank(monkeypatch):
    """Every forward pass runs inside a named `RatMatrix` method, where the
    benchmark can time it; one started anywhere else would hide its time.
    Each call eliminates once.  At ps6-ms (2,3) d=5, h0 = 0, so the modular
    pass (`rank_mod`) proves it and h0 ranks nothing: a report ranks the
    kernel system, and takes leading columns of it and of each forest
    edge's row selection.  Each interior vertex's full and tilde stacks
    grow through one seeded pass (`extend_echelon`) per degree 0..5."""
    open_spans, calls, seen_in = [], {}, []
    forward = ratlinalg._echelon_rows

    def span(name):
        method = getattr(ratlinalg.RatMatrix, name)

        def wrapper(self, *args):
            calls.setdefault(name, []).append(self)  # kept alive, so ids are not reused
            open_spans.append(name)
            try:
                return method(self, *args)
            finally:
                open_spans.pop()

        return wrapper

    def counted_forward(*args):
        seen_in.append(tuple(open_spans))
        return forward(*args)

    for name in ("rank", "leading_columns", "rank_mod", "rref", "extend_echelon"):
        monkeypatch.setattr(ratlinalg.RatMatrix, name, span(name))
    monkeypatch.setattr(ratlinalg, "_echelon_rows", counted_forward)
    split = powell_sabin_6split(morgan_scott_mesh(), 2, 3)
    assert euler_assembly(split.refined, split.spec, 5).h0 == 0
    vertices = len(split.refined.interior_vertices)
    rrefs = len({id(m) for m in calls["rref"]})
    seeded = 2 * vertices * (5 + 1)  # full and tilde, degrees 0..5
    assert Counter(spans[-1] if spans else None for spans in seen_in) == {
        "leading_columns": vertices + 1, "rref": rrefs, "extend_echelon": seeded,
    }
    assert sum("rank" in spans for spans in seen_in) == 1
    assert {name: len(mats) for name, mats in calls.items()} == {
        "rank": 1, "leading_columns": vertices + 1, "rank_mod": 1, "rref": rrefs,
        "extend_echelon": seeded,
    }


@pytest.mark.parametrize(
    "spec, top, stacked",
    [(star_smoothness_spec, 1176, 6360), (SmoothnessSpec.uniform, 1128, 5928)],
)
def test_a_table_feeds_each_top_edge_row_once_to_each_variants_stack(
    monkeypatch, tmp_path, spec, top, stacked
):
    """The star's one interior vertex grows its full and its tilde stack
    over the degrees 0..20 of `table --degrees 12:20`, and every top edge
    row enters each stack's seeded passes once: sum_e dim J(e)_20 rows per
    variant.  Stacked afresh at each degree 12..20, as before the stacks
    were grown, they took the sum over those degrees.  With s = 6 at the
    center only (the benchmark's star8) that is 1176 against 6360; with
    s = 6 at every vertex (`--gen star:8-generic -r 3 -s 6`), 1128
    against 5928."""
    fed = []
    extend = ratlinalg.RatMatrix.extend_echelon

    def counted(self, seed, limit=None):
        fed.append(self.nrows)
        return extend(self, seed, limit)

    monkeypatch.setattr(ratlinalg.RatMatrix, "extend_echelon", counted)
    mesh = builtin_mesh("star:8-generic")
    smooth = spec(mesh, 3, 6)
    path = tmp_path / "star8.json"
    path.write_text(json.dumps(mesh_to_json(mesh, smooth)))
    argv = ["table", "--mesh", str(path), "--degrees", "12:20"]
    assert main(argv, out=io.StringIO()) == 0
    pieces = EdgePieces(mesh, smooth, 20)
    per_degree = [sum(map(len, pieces.system(d).bases.values())) for d in range(12, 21)]
    assert (sum(fed), per_degree[-1], sum(per_degree)) == (2 * top, top, stacked)


def test_every_echelon_elimination_runs_inside_ratmatrix_rref(monkeypatch):
    """The benchmark times echelon eliminations, the edge pieces', through
    its `RatMatrix.rref` span.  Each matrix eliminates once, the forest
    edges' functionals are read off their bases with no elimination, and
    the full stacks and the row selections, read only for their leading
    columns, never run the back-substitution."""
    open_rrefs, matrices, inside = [], [], []
    rref, forward = ratlinalg.RatMatrix.rref, ratlinalg._echelon_rows

    def counted_rref(self):
        matrices.append(self)  # kept alive, so ids are not reused
        open_rrefs.append(self)
        try:
            return rref(self)
        finally:
            open_rrefs.pop()

    def counted_forward(*args):
        if open_rrefs:
            inside.append(open_rrefs[-1])
        return forward(*args)

    monkeypatch.setattr(ratlinalg.RatMatrix, "rref", counted_rref)
    monkeypatch.setattr(ratlinalg, "_echelon_rows", counted_forward)
    split = powell_sabin_6split(morgan_scott_mesh(), 2, 3)
    mesh = split.refined
    euler_assembly(mesh, split.spec, 5)
    # one per interior edge piece
    stacks = len(mesh.interior_edges)
    assert len(inside) == len(matrices) == len({id(m) for m in matrices}) == stacks
    # a command echelonizes each edge piece once, at its top degree, and
    # reads the lower degrees off it
    matrices.clear()
    inside.clear()
    argv = ["table", "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3", "--degrees", "4:6", "--check"]
    assert main(argv, out=io.StringIO()) == 0
    assert len(inside) == len(matrices) == len({id(m) for m in matrices}) == stacks
