"""Per-layer tracing for the splinedim benchmark, installed from outside.

`install()` wraps the public entry points of each splinedim module with a
span that counts calls and accumulates self time: the span's duration minus
the part covered by its child spans.  The package itself is not modified.

Two details decide whether every call is seen:

* Functions are replaced on every splinedim module that holds them, not only
  on the defining one, because `dimension` and `cli` bind `edge_ideal_for`,
  `vertex_ideal`, `euler_assembly` and others by name at import.
* Methods are replaced on the class (`RatMatrix.rank`, `GradedIdeal.graded_dim`,
  `LinearForm3.power`, `HomogeneousPolynomial.__mul__`, ...), so calls through
  instances and through `self` inside the package are both seen.

A wrapper's own bookkeeping runs outside its span but is charged to its
parent as child time, so no layer's self time includes tracing cost; the
cost shows only in the traced run's wall time (`cli.trace.overhead_ratio`).

`merge` and `per_layer_metrics` import nothing from splinedim; run.py uses
them to combine the dumps of a workload's traced processes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module that defines it, attribute) for plain functions.
FUNCTIONS = (
    ("ideals.edge_ideal_for", "splinedim.ideals", "edge_ideal_for"),
    ("ideals.vertex_ideal", "splinedim.ideals", "vertex_ideal"),
    ("ideals.graded_piece_matrix", "splinedim.ideals", "graded_piece_matrix"),
    ("dimension.euler_assembly", "splinedim.dimension", "euler_assembly"),
    ("dimension.exact_dimension", "splinedim.dimension", "exact_dimension"),
    ("dimension.h0_dimension", "splinedim.dimension", "h0_dimension"),
    ("dimension.lower_bound_51", "splinedim.dimension", "lower_bound_51"),
    ("dimension.lower_bound_52", "splinedim.dimension", "lower_bound_52"),
    ("dimension.upper_bound_53", "splinedim.dimension", "upper_bound_53"),
    ("mesh.validate_disk", "splinedim.mesh", "validate_disk"),
    ("mesh.vertex_ordering", "splinedim.mesh", "vertex_ordering"),
    ("mesh.load_mesh_document", "splinedim.mesh", "load_mesh_document"),
    ("refine.powell_sabin_6split", "splinedim.refine", "powell_sabin_6split"),
    ("cli.main", "splinedim.cli", "main"),
)

# (span name, module, class, method) for methods; `__rmul__` is an alias of
# `__mul__` in the class body, so both are wrapped into one span.
METHODS = (
    ("ratlinalg.rank", "splinedim.ratlinalg", "RatMatrix", "rank"),
    ("ratlinalg.rref", "splinedim.ratlinalg", "RatMatrix", "rref"),
    ("ratlinalg.kernel_basis", "splinedim.ratlinalg", "RatMatrix", "kernel_basis"),
    ("ratlinalg.matrix_init", "splinedim.ratlinalg", "RatMatrix", "__init__"),
    ("ideals.graded_dim", "splinedim.ideals", "GradedIdeal", "graded_dim"),
    ("polyring.power", "splinedim.polyring", "LinearForm3", "power"),
    ("polyring.mul", "splinedim.polyring", "HomogeneousPolynomial", "__mul__"),
    ("polyring.mul", "splinedim.polyring", "HomogeneousPolynomial", "__rmul__"),
    ("polyring.times_monomial", "splinedim.polyring", "HomogeneousPolynomial", "times_monomial"),
)

# Layers in the order the per-layer metrics are reported.
LAYERS = ("ratlinalg", "polyring", "ideals", "dimension", "mesh", "refine", "cli")
SPANS = tuple(
    sorted(
        dict.fromkeys(name for name, *_ in FUNCTIONS + METHODS),
        key=lambda name: LAYERS.index(name.split(".")[0]),
    )
)

_DERIVED = (
    ("ratlinalg.rank.nnz", "count", "lower"),
    ("ratlinalg.rank.max_rows", "count", "lower"),
    ("ratlinalg.rank.max_cols", "count", "lower"),
    ("ratlinalg.rank.max_input_bits", "bits", "lower"),
    ("ratlinalg.rref.distinct_ratio", "ratio", "higher"),
    ("ratlinalg.matrix_init.entries", "count", "lower"),
    ("ideals.edge_ideal_for.reuse_ratio", "ratio", "higher"),
    ("dimension.inconsistency.count", "count", "lower"),
    ("mesh.load_mesh_document.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.trace.overhead_ratio", "ratio", "lower"),
)
_SPAN_METRICS = tuple(
    (f"{span}.{kind}", unit, "lower")
    for span in SPANS
    if span not in ("cli.main", "mesh.load_mesh_document")
    for kind, unit in (("calls", "count"), ("self_s", "s"))
)
# Per-layer metrics, grouped by layer: (name, unit, better).
PER_LAYER = tuple(
    sorted(_SPAN_METRICS + _DERIVED, key=lambda m: LAYERS.index(m[0].split(".")[0]))
)


class Tracer:
    """Span statistics for one process: calls and self nanoseconds per span."""

    def __init__(self):
        self.spans: dict[str, list[int]] = {name: [0, 0] for name in SPANS}
        self.stack: list[int] = []  # child nanoseconds of each open span
        self.rank = {"nnz": 0, "max_rows": 0, "max_cols": 0, "max_input_bits": 0}
        self.rref_keys: set[int] = set()
        self.edge_keys: set[tuple] = set()
        self.matrix_entries = 0

    def wrap(self, name, fn, before=None, after=None):
        """`fn` inside a span; `before(args)` and `after(args)` run outside it."""
        stat = self.spans[name]
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = clock()
            if before is not None:
                before(args)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stat[0] += 1
                stat[1] += end - start - stack.pop()
                if after is not None:
                    after(args)
                if stack:
                    stack[-1] += clock() - entry

        return wrapper

    def _rank_input(self, args):
        m = args[0]
        rows = m.row_dicts()
        st = self.rank
        st["nnz"] += sum(len(row) for row in rows)
        st["max_rows"] = max(st["max_rows"], m.nrows)
        st["max_cols"] = max(st["max_cols"], m.ncols)
        bits = st["max_input_bits"]
        for row in rows:
            for v in row.values():
                b = max(v.numerator.bit_length(), v.denominator.bit_length())
                if b > bits:
                    bits = b
        st["max_input_bits"] = bits

    def _rref_input(self, args):
        m = args[0]
        key = (m.ncols, tuple(tuple(sorted(row.items())) for row in m.row_dicts()))
        self.rref_keys.add(hash(key))

    def _edge_input(self, args):
        mesh, smooth, edge = args[:3]
        self.edge_keys.add((id(mesh), id(smooth), tuple(sorted(edge))))

    def _matrix_built(self, args):
        self.matrix_entries += sum(len(row) for row in args[0].row_dicts())

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "rank": self.rank,
            "rref_distinct": len(self.rref_keys),
            "edge_ideal_distinct": len(self.edge_keys),
            "matrix_entries": self.matrix_entries,
        }


def install() -> Tracer:
    """Import splinedim, wrap its entry points, and return the live tracer."""
    tracer = Tracer()
    hooks = {
        "ratlinalg.rank": (tracer._rank_input, None),
        "ratlinalg.rref": (tracer._rref_input, None),
        "ratlinalg.matrix_init": (None, tracer._matrix_built),
        "ideals.edge_ideal_for": (tracer._edge_input, None),
    }
    for modname in ("splinedim", "splinedim.cli"):
        importlib.import_module(modname)
    modules = [m for n, m in sys.modules.items() if n == "splinedim" or n.startswith("splinedim.")]
    for name, modname, attr in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        wrapped = tracer.wrap(name, original, *hooks.get(name, (None, None)))
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    for name, modname, clsname, attr in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, *hooks.get(name, (None, None))))
    return tracer


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of several traced processes (maxima stay maxima)."""
    total = Tracer().dump()
    for dump in dumps:
        for name, (calls, ns) in dump["spans"].items():
            total["spans"][name][0] += calls
            total["spans"][name][1] += ns
        for key, value in dump["rank"].items():
            if key == "nnz":
                total["rank"][key] += value
            else:
                total["rank"][key] = max(total["rank"][key], value)
        for key in ("rref_distinct", "edge_ideal_distinct", "matrix_entries"):
            total[key] += dump[key]
    return total


def per_layer_metrics(total: dict, inconsistencies: int, overhead_ratio: float) -> dict:
    """{metric name: value} for every name in PER_LAYER."""
    spans = total["spans"]
    out: dict[str, float] = {}
    for name, (calls, ns) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = ns / 1e9
    for key, value in total["rank"].items():
        out[f"ratlinalg.rank.{key}"] = value
    rref_calls = spans["ratlinalg.rref"][0]
    edge_calls = spans["ideals.edge_ideal_for"][0]
    out["ratlinalg.rref.distinct_ratio"] = total["rref_distinct"] / rref_calls if rref_calls else 1.0
    out["ideals.edge_ideal_for.reuse_ratio"] = (
        total["edge_ideal_distinct"] / edge_calls if edge_calls else 1.0
    )
    out["ratlinalg.matrix_init.entries"] = total["matrix_entries"]
    out["dimension.inconsistency.count"] = inconsistencies
    out["cli.trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in PER_LAYER}
