"""Command-line surface: dimension tables, ideal dumps, mesh generators.

Exit codes: 0 success, 1 invalid input or arguments, 2 internal
inconsistency (the Euler identity cross-check failed, which means a bug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .dimension import (
    InternalInconsistencyError,
    OutOfRangeError,
    euler_assembly,
    exact_dimension,
    lower_bound_51,
    lower_bound_52,
    ps_dim_general,
    schumaker_dim,
    star_smoothness_spec,
    upper_bound_53,
    vertex_star_dim,
)
from .ideals import EdgeIdealSpec, edge_ideal, edge_ideal_for, vertex_ideal
from .mesh import (
    Mesh,
    MeshError,
    OrderingNotFoundError,
    SmoothnessSpec,
    load_mesh_document,
    mesh_to_json,
    validate_disk,
    vertex_ordering,
)
from .polyring import LinearForm3
from .refine import make_vertex_star, morgan_scott_mesh, powell_sabin_6split

DEGREE_GUARD = 30

STAR_DIRECTIONS = {
    3: [(1, 0), (-1, 2), (-1, -3)],
    4: [(1, 0), (0, 1), (-2, 1), (-1, -3)],
    5: [(1, 0), (1, 1), (-1, 2), (-2, -1), (1, -2)],
    6: [(1, 0), (2, 3), (-1, 2), (-2, 1), (-1, -2), (2, -3)],
    7: [(1, 0), (2, 3), (-1, 2), (-2, 1), (-1, -1), (-1, -2), (2, -3)],
    8: [(1, 0), (2, 3), (1, 3), (-1, 2), (-2, 1), (-1, -1), (-1, -2), (2, -3)],
}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def builtin_mesh(name: str) -> Mesh:
    if name == "triangle":
        return Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    if name in ("two-triangles", "argyris-demo"):
        return Mesh([(0, 0), (3, 0), (3, 3), (0, 3)], [(0, 1, 2), (0, 2, 3)])
    if name == "morgan-scott":
        return morgan_scott_mesh()
    if name == "star:cross":
        return make_vertex_star([(1, 0), (0, 1), (-1, 0), (0, -1)])
    if name.startswith("star:") and name.endswith("-generic"):
        try:
            t = int(name[len("star:") : -len("-generic")])
            dirs = STAR_DIRECTIONS[t]
        except (ValueError, KeyError):
            raise CliError(
                f"unknown star generator {name!r}; supported: star:3-generic "
                f"through star:8-generic and star:cross"
            )
        return make_vertex_star(dirs, generic_radius_perturbation=True)
    raise CliError(f"unknown generator {name!r}")


def resolve_source(
    args, need_spec: bool = True
) -> tuple[Mesh, SmoothnessSpec | None, Mesh | None]:
    """(mesh, smoothness spec, original mesh when the source is a 6-split)."""
    if getattr(args, "gen", None) and getattr(args, "mesh", None):
        raise CliError("give either --gen or --mesh, not both")
    if getattr(args, "gen", None):
        name = args.gen
        if name.startswith("ps6:"):
            base = builtin_mesh(name[len("ps6:") :])
            if args.r is None or args.s is None:
                raise CliError("ps6 generators need -r and -s")
            res = powell_sabin_6split(base, args.r, args.s)
            return res.refined, res.spec, base
        mesh = builtin_mesh(name)
        return mesh, _uniform_spec(mesh, args, need_spec), None
    if getattr(args, "mesh", None):
        mesh, spec = load_mesh_document(
            Path(args.mesh), fallback_r=args.r, fallback_s=args.s
        )
        if spec is None:
            spec = _uniform_spec(mesh, args, need_spec)
        return mesh, spec, None
    raise CliError("a mesh source is required (--gen NAME or --mesh FILE)")


def _uniform_spec(mesh: Mesh, args, need_spec: bool) -> SmoothnessSpec | None:
    if args.r is None:
        if need_spec:
            raise CliError("-r is required for this source")
        return None
    return SmoothnessSpec.uniform(mesh, args.r, args.s)


def _int_list(flag: str, text: str, sep: str, form: str, sizes: tuple[int, ...]) -> list[int]:
    """`text` split at `sep` into integers; the count must be in `sizes`."""
    parts = text.split(sep)
    if len(parts) in sizes:
        try:
            return [int(x) for x in parts]
        except ValueError:
            pass
    raise CliError(f"{flag} expects {form}, got {text!r}")


def parse_degrees(args) -> list[int]:
    if getattr(args, "degrees", None):
        if getattr(args, "d", None) is not None:
            raise CliError("give either -d or --degrees, not both")
        text = args.degrees
        bounds = _int_list("--degrees", text, ":", "A or A:B", (1, 2))
        degrees = list(range(bounds[0], bounds[-1] + 1))
        if not degrees:
            raise CliError(f"degree range {text} is empty (need A <= B)")
    elif getattr(args, "d", None) is not None:
        degrees = [args.d]
    else:
        raise CliError("a degree is required (-d D or --degrees A:B)")
    if any(d < 0 for d in degrees):
        raise CliError("degrees must be non-negative")
    if max(degrees) > DEGREE_GUARD and not args.allow_large:
        raise CliError(
            f"degree {max(degrees)} exceeds the guard ({DEGREE_GUARD}); "
            f"pass --allow-large to proceed"
        )
    return degrees


def _star_orders(mesh: Mesh, spec: SmoothnessSpec) -> tuple[int, int] | None:
    """(r, s) when a star's spec is `star_smoothness_spec(mesh, r, s)`, else None."""
    (center,) = mesh.interior_vertices
    r, s = next(iter(spec.r.values())), spec.s[center]
    star = star_smoothness_spec(mesh, r, s)
    return (r, s) if (star.r, star.s) == (spec.r, spec.s) else None


def _formula_value(mesh, spec, original, args, d) -> tuple[int, str]:
    if original is not None:
        # 6-split source: closed form on the original mesh when in range
        try:
            return ps_dim_general(original, args.r, args.s, d), "formula"
        except OutOfRangeError:
            return exact_dimension(mesh, spec, d), "oracle"
    if len(mesh.interior_vertices) == 1:
        # the star closed forms assume supersmoothness at the center only
        orders = _star_orders(mesh, spec)
        if orders is not None:
            r, s = orders
            if s == r:
                return schumaker_dim(mesh, r, d), "formula"
            try:
                return vertex_star_dim(mesh, r, s, d), "formula"
            except OutOfRangeError:
                pass
        return exact_dimension(mesh, spec, d), "oracle"
    raise CliError("no closed formula applies to this configuration")


# report field behind each bound and dimension column
_REPORT_FIELDS = {"exact": "exact", "lb51": "lb_51", "lb52": "lb_52", "ub53": "ub_53"}


def compute_rows(mesh, spec, original, args, degrees) -> list[dict]:
    # built per call, so a rebound module name (the benchmark tracer's) is seen
    single = dict(
        exact=exact_dimension, lb51=lower_bound_51, lb52=lower_bound_52, ub53=upper_bound_53
    )
    rows = []
    for d in degrees:
        if args.method == "all":
            rep = euler_assembly(mesh, spec, d)
            rows.append(
                {
                    "d": d,
                    "h0": rep.h0_dim,
                    **{column: getattr(rep, field) for column, field in _REPORT_FIELDS.items()},
                    "method": "exact",
                    # the Euler terms, which only the JSON output prints
                    **{k: v for k, v in vars(rep).items() if k.startswith("term_")},
                }
            )
        elif args.method == "formula":
            value, how = _formula_value(mesh, spec, original, args, d)
            rows.append({"d": d, "exact": value, "method": how})
        else:
            value = single[args.method](mesh, spec, d)
            rows.append({"d": d, args.method: value, "method": args.method})
    return rows


COLUMNS = ["d", "h0", "lb52", "lb51", "ub53", "exact", "method"]


def emit_rows(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps({"rows": rows}, sort_keys=True), file=out)
        return
    if fmt == "csv":
        print(",".join(COLUMNS), file=out)
        for row in rows:
            print(",".join(str(row.get(c, "")) for c in COLUMNS), file=out)
        return
    widths = {c: max(len(c), max((len(str(r.get(c, ""))) for r in rows), default=0)) for c in COLUMNS}
    print("  ".join(c.rjust(widths[c]) for c in COLUMNS), file=out)
    for row in rows:
        print("  ".join(str(row.get(c, "")).rjust(widths[c]) for c in COLUMNS), file=out)


def check_rows(rows, mesh, spec) -> None:
    """Check the bound sandwich on full rows, and every other row's value
    against the Euler assembly at its degree (formula and oracle rows
    against its exact dimension)."""
    for row in rows:
        if {"lb52", "lb51", "exact", "ub53"} <= set(row):
            if not row["lb52"] <= row["lb51"] <= row["exact"] <= row["ub53"]:
                raise InternalInconsistencyError(
                    f"bound sandwich violated at degree {row['d']}: {row}"
                )
            continue
        (column,) = set(row) & set(_REPORT_FIELDS)
        expected = getattr(euler_assembly(mesh, spec, row["d"]), _REPORT_FIELDS[column])
        if row[column] != expected:
            raise InternalInconsistencyError(
                f"{row['method']} gives {column} = {row[column]} at degree {row['d']} "
                f"but the Euler assembly gives {expected}"
            )


def run_dim(args, out) -> int:
    mesh, spec, original = resolve_source(args)
    degrees = parse_degrees(args)
    rows = compute_rows(mesh, spec, original, args, degrees)
    if args.check:
        check_rows(rows, mesh, spec)
    emit_rows(rows, args.format, out)
    return 0


def run_table(args, out) -> int:
    args.method = "all"
    return run_dim(args, out)


def run_ideal(args, out) -> int:
    degrees = parse_degrees(args)
    if sum((args.edge is not None, args.vertex is not None, args.canonical)) > 1:
        raise CliError("give only one of --edge, --vertex and --canonical")
    if args.canonical:
        if args.r is None or args.s is None:
            raise CliError("--canonical needs -r and -s")
        s2 = args.s2 if args.s2 is not None else args.s
        ideal = edge_ideal(
            EdgeIdealSpec(
                LinearForm3(1, 0, 0),
                LinearForm3(0, 1, 0),
                LinearForm3(0, 0, 1),
                args.r,
                args.s,
                s2,
            )
        )
        label = f"canonical edge ideal (r={args.r}, s=({args.s}, {s2}))"
    else:
        mesh, spec, _ = resolve_source(args)
        if args.edge:
            i, j = _int_list("--edge", args.edge, ",", "I,J (two vertex indices)", (2,))
            ideal = edge_ideal_for(mesh, spec, (i, j))
            label = f"edge ideal J({(i, j)})"
        elif args.vertex is not None:
            ordering = vertex_ordering(mesh) if args.variant == "tilde" else None
            ideal = vertex_ideal(mesh, spec, args.vertex, args.variant, ordering)
            label = f"vertex ideal ({args.variant}) at {args.vertex}"
        else:
            raise CliError("select --edge I,J or --vertex V or --canonical")
    dims = {d: ideal.graded_dim(d) for d in degrees}
    if args.format == "json":
        print(
            json.dumps(
                {"ideal": ideal.to_json(), "dims": dims, "label": label},
                sort_keys=True,
            ),
            file=out,
        )
    else:
        print(label, file=out)
        for g in ideal.generators:
            print(f"  {g!r}", file=out)
        for d in degrees:
            print(f"  dim at degree {d}: {dims[d]}", file=out)
    return 0


def run_refine(args, out) -> int:
    if args.r is None or args.s is None:
        raise CliError("refine needs -r and -s")
    if args.gen and args.gen.startswith("ps6:"):
        raise CliError("refine applies the 6-split itself; give a base mesh")
    mesh, _, _ = resolve_source(args, need_spec=False)
    res = powell_sabin_6split(mesh, args.r, args.s)
    print(json.dumps(mesh_to_json(res.refined, res.spec), sort_keys=True), file=out)
    return 0


def run_gen(args, out) -> int:
    mesh, spec, _ = resolve_source(args, need_spec=False)
    print(json.dumps(mesh_to_json(mesh, spec), sort_keys=True), file=out)
    return 0


def run_validate(args, out) -> int:
    mesh, _, _ = resolve_source(args, need_spec=False)
    report = validate_disk(mesh)
    counts = mesh.face_counts()
    summary = {"ok": report.ok, "failures": list(report.failures), **dataclasses.asdict(counts)}
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True), file=out)
    else:
        status = "valid disk" if report.ok else "INVALID: " + ", ".join(report.failures)
        print(
            f"{status} (f0={counts.f0}, f1={counts.f1}, f2={counts.f2}, "
            f"f0°={counts.f0_interior}, f1°={counts.f1_interior})",
            file=out,
        )
    return 0 if report.ok else 1


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", help="mesh JSON file")
    p.add_argument("--gen", help="builtin generator (e.g. ps6:morgan-scott)")
    p.add_argument("-r", type=int, default=None, help="edge smoothness order")
    p.add_argument("-s", type=int, default=None, help="vertex supersmoothness order")


def _add_degree_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-d", type=int, default=None, help="single degree (not with --degrees)")
    p.add_argument("--degrees", help="degree A or range A:B (inclusive)")
    p.add_argument("--allow-large", action="store_true", help="lift the d<=30 guard")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splinedim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension/bounds at one or more degrees")
    _add_source_args(p)
    _add_degree_args(p)
    p.add_argument(
        "--method",
        default="all",
        choices=["exact", "lb51", "lb52", "ub53", "formula", "all"],
    )
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--check", action="store_true", help="cross-check rows (see README)")
    p.set_defaults(func=run_dim)

    p = sub.add_parser("table", help="full report over a degree range")
    _add_source_args(p)
    _add_degree_args(p)
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=run_table)

    p = sub.add_parser("ideal", help="dump an edge or vertex ideal")
    _add_source_args(p)
    _add_degree_args(p)
    p.add_argument("--edge", help="interior edge as I,J (vertex indices)")
    p.add_argument("--vertex", type=int, help="interior vertex index")
    p.add_argument("--variant", default="full", choices=["full", "bar", "tilde"])
    p.add_argument("--canonical", action="store_true", help="canonical-frame edge ideal")
    p.add_argument("--s2", type=int, default=None, help="second endpoint order (canonical)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=run_ideal)

    p = sub.add_parser("refine", help="Powell-Sabin 6-split of a mesh")
    _add_source_args(p)
    p.set_defaults(func=run_refine)

    p = sub.add_parser("gen", help="emit a builtin mesh as JSON")
    _add_source_args(p)
    p.set_defaults(func=run_gen)

    p = sub.add_parser("validate", help="check the disk hypotheses")
    _add_source_args(p)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=run_validate)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (CliError, MeshError, OrderingNotFoundError, OutOfRangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
