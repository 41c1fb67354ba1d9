"""Planar triangulation representation, validation, combinatorics, and IO.

A mesh is an embedded planar simplicial complex with exact rational vertex
coordinates.  Triangles are normalized to counterclockwise orientation at
load time; edges, adjacency, and interior/boundary classification are
derived once and cached.  Meshes are immutable after construction and all
queries are pure.

Only `int` and `Fraction` coordinates are accepted, floats deliberately not:
every downstream dimension count is an exact-zero decision on coordinates.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

from .ratlinalg import primitive_int_vector, rational_from_str, rational_to_str

Point = tuple[Fraction, Fraction]
Edge = tuple[int, int]

__all__ = [
    "Edge",
    "FaceCounts",
    "Mesh",
    "MeshError",
    "OrderingNotFoundError",
    "Point",
    "SmoothnessSpec",
    "DiskReport",
    "direction_key",
    "distinct_slopes_at",
    "load_mesh_document",
    "mesh_to_json",
    "parse_mesh_json",
    "predecessors",
    "validate_disk",
    "verify_vertex_ordering",
    "vertex_ordering",
]


class MeshError(ValueError):
    """Structural load/validation error (degenerate, non-manifold, ...)."""


class OrderingNotFoundError(RuntimeError):
    """No admissible vertex ordering was found (should not occur for disks)."""


@dataclass(frozen=True)
class FaceCounts:
    f0: int
    f1: int
    f2: int
    f0_interior: int
    f1_interior: int


def _require_int(field: str, value, kind: str = "JSON integers") -> int:
    """`value` if it is an `int`; a float, bool, Fraction or string raises."""
    if type(value) is not int:
        raise MeshError(f"{field} must hold {kind}, got {value!r}")
    return value


def _rational(value) -> Fraction:
    """`value` as a Fraction if it is an `int` or a `Fraction`, else MeshError."""
    if type(value) not in (int, Fraction):
        raise MeshError(f"vertex coordinates must be ints or Fractions, got {value!r}")
    return Fraction(value)


def _orient_ccw(pts: Sequence[Point], tri: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = (pts[i] for i in tri)
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if cross == 0:
        raise MeshError(f"degenerate (zero area) triangle {tri}")
    if cross < 0:
        tri = (tri[0], tri[2], tri[1])
    # canonical rotation: smallest index first, orientation preserved
    i = tri.index(min(tri))
    return (tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3])


class Mesh:
    """An immutable validated planar triangulation."""

    __slots__ = (
        "vertices",
        "triangles",
        "edges",
        "edge_triangles",
        "boundary_edges",
        "interior_edges",
        "boundary_vertices",
        "interior_vertices",
        "vertex_triangles",
        "vertex_neighbors",
    )

    def __init__(
        self,
        vertices: Iterable[Point],
        triangles: Iterable[Sequence[int]],
    ):
        pts = tuple((_rational(x), _rational(y)) for x, y in vertices)
        if len(set(pts)) != len(pts):
            raise MeshError("duplicate vertices")
        tris = []
        for tri in triangles:
            tri = tuple(_require_int("triangles", i, "integers") for i in tri)
            if len(set(tri)) != 3:
                raise MeshError(f"triangle {tri} repeats a vertex")
            if any(not 0 <= i < len(pts) for i in tri):
                raise MeshError(f"triangle {tri} has a vertex index out of range")
            tris.append(_orient_ccw(pts, tri))
        if len({frozenset(t) for t in tris}) != len(tris):
            raise MeshError("duplicate triangles")

        edge_tris: dict[Edge, list[int]] = {}
        for t, tri in enumerate(tris):
            for k in range(3):
                e = tuple(sorted((tri[k], tri[(k + 1) % 3])))
                edge_tris.setdefault(e, []).append(t)
        for e, ts in edge_tris.items():
            if len(ts) > 2:
                raise MeshError(f"non-manifold edge {e} shared by {len(ts)} triangles")

        used = {i for tri in tris for i in tri}
        if used != set(range(len(pts))):
            raise MeshError("dangling vertex (not contained in any triangle)")

        self.vertices = pts
        self.triangles = tuple(tris)
        self.edges = tuple(sorted(edge_tris))
        self.edge_triangles = {e: tuple(ts) for e, ts in edge_tris.items()}
        self.boundary_edges = frozenset(
            e for e, ts in edge_tris.items() if len(ts) == 1
        )
        self.interior_edges = frozenset(
            e for e, ts in edge_tris.items() if len(ts) == 2
        )
        self.boundary_vertices = frozenset(
            v for e in self.boundary_edges for v in e
        )
        self.interior_vertices = frozenset(range(len(pts))) - self.boundary_vertices
        vt: dict[int, list[int]] = {v: [] for v in range(len(pts))}
        for t, tri in enumerate(tris):
            for v in tri:
                vt[v].append(t)
        self.vertex_triangles = {v: tuple(ts) for v, ts in vt.items()}
        nb: dict[int, set[int]] = {v: set() for v in range(len(pts))}
        for a, b in self.edges:
            nb[a].add(b)
            nb[b].add(a)
        self.vertex_neighbors = {v: tuple(sorted(s)) for v, s in nb.items()}

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def face_counts(self) -> FaceCounts:
        return FaceCounts(
            f0=len(self.vertices),
            f1=len(self.edges),
            f2=len(self.triangles),
            f0_interior=len(self.interior_vertices),
            f1_interior=len(self.interior_edges),
        )

    def is_interior_vertex(self, v: int) -> bool:
        return v in self.interior_vertices

    def edges_at_vertex(self, v: int) -> list[Edge]:
        return [tuple(sorted((v, w))) for w in self.vertex_neighbors[v]]

    def interior_edges_at_vertex(self, v: int) -> list[Edge]:
        return [e for e in self.edges_at_vertex(v) if e in self.interior_edges]

    def __repr__(self) -> str:
        c = self.face_counts()
        return f"Mesh(f0={c.f0}, f1={c.f1}, f2={c.f2})"


class SmoothnessSpec:
    """Per-edge smoothness orders and per-vertex supersmoothness orders.

    `r` is defined on exactly the interior edges, `s` on all vertices; all
    orders are >= 0.  Where an edge order exceeds an endpoint's vertex
    order, the endpoint's *effective* supersmoothness on that edge is the
    edge order itself (the edge ideal absorbs the weaker vertex factor), so
    supersmoothness never acts below edge smoothness inside any ideal.
    """

    __slots__ = ("r", "s")

    def __init__(self, mesh: Mesh, r: Mapping[Edge, int], s: Mapping[int, int]):
        for x in (*(i for e in r for i in e), *r.values(), *s, *s.values()):
            _require_int("smoothness indices and orders", x, "integers")
        r = {tuple(sorted(e)): k for e, k in r.items()}
        if set(r) != set(mesh.interior_edges):
            raise MeshError("edge smoothness must cover exactly the interior edges")
        if set(s) != set(range(mesh.num_vertices)):
            raise MeshError("vertex supersmoothness must cover all vertices")
        if any(k < 0 for k in r.values()) or any(k < 0 for k in s.values()):
            raise MeshError("smoothness orders must be non-negative")
        self.r = r
        self.s = dict(s)

    @classmethod
    def uniform(cls, mesh: Mesh, r: int, s: int | None = None) -> "SmoothnessSpec":
        if s is None:
            s = r
        return cls(
            mesh,
            {e: r for e in mesh.interior_edges},
            {v: s for v in range(mesh.num_vertices)},
        )

    def effective_s(self, vertex: int, edge: Edge) -> int:
        return max(self.s[vertex], self.r[tuple(sorted(edge))])

    def max_s(self) -> int:
        return max(self.s.values()) if self.s else 0


def parse_mesh_json(data: dict) -> Mesh:
    try:
        vertices = [
            (rational_from_str(str(x)), rational_from_str(str(y)))
            for x, y in data["vertices"]
        ]
        triangles = [[_require_int("triangles", i) for i in tri] for tri in data["triangles"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"malformed mesh document: {exc}") from exc
    return Mesh(vertices, triangles)


def _entries(block: dict, field: str, size: int, form: str):
    """Yield each `field` entry of a smoothness block as `size` JSON integers."""
    entries = block.get(field, [])
    if not isinstance(entries, list) or not all(isinstance(entry, list) for entry in entries):
        raise MeshError(f"{field} must be a list of {form} entries, got {entries!r}")
    for entry in entries:
        values = tuple(_require_int(field, x) for x in entry)
        if len(values) != size:
            raise MeshError(f"{field} entries must be {form}, got {entry!r}")
        yield values


def parse_smoothness_json(
    mesh: Mesh,
    block: dict | None,
    fallback_r: int | None = None,
    fallback_s: int | None = None,
) -> SmoothnessSpec | None:
    """Assemble the smoothness spec from the optional JSON block.

    Explicit edge_r / vertex_s entries override default_r / default_s; CLI
    flags supply the fallbacks when the block omits defaults.  Only a
    missing (None) block is absent.  Returns None when nothing at all is
    specified.
    """
    block = {} if block is None else block
    if not isinstance(block, dict):
        raise MeshError(f"smoothness must be a JSON object, got {block!r}")
    default_r = block.get("default_r", fallback_r)
    default_s = block.get("default_s", fallback_s)
    if default_s is None:
        default_s = default_r
    if default_r is None:
        if not block:
            return None
        raise MeshError("smoothness block present but no default_r / -r given")
    default_r = _require_int("default_r", default_r)
    default_s = _require_int("default_s", default_s)
    r = {e: default_r for e in mesh.interior_edges}
    for i, j, k in _entries(block, "edge_r", 3, "[i, j, r]"):
        e = tuple(sorted((i, j)))
        if e not in mesh.interior_edges:
            raise MeshError(f"edge_r entry {e} is not an interior edge")
        r[e] = k
    s = {v: default_s for v in range(mesh.num_vertices)}
    for i, k in _entries(block, "vertex_s", 2, "[v, s]"):
        if not 0 <= i < mesh.num_vertices:
            raise MeshError(f"vertex_s entry {i} out of range")
        s[i] = k
    return SmoothnessSpec(mesh, r, s)


def load_mesh_document(
    source: str | Path,
    fallback_r: int | None = None,
    fallback_s: int | None = None,
) -> tuple[Mesh, SmoothnessSpec | None]:
    """Load a mesh and its smoothness spec from a JSON file path or text.

    The spec is None when neither the document nor the fallbacks give one.
    """
    text = source
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        text = Path(source).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeshError(f"mesh document is not valid JSON: {exc}") from exc
    mesh = parse_mesh_json(data)
    spec = parse_smoothness_json(mesh, data.get("smoothness"), fallback_r, fallback_s)
    return mesh, spec


def mesh_to_json(mesh: Mesh, spec: SmoothnessSpec | None = None) -> dict:
    """Mesh (and optional smoothness spec) in the canonical JSON schema."""
    data: dict = {
        "vertices": [
            [rational_to_str(x), rational_to_str(y)] for x, y in mesh.vertices
        ],
        "triangles": [list(t) for t in mesh.triangles],
    }
    if spec is not None:
        r_values = sorted(spec.r.values())
        default_r = r_values[len(r_values) // 2] if r_values else 0
        s_values = sorted(spec.s.values())
        default_s = s_values[len(s_values) // 2]
        data["smoothness"] = {
            "default_r": default_r,
            "default_s": default_s,
            "edge_r": [
                [e[0], e[1], k] for e, k in sorted(spec.r.items()) if k != default_r
            ],
            "vertex_s": [
                [v, k] for v, k in sorted(spec.s.items()) if k != default_s
            ],
        }
    return data


@dataclass(frozen=True)
class DiskReport:
    ok: bool
    failures: tuple[str, ...]


def _connected(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether the graph on `nodes` with edges `pairs` is non-empty and connected."""
    adj: dict[int, list[int]] = {u: [] for u in nodes}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    if not adj:
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


def validate_disk(mesh: Mesh) -> DiskReport:
    """Check the disk hypotheses behind the dimension pipeline.

    Verifies: hereditary (triangle fans around every vertex are connected
    through edges at that vertex), connectedness through interior edges,
    the Euler relation f0 - f1 + f2 = 1, and that the boundary edges form a
    single simple cycle: two at every boundary vertex, and connected.
    Purity is automatic from the representation.  Failures are reported,
    not raised.
    """
    failures = []
    dual = (mesh.edge_triangles[e] for e in mesh.interior_edges)
    if not _connected(range(mesh.num_triangles), dual):
        failures.append("connected")
    for v in range(mesh.num_vertices):
        fan = (mesh.edge_triangles[e] for e in mesh.interior_edges_at_vertex(v))
        if not _connected(mesh.vertex_triangles[v], fan):
            failures.append(f"hereditary (vertex {v})")
    c = mesh.face_counts()
    if c.f0 - c.f1 + c.f2 != 1:
        failures.append("euler characteristic")
    degree = Counter(v for e in mesh.boundary_edges for v in e)
    if any(k != 2 for k in degree.values()) or not _connected(degree, mesh.boundary_edges):
        failures.append("boundary cycle")
    return DiskReport(ok=not failures, failures=tuple(failures))


def direction_key(p: Point, q: Point) -> tuple[int, int]:
    """Canonical coprime-integer direction of the segment pq.

    Opposite directions are identified, making "same slope" an exact
    equality test.
    """
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx == 0 and dy == 0:
        raise ValueError("zero direction")
    return primitive_int_vector((dx, dy))


def _slopes(mesh: Mesh, v: int, neighbours: Iterable[int]) -> set[tuple[int, int]]:
    p = mesh.vertices[v]
    return {direction_key(p, mesh.vertices[w]) for w in neighbours}


def distinct_slopes_at(mesh: Mesh, v: int) -> int:
    """Number of distinct directions among the edges containing v."""
    if not 0 <= v < mesh.num_vertices:
        raise IndexError(v)
    return len(_slopes(mesh, v, mesh.vertex_neighbors[v]))


def predecessors(mesh: Mesh, v: int, placed: Container[int]) -> list[int]:
    """v's neighbours that may precede it: on the boundary or in `placed`.

    The upper-bound construction (UB5.3) keeps, at each interior vertex,
    only the edges to these neighbours.
    """
    return [w for w in mesh.vertex_neighbors[v] if w in mesh.boundary_vertices or w in placed]


def verify_vertex_ordering(mesh: Mesh, order: Sequence[int]) -> str | None:
    """Independent postcondition check for vertex_ordering.

    Every interior vertex must have two predecessors, joined to it by
    edges of different slopes.  Returns a failure description, or None if
    the ordering is admissible.
    """
    if sorted(order) != list(range(mesh.num_vertices)):
        return "not a permutation of the vertices"
    placed: set[int] = set()
    for v in order:
        if v in mesh.interior_vertices and len(_slopes(mesh, v, predecessors(mesh, v, placed))) < 2:
            return f"interior vertex {v} lacks two earlier neighbors with distinct slopes"
        placed.add(v)
    return None


def vertex_ordering(mesh: Mesh) -> list[int]:
    """A total vertex order for the upper-bound construction.

    Boundary vertices come first; each interior vertex is appended once it
    has two placed (or boundary) neighbors along edges of different slopes.
    Failure is reported rather than silently producing a bad order.

    Raises:
        OrderingNotFoundError: if no admissible ordering was found.
    """
    order = sorted(mesh.boundary_vertices)
    placed = set(order)
    remaining = set(mesh.interior_vertices)
    # A stalled greedy pass proves that no admissible order exists: the
    # predecessors grow with the placed set, and in any admissible order the
    # first vertex the greedy pass left unplaced has only greedy-placed or
    # boundary vertices before it, so it would already be ready for the
    # greedy pass.
    while remaining:
        ready = (
            v for v in sorted(remaining) if len(_slopes(mesh, v, predecessors(mesh, v, placed))) > 1
        )
        pick = next(ready, None)
        if pick is None:
            break
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    if remaining or verify_vertex_ordering(mesh, order) is not None:
        raise OrderingNotFoundError(
            "no vertex ordering with two distinct-slope predecessors per interior vertex"
        )
    return order

