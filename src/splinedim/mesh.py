"""Planar triangulation representation, validation, combinatorics, and IO.

A mesh is an embedded planar simplicial complex with exact rational vertex
coordinates.  Triangles are normalized to counterclockwise orientation at
load time; edges, adjacency, and interior/boundary classification are
derived once and cached.  Meshes are immutable after construction and all
queries are pure.

Floating-point coordinates are deliberately not accepted: every downstream
dimension count is an exact-zero decision on coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .ratlinalg import rational_from_str, rational_to_str

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
        pts = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
        if len(set(pts)) != len(pts):
            raise MeshError("duplicate vertices")
        tris = []
        for tri in triangles:
            tri = tuple(int(i) for i in tri)
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
        r = {tuple(sorted(e)): int(k) for e, k in r.items()}
        s = {int(v): int(k) for v, k in s.items()}
        if set(r) != set(mesh.interior_edges):
            raise MeshError("edge smoothness must cover exactly the interior edges")
        if set(s) != set(range(mesh.num_vertices)):
            raise MeshError("vertex supersmoothness must cover all vertices")
        if any(k < 0 for k in r.values()) or any(k < 0 for k in s.values()):
            raise MeshError("smoothness orders must be non-negative")
        self.r = r
        self.s = s

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

    def is_uniform(self) -> tuple[int, int] | None:
        """(r, s) when all edge orders agree and all vertex orders agree."""
        rs = set(self.r.values())
        ss = set(self.s.values())
        if len(rs) <= 1 and len(ss) == 1:
            return (next(iter(rs)) if rs else 0, next(iter(ss)))
        return None

    def max_s(self) -> int:
        return max(self.s.values()) if self.s else 0


def _json_int(field: str, value) -> int:
    """`value` if it is a JSON integer; a float, bool or string raises."""
    if type(value) is not int:
        raise MeshError(f"{field} must hold JSON integers, got {value!r}")
    return value


def parse_mesh_json(data: dict) -> Mesh:
    try:
        vertices = [
            (rational_from_str(str(x)), rational_from_str(str(y)))
            for x, y in data["vertices"]
        ]
        triangles = [[_json_int("triangles", i) for i in tri] for tri in data["triangles"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"malformed mesh document: {exc}") from exc
    return Mesh(vertices, triangles)


def parse_smoothness_json(
    mesh: Mesh,
    block: dict | None,
    fallback_r: int | None = None,
    fallback_s: int | None = None,
) -> SmoothnessSpec | None:
    """Assemble the smoothness spec from the optional JSON block.

    Explicit edge_r / vertex_s entries override default_r / default_s; CLI
    flags supply the fallbacks when the block omits defaults.  Returns None
    when nothing at all is specified.
    """
    block = block or {}
    default_r = block.get("default_r", fallback_r)
    default_s = block.get("default_s", fallback_s)
    if default_s is None:
        default_s = default_r
    if default_r is None:
        if not block:
            return None
        raise MeshError("smoothness block present but no default_r / -r given")
    default_r = _json_int("default_r", default_r)
    default_s = _json_int("default_s", default_s)
    r = {e: default_r for e in mesh.interior_edges}
    for entry in block.get("edge_r", []):
        i, j, k = (_json_int("edge_r", x) for x in entry)
        e = tuple(sorted((i, j)))
        if e not in mesh.interior_edges:
            raise MeshError(f"edge_r entry {e} is not an interior edge")
        r[e] = k
    s = {v: default_s for v in range(mesh.num_vertices)}
    for entry in block.get("vertex_s", []):
        i, k = (_json_int("vertex_s", x) for x in entry)
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


def _triangle_adjacency_connected(mesh: Mesh) -> bool:
    if not mesh.triangles:
        return False
    seen = {0}
    stack = [0]
    adj: dict[int, list[int]] = {t: [] for t in range(mesh.num_triangles)}
    for e in mesh.interior_edges:
        a, b = mesh.edge_triangles[e]
        adj[a].append(b)
        adj[b].append(a)
    while stack:
        t = stack.pop()
        for u in adj[t]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == mesh.num_triangles


def _vertex_star_is_fan_connected(mesh: Mesh, v: int) -> bool:
    tris = mesh.vertex_triangles[v]
    if not tris:
        return False
    index = {t: k for k, t in enumerate(tris)}
    adj: dict[int, list[int]] = {k: [] for k in range(len(tris))}
    for w in mesh.vertex_neighbors[v]:
        e = tuple(sorted((v, w)))
        ts = mesh.edge_triangles[e]
        if len(ts) == 2:
            a, b = (index[t] for t in ts)
            adj[a].append(b)
            adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        k = stack.pop()
        for u in adj[k]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(tris)


def _boundary_is_single_cycle(mesh: Mesh) -> bool:
    if not mesh.boundary_edges:
        return False
    incidence: dict[int, list[Edge]] = {}
    for e in mesh.boundary_edges:
        for v in e:
            incidence.setdefault(v, []).append(e)
    if any(len(es) != 2 for es in incidence.values()):
        return False
    # walk the cycle from an arbitrary boundary vertex
    start = next(iter(incidence))
    prev, cur = None, start
    visited_edges = set()
    while True:
        nxt_edge = next(
            e for e in incidence[cur] if e not in visited_edges
        ) if prev is not None else incidence[cur][0]
        visited_edges.add(nxt_edge)
        prev, cur = cur, nxt_edge[0] if nxt_edge[1] == cur else nxt_edge[1]
        if cur == start:
            break
        if len(visited_edges) > len(mesh.boundary_edges):
            return False
    return len(visited_edges) == len(mesh.boundary_edges)


def validate_disk(mesh: Mesh) -> DiskReport:
    """Check the disk hypotheses behind the dimension pipeline.

    Verifies: hereditary (triangle fans around every vertex are connected
    through edges at that vertex), connectedness through interior edges,
    the Euler relation f0 - f1 + f2 = 1, and that the boundary edges form a
    single simple cycle.  Purity is automatic from the representation.
    Failures are reported, not raised.
    """
    failures = []
    if not _triangle_adjacency_connected(mesh):
        failures.append("connected")
    for v in range(mesh.num_vertices):
        if not _vertex_star_is_fan_connected(mesh, v):
            failures.append(f"hereditary (vertex {v})")
    c = mesh.face_counts()
    if c.f0 - c.f1 + c.f2 != 1:
        failures.append("euler characteristic")
    if not _boundary_is_single_cycle(mesh):
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
    den = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
    ix, iy = int(dx * den), int(dy * den)
    g = gcd(abs(ix), abs(iy))
    ix, iy = ix // g, iy // g
    if ix < 0 or (ix == 0 and iy < 0):
        ix, iy = -ix, -iy
    return (ix, iy)


def distinct_slopes_at(mesh: Mesh, v: int) -> int:
    """Number of distinct directions among the edges containing v."""
    if not 0 <= v < mesh.num_vertices:
        raise IndexError(v)
    p = mesh.vertices[v]
    return len({direction_key(p, mesh.vertices[w]) for w in mesh.vertex_neighbors[v]})


def verify_vertex_ordering(mesh: Mesh, order: Sequence[int]) -> str | None:
    """Independent postcondition check for vertex_ordering.

    Every interior vertex must have two neighbors that are earlier in the
    order or on the boundary, joined to it by edges of different slopes.
    Returns a failure description, or None if the ordering is admissible.
    """
    if sorted(order) != list(range(mesh.num_vertices)):
        return "not a permutation of the vertices"
    pos = {v: k for k, v in enumerate(order)}
    for v in mesh.interior_vertices:
        p = mesh.vertices[v]
        slopes = {
            direction_key(p, mesh.vertices[w])
            for w in mesh.vertex_neighbors[v]
            if w in mesh.boundary_vertices or pos[w] < pos[v]
        }
        if len(slopes) < 2:
            return f"interior vertex {v} lacks two earlier neighbors with distinct slopes"
    return None


def _ready(mesh: Mesh, v: int, placed: set[int]) -> bool:
    p = mesh.vertices[v]
    slopes = set()
    for w in mesh.vertex_neighbors[v]:
        if w in placed or w in mesh.boundary_vertices:
            slopes.add(direction_key(p, mesh.vertices[w]))
            if len(slopes) >= 2:
                return True
    return False


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
    # A stalled greedy pass proves that no admissible order exists: `_ready`
    # is monotone in the placed set, and in any admissible order the first
    # vertex the greedy pass left unplaced has only greedy-placed or boundary
    # vertices before it, so it would already be ready for the greedy pass.
    while remaining:
        pick = next((v for v in sorted(remaining) if _ready(mesh, v, placed)), None)
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

