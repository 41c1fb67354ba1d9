"""Planar triangulation representation, validation, combinatorics, and IO.

A mesh is an embedded planar simplicial complex with exact rational vertex
coordinates, kept also as primitive integer homogeneous points (X, Y, W),
W > 0 (`Mesh.points`): orientation, slopes and linear forms are `int`
arithmetic on these.  Triangles are normalized to counterclockwise
orientation at load time; edges, adjacency, and interior/boundary
classification are derived at construction.  The data that depends on the
mesh alone (disk report, vertex ordering, the kernel oracle's tree-cotree
split) is computed on first use and kept; each is deterministic, so
computing it is idempotent.  Meshes are immutable after construction and
all queries are pure.

Only `int` and `Fraction` coordinates are accepted, floats deliberately not:
every downstream dimension count is an exact-zero decision on coordinates.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import lcm
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

from .polyring import IntPoint, cross
from .ratlinalg import primitive_int_vector

Point = tuple[Fraction, Fraction]
Edge = tuple[int, int]
Cotree = tuple[tuple[Edge, ...], dict[Edge, dict[Edge, int]], dict[Edge, int]]

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
    "rational_from_str",
    "rational_to_str",
    "validate_disk",
    "verify_vertex_ordering",
    "vertex_ordering",
]


class MeshError(ValueError):
    """Structural load/validation error (degenerate, non-manifold, ...)."""


class OrderingNotFoundError(RuntimeError):
    """No admissible vertex ordering was found (should not occur for disks)."""


class _JsonDecimal(Decimal):
    """A JSON number with a fraction or exponent, exact; repr shows it as a plain decimal."""

    __repr__ = Decimal.__str__


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


def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "p/q", an integer or a decimal; an exponent of 5+ digits raises ValueError."""
    exp = s.strip().lower().partition("e")[2].replace("_", "").lstrip("+-0")
    if exp.isdigit() and len(exp) > 4:
        raise ValueError(f"decimal exponent out of range in {s!r}")
    return Fraction(s.strip())


def _homogeneous(x: Fraction, y: Fraction) -> IntPoint:
    """(X, Y, W) with (x, y) = (X/W, Y/W): W is the denominators' lcm, so gcd(X, Y, W) = 1."""
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w)


def _det(p: IntPoint, q: IntPoint, r: IntPoint) -> int:
    """det(p, q, r) = cross(p, q) . r: Wp*Wq*Wr > 0 times the affine cross
    product, so its sign is the orientation of the triangle pqr (0: collinear)."""
    a, b, c = cross(p, q)
    return a * r[0] + b * r[1] + c * r[2]


def _between(r: IntPoint, p: IntPoint, q: IntPoint) -> bool:
    """Whether r, collinear with p and q, lies on the closed segment pq:
    (p - r) . (q - r) <= 0, each difference scaled by positive Ws."""
    (x, y, w), (xp, yp, wp), (xq, yq, wq) = r, p, q
    return (xp * w - x * wp) * (xq * w - x * wq) + (yp * w - y * wp) * (yq * w - y * wq) <= 0


def _segments_meet(p: IntPoint, q: IntPoint, r: IntPoint, s: IntPoint) -> bool:
    """Whether the closed segments pq and rs share a point."""
    d1, d2, d3, d4 = _det(r, s, p), _det(r, s, q), _det(p, q, r), _det(p, q, s)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    ends = ((d1, p, r, s), (d2, q, r, s), (d3, r, p, q), (d4, s, p, q))
    return any(d == 0 and _between(x, a, b) for d, x, a, b in ends)


def _simple_cycle(mesh: Mesh) -> bool:
    """Whether the boundary cycle is a simple polygon: no two boundary edges
    meet, except consecutive ones at their common vertex, and those do not
    fold back onto each other (collinear, on the same side of it)."""
    pts = mesh.points
    edges = sorted(mesh.boundary_edges)
    for k, e in enumerate(edges):
        for f in edges[:k]:
            common = set(e) & set(f)
            if not common:
                if _segments_meet(*(pts[v] for v in e + f)):
                    return False
                continue
            (v,) = common
            u, w = pts[sum(e) - v], pts[sum(f) - v]
            if _det(u, pts[v], w) == 0 and not _between(pts[v], u, w):
                return False
    return True


def _orient_ccw(points: Sequence[IntPoint], tri: tuple[int, int, int]) -> tuple[int, int, int]:
    det = _det(*(points[i] for i in tri))
    if det == 0:
        raise MeshError(f"degenerate (zero area) triangle {tri}")
    if det < 0:
        tri = (tri[0], tri[2], tri[1])
    # canonical rotation: smallest index first, orientation preserved
    i = tri.index(min(tri))
    return (tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3])


class Mesh:
    """An immutable validated planar triangulation."""

    def __init__(
        self,
        vertices: Iterable[Point],
        triangles: Iterable[Sequence[int]],
    ):
        pts = tuple((_rational(x), _rational(y)) for x, y in vertices)
        if len(set(pts)) != len(pts):
            raise MeshError("duplicate vertices")
        points = tuple(_homogeneous(*p) for p in pts)
        tris = []
        for tri in triangles:
            tri = tuple(_require_int("triangles", i, "integers") for i in tri)
            if len(tri) != 3:
                raise MeshError(f"triangle {tri} needs 3 vertex indices, got {len(tri)}")
            if len(set(tri)) != 3:
                raise MeshError(f"triangle {tri} repeats a vertex")
            if any(not 0 <= i < len(pts) for i in tri):
                raise MeshError(f"triangle {tri} has a vertex index out of range")
            tris.append(_orient_ccw(points, tri))
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

        self.vertices, self.points = pts, points
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

    def interior_edges_at_vertex(self, v: int) -> list[Edge]:
        edges = (tuple(sorted((v, w))) for w in self.vertex_neighbors[v])
        return [e for e in edges if e in self.interior_edges]

    @cached_property
    def disk(self) -> DiskReport:
        """`validate_disk(self)`, computed on first use."""
        return validate_disk(self)

    @cached_property
    def ordering(self) -> tuple[int, ...]:
        """`vertex_ordering(self)`, the order every tilde ideal follows."""
        return tuple(vertex_ordering(self))

    @cached_property
    def ordering_position(self) -> dict[int, int]:
        """Each vertex's index in `ordering`."""
        return {v: k for k, v in enumerate(self.ordering)}

    @cached_property
    def cotree(self) -> Cotree:
        """`_tree_cotree(self)`: the oracle's unknowns (boundary inward), cuts and children."""
        return _tree_cotree(self)

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


def parse_mesh_json(data: dict) -> Mesh:
    try:
        vertices = [
            (rational_from_str(str(x)), rational_from_str(str(y)))
            for x, y in data["vertices"]
        ]
        triangles = [[_require_int("triangles", i) for i in tri] for tri in data["triangles"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
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
    r: dict[Edge, int] = {}
    for i, j, k in _entries(block, "edge_r", 3, "[i, j, r]"):
        e = tuple(sorted((i, j)))
        if e not in mesh.interior_edges:
            raise MeshError(f"edge_r entry {e} is not an interior edge")
        if e in r:
            raise MeshError(f"edge_r entry {e} is given twice")
        r[e] = k
    s: dict[int, int] = {}
    for i, k in _entries(block, "vertex_s", 2, "[v, s]"):
        if not 0 <= i < mesh.num_vertices:
            raise MeshError(f"vertex_s entry {i} out of range")
        if i in s:
            raise MeshError(f"vertex_s entry {i} is given twice")
        s[i] = k
    return SmoothnessSpec(
        mesh,
        {e: r.get(e, default_r) for e in mesh.interior_edges},
        {v: s.get(v, default_s) for v in range(mesh.num_vertices)},
    )


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
        data = json.loads(text, parse_float=_JsonDecimal)
    except json.JSONDecodeError as exc:
        raise MeshError(f"mesh document is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the int-conversion digit limit
        raise MeshError(f"malformed mesh document: {exc}") from exc
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
    single cycle: two at every boundary vertex, and connected.  Then that
    the mesh is embedded, by Floater's criterion (2003): a piecewise linear
    map of a triangulated disk is one-to-one when its triangles are
    consistently positively oriented and its boundary cycle is a simple
    polygon.  `Mesh` turns every triangle counterclockwise, by the sign of
    det(p, q, r) = cross(p, q) . r on `Mesh.points`, so the two triangles
    at each interior edge must traverse it in opposite directions, which
    puts them on opposite sides of it ("consistent orientation").  And the
    boundary cycle must be simple ("simple boundary"), by signs of det
    again.  Purity is automatic from the representation.  Failures are
    reported, not raised.
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
    for e in sorted(mesh.interior_edges):
        a, b = e
        t1, t2 = (mesh.triangles[t] for t in mesh.edge_triangles[e])
        if (t1[(t1.index(a) + 1) % 3] == b) == (t2[(t2.index(a) + 1) % 3] == b):
            failures.append(f"consistent orientation (edge {e})")
    if "boundary cycle" not in failures and not _simple_cycle(mesh):
        failures.append("simple boundary")
    return DiskReport(ok=not failures, failures=tuple(failures))


def _tree_cotree(mesh: Mesh) -> Cotree:
    """Tree-cotree split of the interior edges (Eppstein 2003).

    A breadth-first search over interior edges from all boundary vertices at
    once gives each interior vertex one *forest* edge; the other interior
    edges, E_int - V_int = T - 1 of them on a disk, form a spanning tree of
    the dual graph, the *cotree*.  Returns the cotree edges, and per forest
    edge (in search order) its cut and its *child*, the vertex the search
    reached through it.  The cut sums the vertex fans of the child's
    subtree, less the forest edge, with inner edges cancelled: the child's
    cotree edges plus the cuts of the forest edges below it.  On this the
    kernel oracle's row selection rests, which leaves h0 dependent rows of
    sum_v codim J(v)_d + h0.  Edge e = (v, w) counts +1 in v's fan when
    `edge_triangles[e][0]` lies left of v -> w, -1 otherwise.  The cotree is
    sorted by (position of the edge's later end in the search order, edge):
    boundary vertices first, then breadth-first, so the kernel oracle lays
    out its columns from the boundary inward.  Every edge of a forest edge's
    cut has an end in its child's subtree, which the search reaches at or
    after the child, so each row's columns start no earlier than its
    child's and the system is close to staircase form.  The order is the
    search's own, not `Mesh.ordering`: the oracle needs no admissible
    ordering.
    """
    up: dict[int, Edge] = {}
    order = sorted(mesh.boundary_vertices)
    for u in order:
        for w in mesh.vertex_neighbors[u]:
            if w in mesh.interior_vertices and w not in up:
                up[w] = (u, w) if u < w else (w, u)
                order.append(w)
    cut: dict[int, dict[Edge, int]] = {v: {} for v in up}
    for v in reversed(up):
        acc = cut[v]
        for w in mesh.vertex_neighbors[v]:
            e = (v, w) if v < w else (w, v)
            tri = mesh.triangles[mesh.edge_triangles[e][0]]
            acc[e] = acc.get(e, 0) + (1 if tri[(tri.index(v) + 1) % 3] == w else -1)
        cut[v] = acc = {e: sign for e, sign in acc.items() if sign}
        parent = sum(up[v]) - v
        if parent in cut:
            for e, sign in acc.items():
                cut[parent][e] = cut[parent].get(e, 0) + sign
        del acc[up[v]]
    cuts = {up[v]: cut[v] for v in up}
    position = {v: k for k, v in enumerate(order)}
    cotree = sorted(mesh.interior_edges - cuts.keys(), key=lambda e: (max(map(position.get, e)), e))
    return tuple(cotree), cuts, {e: v for v, e in up.items()}


def direction_key(p: IntPoint, q: IntPoint) -> tuple[int, int]:
    """Canonical coprime-integer direction of the segment pq: W_p W_q (q - p),
    which is (b, -a) for the line p x q = (a, b, c), primitive.  Opposite
    directions are identified, making "same slope" an exact equality test.
    """
    a, b, _ = cross(p, q)
    if a == b == 0:
        raise ValueError("zero direction")
    return primitive_int_vector((b, -a))


def _slopes(mesh: Mesh, v: int, neighbours: Iterable[int]) -> set[tuple[int, int]]:
    return {direction_key(mesh.points[v], mesh.points[w]) for w in neighbours}


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

    def ready(v: int) -> bool:
        return len(_slopes(mesh, v, predecessors(mesh, v, placed))) > 1

    # Placing v can make only its neighbours ready, and readiness never goes
    # away (predecessors grow with the placed set), so a heap of the ready
    # vertices yields the smallest ready index without rescanning.  A stalled
    # pass proves that no admissible order exists: in any admissible order
    # the first vertex left unplaced has only placed or boundary vertices
    # before it, so it would already be ready.
    heap = [v for v in sorted(mesh.interior_vertices) if ready(v)]
    queued = set(heap)
    while heap:
        pick = heapq.heappop(heap)
        order.append(pick)
        placed.add(pick)
        for w in mesh.vertex_neighbors[pick]:
            if w in mesh.interior_vertices and w not in queued and ready(w):
                heapq.heappush(heap, w)
                queued.add(w)
    if len(order) < mesh.num_vertices or verify_vertex_ordering(mesh, order) is not None:
        raise OrderingNotFoundError(
            "no vertex ordering with two distinct-slope predecessors per interior vertex"
        )
    return order

