"""Mesh generators: Powell-Sabin 6-split, Morgan-Scott mesh, vertex stars.

The 6-split places the interior point of each triangle at its barycenter
(rational for rational input, unlike the incenter) and the edge point of
each interior edge at the intersection of that edge with the segment
joining the two neighboring barycenters; boundary edges get their midpoint.
Strict interiority of every edge point is verified at construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .mesh import Edge, Mesh, MeshError, Point, SmoothnessSpec

__all__ = [
    "PSSplitResult",
    "make_vertex_star",
    "morgan_scott_mesh",
    "powell_sabin_6split",
]


@dataclass(frozen=True)
class PSSplitResult:
    """A refined mesh with its induced smoothness spec and vertex roles.

    The refined mesh keeps each source vertex at its source index.
    `z_point[new]` and `b_point[new]` give, for each added vertex index, its
    source triangle index or source edge (each added vertex appears in
    exactly one of the two maps).
    """

    refined: Mesh
    spec: SmoothnessSpec
    z_point: dict[int, int]
    b_point: dict[int, Edge]


def _barycenter(pts: Sequence[Point]) -> Point:
    xs = sum((p[0] for p in pts), Fraction(0))
    ys = sum((p[1] for p in pts), Fraction(0))
    return (xs / 3, ys / 3)


def _segment_line_intersection(z1: Point, z2: Point, a: Point, b: Point) -> Point | None:
    """Intersection of segment z1z2 with the line ab, if transversal."""
    dzx, dzy = z2[0] - z1[0], z2[1] - z1[1]
    dabx, daby = b[0] - a[0], b[1] - a[1]
    denom = dzx * daby - dzy * dabx
    if denom == 0:
        return None
    t = ((a[0] - z1[0]) * daby - (a[1] - z1[1]) * dabx) / denom
    return (z1[0] + t * dzx, z1[1] + t * dzy)


def _strictly_between(p: Point, a: Point, b: Point) -> bool:
    dab = (b[0] - a[0], b[1] - a[1])
    dap = (p[0] - a[0], p[1] - a[1])
    if dab[0] * dap[1] != dab[1] * dap[0]:
        return False
    t = dap[0] / dab[0] if dab[0] else dap[1] / dab[1]
    return 0 < t < 1


def powell_sabin_6split(mesh: Mesh, r: int, s: int) -> PSSplitResult:
    """Powell-Sabin 6-split with its induced smoothness spec.

    Each triangle is subdivided into six around its barycenter Z; each edge
    gains one point B (segment-between-barycenters intersection on interior
    edges, midpoint on boundary edges).  The induced orders are: smoothness
    s across the spoke edges [Z, B] and r across all other interior edges;
    supersmoothness s at original vertices and Z points, r at B points.

    Raises:
        MeshError: if s < r, or an intersection point is not strictly
            interior to its edge (possible for very distorted meshes).
    """
    if not 0 <= r <= s:
        raise MeshError(f"need 0 <= r <= s, got r={r}, s={s}")
    pts = list(mesh.vertices)

    b_index: dict[Edge, int] = {}
    b_point: dict[int, Edge] = {}
    z_of = {
        t: _barycenter([mesh.vertices[i] for i in tri])
        for t, tri in enumerate(mesh.triangles)
    }
    for e in mesh.edges:
        a, b = (mesh.vertices[i] for i in e)
        tris = mesh.edge_triangles[e]
        if len(tris) == 2:
            p = _segment_line_intersection(z_of[tris[0]], z_of[tris[1]], a, b)
            if p is None or not _strictly_between(p, a, b):
                raise MeshError(
                    f"6-split failed: barycenter segment misses the interior of edge {e}"
                )
        else:
            p = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        b_index[e] = len(pts)
        b_point[len(pts)] = e
        pts.append(p)

    z_index: dict[int, int] = {}
    z_point: dict[int, int] = {}
    for t in range(mesh.num_triangles):
        z_index[t] = len(pts)
        z_point[len(pts)] = t
        pts.append(z_of[t])

    tris = []
    for t, (v0, v1, v2) in enumerate(mesh.triangles):
        z = z_index[t]
        for a, b in ((v0, v1), (v1, v2), (v2, v0)):
            m = b_index[tuple(sorted((a, b)))]
            tris.append((a, m, z))
            tris.append((m, b, z))
    refined = Mesh(pts, tris)

    z_set = set(z_index.values())
    r_map = {}
    for e in refined.interior_edges:
        u, v = e
        spoke_to_b = (u in z_set and v in b_point) or (v in z_set and u in b_point)
        r_map[e] = s if spoke_to_b else r
    s_map = {}
    for v in range(refined.num_vertices):
        s_map[v] = r if v in b_point else s
    spec = SmoothnessSpec(refined, r_map, s_map)
    return PSSplitResult(refined, spec, z_point, b_point)


def morgan_scott_mesh() -> Mesh:
    """The canonical Morgan-Scott configuration used throughout the tests.

    Outer triangle (0,0), (8,0), (4,6) with an inner inverted triangle at
    (4,1), (3,15/8), (5,15/8): 6 vertices, 12 edges, 7 triangles, and every
    interior vertex sees 4 distinct slopes.  The configuration is mirror
    symmetric about x = 4 and combinatorially 3-fold symmetric.

    These coordinates are a documented choice: low-degree superspline
    dimensions on the 6-split of a Morgan-Scott mesh are geometry
    sensitive, and this placement reproduces the reference values on every
    stable-regime degree while keeping exact mirror symmetry.  A fully
    (affinely) 3-fold symmetric placement degenerates further and changes
    some low-degree homology values.
    """
    h = Fraction(15, 8)
    vertices = [(0, 0), (8, 0), (4, 6), (4, 1), (3, h), (5, h)]
    triangles = [
        (0, 1, 3),
        (1, 2, 5),
        (2, 0, 4),
        (0, 3, 4),
        (1, 5, 3),
        (2, 4, 5),
        (3, 5, 4),
    ]
    return Mesh([(Fraction(x), Fraction(y)) for x, y in vertices], triangles)


def _ccw_direction_cmp(u: tuple, v: tuple) -> int:
    def half(p):
        # 0 for upper half plane (incl. positive x-axis), 1 for lower
        return 0 if (p[1] > 0 or (p[1] == 0 and p[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def make_vertex_star(
    directions: Sequence[tuple], generic_radius_perturbation: bool = False
) -> Mesh:
    """A vertex star: center at the origin, one boundary vertex per direction.

    Directions are rational (dx, dy) pairs, sorted counterclockwise; the fan
    of triangles between consecutive directions closes up around the center,
    which requires every cyclic gap to be below a half turn.  With
    `generic_radius_perturbation` the boundary vertices are placed at varying
    rational radii so that no three of them are accidentally collinear with
    symmetric direction choices.

    Raises:
        MeshError: on fewer than 3 directions, repeated rays, or directions
            that do not close into a simple fan.
    """
    dirs = [(Fraction(dx), Fraction(dy)) for dx, dy in directions]
    if len(dirs) < 3:
        raise MeshError("a vertex star needs at least 3 directions")
    if any(dx == 0 and dy == 0 for dx, dy in dirs):
        raise MeshError("zero direction")
    dirs.sort(key=functools.cmp_to_key(_ccw_direction_cmp))
    pts: list[Point] = [(Fraction(0), Fraction(0))]
    for k, (dx, dy) in enumerate(dirs):
        rho = 1 + Fraction(k + 1, k + 7) if generic_radius_perturbation else Fraction(1)
        pts.append((dx * rho, dy * rho))
    n = len(dirs)
    for k in range(n):
        u = dirs[k]
        v = dirs[(k + 1) % n]
        if u[0] * v[1] - u[1] * v[0] <= 0:
            raise MeshError("directions not sortable into a simple fan")
    tris = [(0, 1 + k, 1 + (k + 1) % n) for k in range(n)]
    return Mesh(pts, tris)
