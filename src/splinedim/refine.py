"""Mesh generators: Powell-Sabin 6-split, Morgan-Scott mesh, vertex stars.

The 6-split places the interior point of each triangle at its barycenter
(rational for rational input, unlike the incenter) and the edge point of
each interior edge where the edge meets the line joining the two
neighboring barycenters; boundary edges get their midpoint.  All three are
computed on the mesh's integer homogeneous points (`Mesh.points`): the
edge point is the meet of two lines, the cross product of the lines
(themselves cross products), and it is strictly interior to its edge
exactly when the edge's endpoints lie strictly on opposite sides of the
barycenter line, which is verified at construction.  Only the refined
mesh's new vertices are built as rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .mesh import Edge, Mesh, MeshError, Point, SmoothnessSpec
from .polyring import IntPoint, cross

__all__ = [
    "PSSplitResult",
    "make_vertex_star",
    "morgan_scott_mesh",
    "powell_sabin_6split",
]


class PSSplitResult(NamedTuple):
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


def _mean(points: Sequence[IntPoint]) -> IntPoint:
    """The centroid of homogeneous points with W > 0, as one with W > 0."""
    w = lcm(*(p[2] for p in points))
    return (
        sum(x * (w // pw) for x, _, pw in points),
        sum(y * (w // pw) for _, y, pw in points),
        w * len(points),
    )


def _affine(p: IntPoint) -> Point:
    """The rational point (X/W, Y/W) of a homogeneous point with W != 0."""
    x, y, w = p
    return (Fraction(x, w), Fraction(y, w))


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
    points, pts = mesh.points, list(mesh.vertices)

    b_index: dict[Edge, int] = {}
    b_point: dict[int, Edge] = {}
    z_of = {t: _mean([points[i] for i in tri]) for t, tri in enumerate(mesh.triangles)}
    for e in mesh.edges:
        a, b = (points[i] for i in e)
        tris = mesh.edge_triangles[e]
        if len(tris) == 2:
            line = cross(z_of[tris[0]], z_of[tris[1]])
            # the meet is strictly inside the edge exactly when a and b lie
            # strictly on opposite sides of the barycenter line
            side_a, side_b = (sum(u * v for u, v in zip(line, q)) for q in (a, b))
            if side_a * side_b >= 0:
                raise MeshError(
                    f"6-split failed: barycenter segment misses the interior of edge {e}"
                )
            p = cross(line, cross(a, b))
        else:
            p = _mean([a, b])
        b_index[e] = len(pts)
        b_point[len(pts)] = e
        pts.append(_affine(p))

    z_index: dict[int, int] = {}
    z_point: dict[int, int] = {}
    for t in range(mesh.num_triangles):
        z_index[t] = len(pts)
        z_point[len(pts)] = t
        pts.append(_affine(z_of[t]))

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

    def angle_order(d):
        # the upper half plane first; each half starts on its axis ray, then
        # dx/dy decreases as the angle grows
        dx, dy = d
        return (dx < 0, 0) if dy == 0 else (dy < 0, 1, -dx / dy)

    dirs.sort(key=angle_order)
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
