"""Tests for the Powell-Sabin split and the builtin generators."""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splinedim.mesh import Mesh, MeshError, validate_disk
from splinedim.refine import make_vertex_star, morgan_scott_mesh, powell_sabin_6split

F = Fraction

TRIANGLE = Mesh([(0, 0), (4, 0), (1, 3)], [(0, 1, 2)])
TWO = Mesh([(0, 0), (3, 0), (3, 3), (0, 3)], [(0, 1, 2), (0, 2, 3)])


def test_split_single_triangle_counts():
    res = powell_sabin_6split(TRIANGLE, 1, 2)
    c = res.refined.face_counts()
    assert c.f2 == 6
    assert c.f0 == 7
    assert c.f0_interior == 1
    assert c.f1_interior == 6
    assert validate_disk(res.refined).ok


def test_split_morgan_scott_counts():
    res = powell_sabin_6split(morgan_scott_mesh(), 2, 3)
    c = res.refined.face_counts()
    assert c.f2 == 42
    assert c.f0 == 6 + 12 + 7
    assert validate_disk(res.refined).ok


def test_split_two_triangles():
    res = powell_sabin_6split(TWO, 1, 1)
    c = res.refined.face_counts()
    assert c.f2 == 12
    shared_b = next(v for v, e in res.b_point.items() if e == (0, 2))
    assert res.refined.is_interior_vertex(shared_b)
    boundary_bs = [v for v, e in res.b_point.items() if e != (0, 2)]
    assert len(boundary_bs) == 4
    for v in boundary_bs:
        a, b = (TWO.vertices[i] for i in res.b_point[v])
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        assert res.refined.vertices[v] == mid
        assert not res.refined.is_interior_vertex(v)


def test_split_vertex_count_formula():
    for mesh in (TRIANGLE, TWO, morgan_scott_mesh()):
        res = powell_sabin_6split(mesh, 0, 0)
        c0 = mesh.face_counts()
        c1 = res.refined.face_counts()
        assert c1.f0 == c0.f0 + c0.f1 + c0.f2
        assert c1.f2 == 6 * c0.f2


def test_split_edge_points_strictly_interior():
    res = powell_sabin_6split(morgan_scott_mesh(), 1, 1)
    ms = morgan_scott_mesh()
    for v, e in res.b_point.items():
        a, b = (ms.vertices[i] for i in e)
        p = res.refined.vertices[v]
        # p = a + t (b - a) with 0 < t < 1
        t = (p[0] - a[0]) / (b[0] - a[0]) if b[0] != a[0] else (p[1] - a[1]) / (b[1] - a[1])
        assert 0 < t < 1
        assert (p[0] - a[0]) * (b[1] - a[1]) == (p[1] - a[1]) * (b[0] - a[0])


def reference_edge_point(z1, z2, a, b):
    """The parametric 6-split edge point: where the segment z1z2 meets the
    line ab, if it is transversal and 0 < t < 1 on p = a + t (b - a)."""
    dzx, dzy = z2[0] - z1[0], z2[1] - z1[1]
    dabx, daby = b[0] - a[0], b[1] - a[1]
    denom = dzx * daby - dzy * dabx
    if denom == 0:
        return None
    u = ((a[0] - z1[0]) * daby - (a[1] - z1[1]) * dabx) / denom
    p = (z1[0] + u * dzx, z1[1] + u * dzy)
    t = (p[0] - a[0]) / dabx if dabx else (p[1] - a[1]) / daby
    return p if 0 < t < 1 else None


_COORD = st.fractions(min_value=-20, max_value=20, max_denominator=10**6)
_HEIGHT = _COORD.filter(lambda h: h != 0)


@settings(max_examples=150, deadline=None)
@given(_COORD, _COORD, _COORD, _COORD, _COORD, _HEIGHT, _COORD, _HEIGHT, _COORD, _COORD)
# the barycenter line passes through the endpoint a = (0, 0)
@example(0, 0, 2, 0, F(1, 2), F(1, 2), F(-5, 2), F(-1, 2), 0, 0)
# the barycenter line is parallel to the edge (c and d on one side of it)
@example(0, 0, 2, 0, 0, F(1, 2), F(1, 2), F(1, 2), F(1, 3), F(-7, 5))
# a convex quadrilateral, translated
@example(0, 0, 2, 0, F(1, 2), F(1, 2), F(1, 2), F(-1, 2), F(1, 10**6), 7)
def test_split_edge_point_is_the_parametric_intersection(ax, ay, bx, by, s1, h1, s2, h2, tx, ty):
    """Triangles abc and bad share the edge ab; c = a + s1 (b - a) + h1 n and
    d = a + s2 (b - a) + h2 n for the normal n of ab, so h1 h2 > 0 puts c
    and d on one side of ab.  The split accepts the shared edge exactly when
    the parametric reference finds its edge point, and places it there."""
    a, b = (ax + tx, ay + ty), (bx + tx, by + ty)
    assume(a != b and (s1, h1) != (s2, h2))
    ux, uy = b[0] - a[0], b[1] - a[1]
    c, d = ((a[0] + s * ux - h * uy, a[1] + s * uy + h * ux) for s, h in ((s1, h1), (s2, h2)))
    mesh = Mesh([a, b, c, d], [(0, 1, 2), (1, 0, 3)])
    z1, z2 = ((sum(p[0] for p in tri) / 3, sum(p[1] for p in tri) / 3) for tri in ((a, b, c), (b, a, d)))
    expected = reference_edge_point(z1, z2, a, b)
    if expected is None:
        with pytest.raises(MeshError, match="6-split failed"):
            powell_sabin_6split(mesh, 0, 0)
        return
    # overlapping triangles can make the refined mesh repeat a vertex
    assume(h1 * h2 < 0)
    res = powell_sabin_6split(mesh, 0, 0)
    (v,) = (v for v, e in res.b_point.items() if e == (0, 1))
    assert res.refined.vertices[v] == expected


def test_split_smoothness_assignment():
    r, s = 1, 3
    res = powell_sabin_6split(TWO, r, s)
    refined, spec = res.refined, res.spec
    z_set = set(res.z_point)
    b_set = set(res.b_point)
    for e, order in spec.r.items():
        u, v = e
        if (u in z_set and v in b_set) or (v in z_set and u in b_set):
            assert order == s
        else:
            assert order == r
    for v, order in spec.s.items():
        assert order == (r if v in b_set else s)


def test_split_effective_smoothness_never_below_edge_order():
    res = powell_sabin_6split(TWO, 1, 3)
    for e, r_tau in res.spec.r.items():
        for v in e:
            assert res.spec.effective_s(v, e) >= r_tau


def test_split_rejects_bad_orders():
    with pytest.raises(MeshError):
        powell_sabin_6split(TRIANGLE, 2, 1)
    with pytest.raises(MeshError):
        powell_sabin_6split(TRIANGLE, -1, 0)


def test_split_z_points_are_barycenters():
    res = powell_sabin_6split(TRIANGLE, 0, 0)
    (zv,) = res.z_point
    assert res.refined.vertices[zv] == (F(5, 3), F(1))


def test_morgan_scott_is_canonical():
    ms = morgan_scott_mesh()
    assert ms.vertices[:3] == ((F(0), F(0)), (F(8), F(0)), (F(4), F(6)))
    assert ms.vertices[3:] == ((F(4), F(1)), (F(3), F(15, 8)), (F(5), F(15, 8)))


def test_morgan_scott_mirror_symmetry():
    # reflection across x = 4 permutes the vertices and the triangle list
    ms = morgan_scott_mesh()
    mapped = {(8 - x, y) for x, y in ms.vertices}
    assert mapped == set(ms.vertices)
    where = {p: i for i, p in enumerate(ms.vertices)}
    perm = {i: where[(8 - x, y)] for i, (x, y) in enumerate(ms.vertices)}
    tris = {frozenset(t) for t in ms.triangles}
    assert {frozenset(perm[i] for i in t) for t in ms.triangles} == tris


def test_morgan_scott_inner_triangle_strictly_inside():
    ms = morgan_scott_mesh()
    (ax, ay), (bx, by), (cx, cy) = ms.vertices[0], ms.vertices[1], ms.vertices[2]
    for x, y in ms.vertices[3:]:
        assert y > 0
        assert (cx - ax) * (y - ay) - (cy - ay) * (x - ax) < 0  # right of left side
        assert (cx - bx) * (y - by) - (cy - by) * (x - bx) > 0  # left of right side


def test_make_vertex_star_crossed_square():
    m = make_vertex_star([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert m.num_triangles == 4
    assert m.face_counts().f1_interior == 4
    assert validate_disk(m).ok


def test_make_vertex_star_sorts_directions():
    m1 = make_vertex_star([(0, 1), (1, 0), (-1, -1)])
    m2 = make_vertex_star([(1, 0), (0, 1), (-1, -1)])
    assert (m1.vertices, m1.triangles) == (m2.vertices, m2.triangles)
    assert m1.num_triangles == 3


def test_make_vertex_star_six_directions():
    m = make_vertex_star(
        [(1, 0), (1, 1), (-1, 2), (-1, 0), (-1, -1), (1, -2)],
        generic_radius_perturbation=True,
    )
    assert m.num_triangles == 6
    assert validate_disk(m).ok


def test_make_vertex_star_rejects_half_plane():
    with pytest.raises(MeshError, match="fan"):
        make_vertex_star([(1, 0), (1, 1), (0, 1)])


def test_make_vertex_star_rejects_duplicate_ray():
    with pytest.raises(MeshError):
        make_vertex_star([(1, 0), (2, 0), (0, 1), (-1, -1)])


def reference_ccw_cmp(u, v):
    """Counterclockwise order from the positive x-axis, as a comparator."""

    def half(p):
        # 0 for upper half plane (incl. positive x-axis), 1 for lower
        return 0 if (p[1] > 0 or (p[1] == 0 and p[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    return -1 if cross > 0 else 1 if cross < 0 else 0


_DIRECTION = st.tuples(
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
).filter(lambda d: d != (0, 0))
_POSITIVE = st.fractions(min_value=F(1, 5), max_value=9, max_denominator=5)


@settings(max_examples=150, deadline=None)
@given(st.lists(_DIRECTION, max_size=8), _POSITIVE, _POSITIVE, st.randoms(use_true_random=False))
def test_make_vertex_star_orders_like_the_comparator(extra, right, left, rng):
    """Both axis rays and both vertical rays keep every gap below a half
    turn; the other directions fall anywhere, on an axis too."""
    rays = {}
    for dx, dy in [(right, 0), (-left, 0), (0, 1), (0, -1), *extra]:
        rays.setdefault((dx / max(abs(dx), abs(dy)), dy / max(abs(dx), abs(dy))), (dx, dy))
    dirs = list(rays.values())
    rng.shuffle(dirs)
    m = make_vertex_star(dirs)
    assert list(m.vertices[1:]) == sorted(dirs, key=functools.cmp_to_key(reference_ccw_cmp))
