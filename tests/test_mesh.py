"""Tests for the triangulation data structure and combinatorics."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinedim.cli import builtin_mesh
from splinedim.dimension import euler_assembly
from splinedim.mesh import (
    Mesh,
    MeshError,
    SmoothnessSpec,
    direction_key,
    distinct_slopes_at,
    load_mesh_document,
    mesh_to_json,
    predecessors,
    validate_disk,
    verify_vertex_ordering,
    vertex_ordering,
)
from splinedim.refine import make_vertex_star, morgan_scott_mesh, powell_sabin_6split

F = Fraction

TRIANGLE = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
TWO_TRIANGLES = Mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])


def test_single_triangle_counts():
    c = TRIANGLE.face_counts()
    assert (c.f0, c.f1, c.f2) == (3, 3, 1)
    assert c.f1_interior == 0
    assert c.f0_interior == 0


def test_two_triangles_counts():
    c = TWO_TRIANGLES.face_counts()
    assert c.f1_interior == 1
    assert c.f0_interior == 0
    assert TWO_TRIANGLES.interior_edges == {(0, 2)}


def test_morgan_scott_counts():
    ms = morgan_scott_mesh()
    c = ms.face_counts()
    assert (c.f0, c.f1, c.f2) == (6, 12, 7)
    assert (c.f0_interior, c.f1_interior) == (3, 9)


def test_morgan_scott_is_disk_with_four_slopes_inside():
    ms = morgan_scott_mesh()
    assert validate_disk(ms).ok
    for v in ms.interior_vertices:
        assert distinct_slopes_at(ms, v) == 4


def test_morgan_scott_threefold_symmetry():
    ms = morgan_scott_mesh()
    perm = {0: 1, 1: 2, 2: 0, 3: 5, 5: 4, 4: 3}
    tris = {frozenset(t) for t in ms.triangles}
    mapped = {frozenset(perm[i] for i in t) for t in ms.triangles}
    assert tris == mapped


def test_euler_and_edge_count_invariants():
    for mesh in (TRIANGLE, TWO_TRIANGLES, morgan_scott_mesh()):
        c = mesh.face_counts()
        assert c.f0 - c.f1 + c.f2 == 1
        assert 3 * c.f2 == c.f1 + c.f1_interior


def test_triangles_normalized_ccw():
    m = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])  # given clockwise
    (a, b, c) = (m.vertices[i] for i in m.triangles[0])
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    assert cross > 0


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError, match="degenerate"):
        Mesh([(0, 0), (1, 1), (2, 2)], [(0, 1, 2)])


def test_non_manifold_edge_rejected():
    with pytest.raises(MeshError, match="non-manifold"):
        Mesh(
            [(0, 0), (1, 0), (0, 1), (0, -1), (2, 1)],
            [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
        )


def test_dangling_vertex_rejected():
    with pytest.raises(MeshError, match="dangling"):
        Mesh([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)])


def test_duplicate_vertices_rejected():
    with pytest.raises(MeshError, match="duplicate"):
        Mesh([(0, 0), (1, 0), (0, 1), (0, 0)], [(0, 1, 2), (3, 1, 2)])


def test_validate_disk_single_triangle():
    assert validate_disk(TRIANGLE).ok


def test_validate_disk_shared_vertex_only():
    m = Mesh(
        [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1, 2), (0, 3, 4)],
    )
    report = validate_disk(m)
    assert not report.ok
    assert report.failures == ("connected", "hereditary (vertex 0)", "boundary cycle")


def test_validate_disk_annulus():
    outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
    inner = [(1, 1), (3, 1), (3, 3), (1, 3)]
    tris = []
    for k in range(4):
        a, b = k, (k + 1) % 4
        tris.append((a, b, 4 + b))
        tris.append((a, 4 + b, 4 + a))
    m = Mesh(outer + inner, tris)
    report = validate_disk(m)
    assert not report.ok
    assert report.failures == ("euler characteristic", "boundary cycle")


def test_validate_disk_two_disjoint_triangles():
    m = Mesh([(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)], [(0, 1, 2), (3, 4, 5)])
    report = validate_disk(m)
    assert not report.ok
    assert report.failures == ("connected", "euler characteristic", "boundary cycle")


def test_validate_disk_rejects_a_fold():
    # both triangles lie above edge (0, 1) once turned counterclockwise
    m = Mesh([(0, 0), (2, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 0, 3)])
    assert m.triangles == ((0, 1, 2), (0, 1, 3))
    report = validate_disk(m)
    assert report.failures == ("consistent orientation (edge (0, 1))", "simple boundary")


def _winding_star():
    """Six counterclockwise triangles around the origin whose rim winds twice."""
    rays = [(1, 0), (-1, 2), (-1, -2)]
    rim = [(k * rays[(k - 1) % 3][0], k * rays[(k - 1) % 3][1]) for k in range(1, 7)]
    return Mesh([(0, 0), *rim], [(0, i, i % 6 + 1) for i in range(1, 7)])


def test_validate_disk_rejects_a_star_that_winds_twice():
    m = _winding_star()
    assert validate_disk(m).failures == ("simple boundary",)
    spec = SmoothnessSpec.uniform(m, 1, 1)
    with pytest.raises(MeshError, match="simple boundary"):
        euler_assembly(m, spec, 2)


def test_validate_disk_rejects_a_flipped_triangle():
    # the centre of star:cross moved past the rim edge from (1, 0) to (0, 1)
    cross = builtin_mesh("star:cross")
    m = Mesh([(F(4, 5), F(4, 5)), *cross.vertices[1:]], cross.triangles)
    report = validate_disk(m)
    assert report.failures == (
        "consistent orientation (edge (0, 1))",
        "consistent orientation (edge (0, 2))",
    )


FAN = [(0, 0), (2, 0), (0, 2), (-2, 0), (0, -2)]


@pytest.mark.parametrize(
    "last, ok",
    [
        ((1, -2), True),  # the fan spans less than a full turn
        ((2, 1), False),  # pushed across the boundary edge from (0, 0) to (2, 0)
        ((1, 0), False),  # onto that edge: the fan's two sides fold onto each other
    ],
)
def test_validate_disk_rejects_a_boundary_vertex_pushed_across_the_boundary(last, ok):
    m = Mesh([*FAN, last], [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    assert validate_disk(m).failures == (() if ok else ("simple boundary",))


def test_every_builtin_and_refinement_is_embedded():
    names = ["triangle", "two-triangles", "morgan-scott", "star:cross"]
    meshes = [builtin_mesh(n) for n in names + [f"star:{t}-generic" for t in range(3, 9)]]
    split = morgan_scott_mesh()
    for _ in range(3):
        split = powell_sabin_6split(split, 1, 2).refined
        meshes.append(split)
    assert all(validate_disk(m).ok for m in meshes)


def test_distinct_slopes():
    crossed = make_vertex_star([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert distinct_slopes_at(crossed, 0) == 2
    generic4 = make_vertex_star([(1, 0), (0, 1), (-2, 1), (-1, -3)])
    assert distinct_slopes_at(generic4, 0) == 4
    ct = make_vertex_star([(1, 0), (0, 1), (-1, -1)])
    assert distinct_slopes_at(ct, 0) == 3


def test_distinct_slopes_affine_invariance():
    ms = morgan_scott_mesh()
    # x -> 2x - y + 1/3, y -> x + y - 5 is invertible with rational entries
    mapped = Mesh(
        [
            (2 * x - y + F(1, 3), x + y - 5)
            for x, y in ms.vertices
        ],
        ms.triangles,
    )
    for v in range(ms.num_vertices):
        assert distinct_slopes_at(ms, v) == distinct_slopes_at(mapped, v)


def hom(p):
    """The affine rational point p as a primitive integer homogeneous point
    (X, Y, W) with W > 0, the form `Mesh.points` keeps each vertex in."""
    x, y = F(p[0]), F(p[1])
    w = math.lcm(x.denominator, y.denominator)
    xyw = (int(x * w), int(y * w), w)
    g = math.gcd(*xyw)
    return tuple(k // g for k in xyw)


def test_direction_key_identifies_opposites():
    p = hom((0, 0))
    assert direction_key(p, hom((2, 4))) == direction_key(p, hom((-1, -2)))
    assert direction_key(p, hom((F(1, 3), 0))) == (1, 0)


_COORD = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(_COORD, _COORD, _COORD, _COORD)
def test_direction_key_is_the_primitive_integer_direction(px, py, qx, qy):
    p, q = hom((px, py)), hom((qx, qy))
    if p == q:
        with pytest.raises(ValueError, match="zero direction"):
            direction_key(p, q)
        return
    key = direction_key(p, q)
    dx, dy = qx - px, qy - py
    assert all(type(k) is int for k in key)
    assert math.gcd(*key) == 1
    assert next(k for k in key if k) > 0
    assert key[0] * dy == key[1] * dx  # proportional to q - p
    assert direction_key(q, p) == key


def test_vertex_ordering_no_interior():
    order = vertex_ordering(TWO_TRIANGLES)
    assert sorted(order) == [0, 1, 2, 3]
    assert verify_vertex_ordering(TWO_TRIANGLES, order) is None


def test_vertex_ordering_fan():
    fan = make_vertex_star([(1, 0), (0, 1), (-1, 0), (0, -1)])
    order = vertex_ordering(fan)
    assert order[-1] == 0  # center is the only interior vertex
    assert verify_vertex_ordering(fan, order) is None


def test_vertex_ordering_powell_sabin_triangle():
    split = powell_sabin_6split(TRIANGLE, 1, 2)
    order = vertex_ordering(split.refined)
    assert verify_vertex_ordering(split.refined, order) is None


def test_vertex_ordering_powell_sabin_morgan_scott():
    split = powell_sabin_6split(morgan_scott_mesh(), 2, 3)
    order = vertex_ordering(split.refined)
    assert verify_vertex_ordering(split.refined, order) is None


def _ordering_by_rescan(mesh):
    """The greedy ordering as first written: each pick rescans the remaining
    interior vertices in index order and takes the first ready one."""
    order = sorted(mesh.boundary_vertices)
    placed = set(order)
    remaining = set(mesh.interior_vertices)

    def ready(v):
        p = hom(mesh.vertices[v])
        slopes = {direction_key(p, hom(mesh.vertices[w])) for w in predecessors(mesh, v, placed)}
        return len(slopes) > 1

    while remaining:
        pick = next((v for v in sorted(remaining) if ready(v)), None)
        if pick is None:
            break
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    assert not remaining
    return order


def test_vertex_ordering_equals_the_rescanning_greedy():
    ms = morgan_scott_mesh()
    ps6 = powell_sabin_6split(ms, 1, 2).refined
    meshes = [
        ms,
        ps6,
        powell_sabin_6split(ps6, 1, 2).refined,
        powell_sabin_6split(TWO_TRIANGLES, 2, 3).refined,
        builtin_mesh("star:cross"),
        *(builtin_mesh(f"star:{t}-generic") for t in range(3, 9)),
    ]
    for mesh in meshes:
        assert vertex_ordering(mesh) == _ordering_by_rescan(mesh), mesh


def test_verify_vertex_ordering_rejects_bad_orders():
    fan = make_vertex_star([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert verify_vertex_ordering(fan, [0, 1, 2]) is not None  # not a permutation
    # an original interior vertex of the split Morgan-Scott mesh (the split
    # keeps source indices) has only interior neighbors, so listing it first
    # among the interior is bad
    base = morgan_scott_mesh()
    m = powell_sabin_6split(base, 1, 1).refined
    v = min(set(range(base.num_vertices)) & m.interior_vertices)
    order = sorted(m.boundary_vertices) + [v] + sorted(
        m.interior_vertices - {v}
    )
    assert verify_vertex_ordering(m, order) is not None


def test_mesh_json_round_trip():
    ms = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(ms, 1, 2)
    data = mesh_to_json(ms, spec)
    text = json.dumps(data)
    mesh2, spec2 = load_mesh_document(text)
    assert (mesh2.vertices, mesh2.triangles) == (ms.vertices, ms.triangles)
    assert (spec2.r, spec2.s) == (spec.r, spec.s)


def test_mesh_json_with_overrides():
    ms = morgan_scott_mesh()
    doc = mesh_to_json(ms)
    doc["smoothness"] = {
        "default_r": 1,
        "default_s": 2,
        "edge_r": [[3, 4, 3]],
        "vertex_s": [[0, 5]],
    }
    mesh2, spec2 = load_mesh_document(json.dumps(doc))
    assert spec2.r[(3, 4)] == 3
    assert spec2.s[0] == 5
    assert spec2.s[1] == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("default_r", 1.5),
        ("default_r", True),
        ("default_r", "1"),
        ("default_s", 2.9),
        ("default_s", False),
        ("edge_r", [[3, 4, 2.5]]),
        ("edge_r", [[3.0, 4, 2]]),
        ("edge_r", [[3, 4, True]]),
        ("vertex_s", [[0, 5.5]]),
        ("vertex_s", [["0", 5]]),
    ],
)
def test_smoothness_orders_must_be_json_integers(field, value):
    doc = mesh_to_json(morgan_scott_mesh())
    doc["smoothness"] = {"default_r": 1, "default_s": 2, field: value}
    with pytest.raises(MeshError, match=f"{field} must hold JSON integers"):
        load_mesh_document(json.dumps(doc))


@pytest.mark.parametrize("index", [1.7, 1.0, True, "1"])
def test_triangle_indices_must_be_json_integers(index):
    doc = mesh_to_json(TWO_TRIANGLES)
    doc["triangles"][0][1] = index
    with pytest.raises(MeshError, match="triangles must hold JSON integers"):
        load_mesh_document(json.dumps(doc))


def test_load_mesh_parse_failure():
    with pytest.raises(MeshError, match="JSON"):
        load_mesh_document("{not json")


def test_a_zero_denominator_coordinate_is_a_malformed_document():
    # this used to escape as a ZeroDivisionError
    doc = mesh_to_json(TRIANGLE)
    doc["vertices"][1] = ["1/0", "0"]
    with pytest.raises(MeshError, match="malformed mesh document"):
        load_mesh_document(json.dumps(doc))


def test_an_integer_past_the_digit_limit_is_a_malformed_document():
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    text = '{"vertices": [[0, 0], [1, 0], [%s, 1]], "triangles": [[0, 1, 2]]}' % ("1" * 5000)
    with pytest.raises(MeshError, match="^malformed mesh document: "):
        load_mesh_document(text)


@pytest.mark.parametrize("triangle", [[0, 1, 2, 3], [0, 1], []])
def test_a_triangle_without_three_indices_is_named_as_such(triangle):
    # both used to be reported as a triangle that repeats a vertex
    doc = mesh_to_json(TWO_TRIANGLES)
    doc["triangles"][0] = triangle
    with pytest.raises(MeshError, match=rf"triangle .* needs 3 vertex indices, got {len(triangle)}$"):
        load_mesh_document(json.dumps(doc))


def test_smoothness_spec_validation():
    with pytest.raises(MeshError):
        SmoothnessSpec(TWO_TRIANGLES, {}, {v: 1 for v in range(4)})
    with pytest.raises(MeshError):
        SmoothnessSpec(TWO_TRIANGLES, {(0, 2): -1}, {v: 1 for v in range(4)})
    spec = SmoothnessSpec.uniform(TWO_TRIANGLES, 1)
    assert spec.r == {(0, 2): 1} and spec.s == {v: 1 for v in range(4)}
    assert spec.effective_s(0, (0, 2)) == 1


@pytest.mark.parametrize("index", [1.7, 1.0, True, "1", F(1)])
def test_mesh_rejects_non_integer_triangle_indices(index):
    with pytest.raises(MeshError, match="triangles must hold integers"):
        Mesh([(0, 0), (1, 0), (0, 1)], [(0, index, 2)])


@pytest.mark.parametrize("coordinate", [0.1, 1.0, "1/2", True, None, 1j])
def test_mesh_rejects_coordinates_that_are_not_ints_or_fractions(coordinate):
    # Fraction() used to turn 0.1 into 3602879701896397/36028797018963968
    with pytest.raises(MeshError, match="vertex coordinates must be ints or Fractions"):
        Mesh([(coordinate, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    with pytest.raises(MeshError, match="vertex coordinates must be ints or Fractions"):
        Mesh([(0, 0), (1, coordinate), (0, 1)], [(0, 1, 2)])


def test_mesh_keeps_int_and_fraction_coordinates_exact():
    mesh = Mesh([(0, 0), (F(1, 3), 0), (0, 7)], [(0, 1, 2)])
    assert mesh.vertices == ((0, 0), (F(1, 3), 0), (0, 7))
    assert all(type(c) is Fraction for p in mesh.vertices for c in p)


_S = {v: 2 for v in range(4)}


@pytest.mark.parametrize(
    "r, s",
    [
        ({(0, 2): 1.9}, _S),
        ({(0, 2): True}, _S),
        ({(0, 2): "1"}, _S),
        ({(0, 2.0): 1}, _S),
        ({(0, F(2)): 1}, _S),
        ({(0, 2): 1}, {**_S, 3: 2.5}),
        ({(0, 2): 1}, {**_S, 3: 1.0}),
        ({(0, 2): 1}, {0: 2, 1.0: 2, 2: 2, 3: 2}),
        ({(0, 2): 1}, {0: 2, True: 2, 2: 2, 3: 2}),
    ],
)
def test_smoothness_spec_rejects_non_integer_indices_and_orders(r, s):
    # int() used to truncate these silently: r = 1.9 was stored as 1
    with pytest.raises(MeshError, match="smoothness indices and orders must hold integers"):
        SmoothnessSpec(TWO_TRIANGLES, r, s)


def test_star_and_fractional_coordinates():
    m = Mesh(
        [(F(1, 2), F(1, 3)), (F(5, 2), F(1, 3)), (F(1, 2), F(7, 3))],
        [(0, 1, 2)],
    )
    assert validate_disk(m).ok
