"""Tests for the triangulation data structure and combinatorics."""

import json
from fractions import Fraction

import pytest

from splinedim.mesh import (
    Mesh,
    MeshError,
    SmoothnessSpec,
    direction_key,
    distinct_slopes_at,
    load_mesh_document,
    mesh_to_json,
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
    assert any("hereditary" in f for f in report.failures)


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
    assert "euler characteristic" in report.failures


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


def test_direction_key_identifies_opposites():
    p = (F(0), F(0))
    assert direction_key(p, (F(2), F(4))) == direction_key(p, (F(-1), F(-2)))
    assert direction_key(p, (F(1, 3), F(0))) == (1, 0)


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


def test_verify_vertex_ordering_rejects_bad_orders():
    fan = make_vertex_star([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert verify_vertex_ordering(fan, [0, 1, 2]) is not None  # not a permutation
    # an original interior vertex of the split Morgan-Scott mesh has only
    # interior neighbors, so listing it first among the interior is bad
    split = powell_sabin_6split(morgan_scott_mesh(), 1, 1)
    m = split.refined
    v = min(set(split.original_vertex) & m.interior_vertices)
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


def test_smoothness_spec_validation():
    with pytest.raises(MeshError):
        SmoothnessSpec(TWO_TRIANGLES, {}, {v: 1 for v in range(4)})
    with pytest.raises(MeshError):
        SmoothnessSpec(TWO_TRIANGLES, {(0, 2): -1}, {v: 1 for v in range(4)})
    spec = SmoothnessSpec.uniform(TWO_TRIANGLES, 1)
    assert spec.is_uniform() == (1, 1)
    assert spec.effective_s(0, (0, 2)) == 1


def test_star_and_fractional_coordinates():
    m = Mesh(
        [(F(1, 2), F(1, 3)), (F(5, 2), F(1, 3)), (F(1, 2), F(7, 3))],
        [(0, 1, 2)],
    )
    assert validate_disk(m).ok
