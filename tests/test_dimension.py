"""Tests for the dimension pipeline: oracle, homology, bounds, formulas."""

import gc
import io
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinedim.dimension
import splinedim.ideals
import splinedim.mesh
from splinedim.cli import STAR_DIRECTIONS, builtin_mesh, main
from splinedim.dimension import (
    EdgePieces,
    InternalInconsistencyError,
    OutOfRangeError,
    _DegreeSystem,
    _exact_dim_reduced,
    argyris_dim,
    check_euler_side,
    euler_assembly,
    exact_dimension,
    h0_dimension,
    intrinsic_supersmoothness_order,
    lower_bound_51,
    lower_bound_52,
    ps_dim_general,
    schumaker_dim,
    star_profile,
    star_smoothness_spec,
    upper_bound_53,
    vertex_star_dim,
)
from splinedim.ideals import edge_ideal_for, graded_piece_matrix, vertex_ideal, vertex_ideal_edges
from splinedim.mesh import Mesh, MeshError, SmoothnessSpec, _connected
from splinedim.polyring import graded_monomial_basis
from splinedim.ratlinalg import RatMatrix, binom, reduced_kernel
from splinedim.refine import make_vertex_star, morgan_scott_mesh, powell_sabin_6split

F = Fraction

TRIANGLE = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
TWO = Mesh([(0, 0), (3, 0), (3, 3), (0, 3)], [(0, 1, 2), (0, 2, 3)])
CROSS = make_vertex_star([(1, 0), (0, 1), (-1, 0), (0, -1)])
STAR3 = make_vertex_star([(1, 0), (-1, 2), (-1, -3)])
STAR4 = make_vertex_star([(1, 0), (0, 1), (-2, 1), (-1, -3)])
PS6 = powell_sabin_6split(morgan_scott_mesh(), 1, 2)
PS6X2 = powell_sabin_6split(PS6.refined, 1, 2)


def test_exact_single_triangle_is_all_polynomials():
    for r, s, d in [(1, 2, 4), (0, 0, 3), (2, 5, 6)]:
        spec = SmoothnessSpec.uniform(TRIANGLE, r, s)
        assert exact_dimension(TRIANGLE, spec, d) == binom(d + 2, 2)


def test_exact_two_triangle_argyris_value():
    spec = SmoothnessSpec.uniform(TWO, 1, 2)
    assert exact_dimension(TWO, spec, 5) == 29


def _system(mesh, spec, d):
    """Degree d's system, of edge pieces built at d."""
    return EdgePieces(mesh, spec, d).system(d)


def _exact_dim_stacked(sys):
    """Reference kernel: the full stacked constraint system, one block of
    unknowns per triangle and one row per edge functional.  Each edge's
    functionals are its own graded piece's kernel, so the reference shares
    no computed data with the oracle."""
    mesh, n = sys.mesh, sys.ncoef
    rows = []
    for e in sorted(mesh.interior_edges):
        ta, tb = mesh.edge_triangles[e]
        piece = graded_piece_matrix(edge_ideal_for(mesh, sys.smooth, e).generators, sys.d)
        for q in piece.kernel_basis():
            row = {}
            for c, v in q.items():
                row[ta * n + c] = v
                row[tb * n + c] = -v
            rows.append(row)
    total_unknowns = mesh.num_triangles * n
    return total_unknowns - RatMatrix(rows, total_unknowns).rank()


def test_exact_methods_agree():
    rng = random.Random(4)
    meshes = [TWO, CROSS, STAR3, morgan_scott_mesh()]
    for _ in range(10):
        mesh = rng.choice(meshes)
        r = rng.randint(0, 2)
        s = r + rng.randint(0, 2)
        d = rng.randint(0, 5)
        sys = _system(mesh, SmoothnessSpec.uniform(mesh, r, s), d)
        assert _exact_dim_stacked(sys) == _exact_dim_reduced(sys), (r, s, d)
    # 6-splits with their induced mixed specs: edge dimensions differ
    for base in ("morgan-scott", "two-triangles"):
        for r, s in [(0, 1), (1, 2), (2, 3)]:
            split = powell_sabin_6split(builtin_mesh(base), r, s)
            mixed = False
            for d in range(6):
                sys = _system(split.refined, split.spec, d)
                mixed |= len({len(basis) for basis in sys.bases.values()}) > 1
                assert _exact_dim_stacked(sys) == _exact_dim_reduced(sys), (base, r, s, d)
            assert mixed
    # the 6-split twice, whose cuts reach across many fans
    for d in range(3):
        sys = _system(PS6X2.refined, PS6X2.spec, d)
        assert _exact_dim_stacked(sys) == _exact_dim_reduced(sys), d


_STARS = ("star:cross", *(f"star:{t}-generic" for t in STAR_DIRECTIONS))
_COTREE_MESHES = {
    "triangle": TRIANGLE,
    "two-triangles": TWO,
    "morgan-scott": morgan_scott_mesh(),
    "ps6-ms": PS6.refined,
    "ps6x2": PS6X2.refined,
    **{name: builtin_mesh(name) for name in _STARS},
}


def _left_sign(mesh, v, w):
    """+1 if edge_triangles[vw][0] lies left of v -> w, by its third vertex."""
    e = tuple(sorted((v, w)))
    (c,) = set(mesh.triangles[mesh.edge_triangles[e][0]]) - {v, w}
    (px, py), (qx, qy), (cx, cy) = (mesh.vertices[i] for i in (v, w, c))
    return 1 if (qx - px) * (cy - py) - (qy - py) * (cx - px) > 0 else -1


def _search_order(mesh):
    """The boundary vertices in index order, then breadth-first: each
    interior vertex once a vertex before it in the list first reaches it,
    neighbours in index order."""
    order = sorted(mesh.boundary_vertices)
    for u in order:
        order += [w for w in mesh.vertex_neighbors[u] if w in mesh.interior_vertices and w not in order]
    return order


@pytest.mark.parametrize("name", sorted(_COTREE_MESHES))
def test_the_cotree_spans_the_dual_graph_and_each_forest_edge_has_its_cut(name):
    mesh = _COTREE_MESHES[name]
    cotree, cuts, child = mesh.cotree
    forest = set(cuts)
    assert len(cotree) == len(set(cotree)) == mesh.num_triangles - 1
    assert set(cotree) | forest == mesh.interior_edges and not forest & set(cotree)
    assert _connected(range(mesh.num_triangles), (mesh.edge_triangles[e] for e in cotree))
    # from the boundary inward: by the search position of the later end;
    # each forest edge joins its child to the vertex that first reached it
    position = {v: k for k, v in enumerate(_search_order(mesh))}
    assert list(cotree) == sorted(cotree, key=lambda e: (max(position[e[0]], position[e[1]]), e))
    for f, v in child.items():
        reached_from = min(mesh.vertex_neighbors[v], key=position.get)
        assert f == tuple(sorted((v, reached_from))), f
    # one forest edge per interior vertex: with the boundary as one node,
    # V_int edges connecting V_int + 1 nodes form a spanning tree
    assert len(forest) == len(mesh.interior_vertices)
    node = {v: -1 if v in mesh.boundary_vertices else v for v in range(mesh.num_vertices)}
    assert _connected([-1, *mesh.interior_vertices], ((node[a], node[b]) for a, b in forest))
    for cut in cuts.values():
        assert set(cut) <= set(cotree) and set(cut.values()) <= {1, -1}
    # each interior vertex is the child of one forest edge, at one of its ends
    assert child.keys() == forest and all(v in f for f, v in child.items())
    assert sorted(child.values()) == sorted(mesh.interior_vertices)
    # the kernel oracle's row selection rests on this: a cut is its child's
    # fan of cotree edges plus the cuts of the forest edges hanging below it
    for f, v in child.items():
        want = {}
        for w in mesh.vertex_neighbors[v]:
            e = tuple(sorted((v, w)))
            if e not in forest:
                want[e] = _left_sign(mesh, v, w)
        for g, w in child.items():
            if sum(g) - w == v:
                for e, sign in cuts[g].items():
                    want[e] = want.get(e, 0) + sign
        assert cuts[f] == {e: sign for e, sign in want.items() if sign}, v
    if name.startswith("ps6"):
        # some cut sums more than one fan: no vertex lies on all its edges
        assert any(not set.intersection(*(set(e) for e in cut)) for cut in cuts.values())


def _oracle_rows_and_rank(monkeypatch, sys):
    """The nonzero rows, all rows and the rank of the kernel oracle's one rank() call."""
    seen = []
    rank = RatMatrix.rank

    def recorded(self):
        seen.append((sum(1 for row in self.row_dicts() if row), self.nrows, rank(self)))
        return seen[-1][2]

    monkeypatch.setattr(RatMatrix, "rank", recorded)
    _exact_dim_reduced(sys)
    monkeypatch.undo()
    (found,) = seen
    return found


@pytest.mark.parametrize(
    "base, r, s, d, h0",
    [
        ("ps6:morgan-scott", 2, 3, 4, 9),
        ("ps6:morgan-scott", 2, 3, 5, 0),
        ("ps6:morgan-scott", 2, 3, 6, 0),
        ("ps6:morgan-scott", 3, 4, 5, 14),
        ("ps6:morgan-scott", 3, 5, 7, 1),
        *(("ps6x2", 1, 2, d, None) for d in range(4)),
    ],
)
def test_the_kernel_oracle_builds_only_h0_dependent_rows(monkeypatch, base, r, s, d, h0):
    """Each forest edge keeps dim J(v)_d - dim J(f)_d rows, v its child, all
    nonzero, and only h0 of all the rows are dependent.  Every functional of
    every forest edge would give sum_v codim J(v)_d more."""
    if base == "ps6x2":
        mesh, spec = PS6X2.refined, PS6X2.spec
    else:
        split = powell_sabin_6split(morgan_scott_mesh(), r, s)
        mesh, spec = split.refined, split.spec
    sys = _system(mesh, spec, d)
    nonzero, nrows, rank = _oracle_rows_and_rank(monkeypatch, sys)
    assert nrows == nonzero == sum(sys.full[v] - len(sys.bases[f]) for f, v in mesh.cotree[2].items())
    assert nonzero - rank == h0_dimension(mesh, spec, d, sys.pieces)
    assert h0 in (None, nonzero - rank)


def _reference_oracle_rows(sys):
    """The kernel oracle's rows with each kept functional applied to every
    edge of its cut, each cotree basis indexed by kernel column."""
    dimension = splinedim.dimension
    cotree, cuts, child = sys.mesh.cotree
    columns, ncols = {}, 0
    for e in cotree:
        columns[e] = dimension._columns(sys.bases[e], ncols)
        ncols += len(sys.bases[e])
    return [
        {c: sign * val for te, sign in cut.items() for c, val in dimension._apply(q, columns[te]).items()}
        for f, cut in cuts.items()
        for q in _kept_functionals(sys, f, child[f])
    ]


def _oracle_row_cases():
    for name, mesh in _COTREE_MESHES.items():
        if not name.startswith("ps6"):
            yield pytest.param(mesh, SmoothnessSpec.uniform(mesh, 1, 2), range(2, 7), id=name)
    for r, s in ((1, 2), (2, 3), (3, 4)):
        split = powell_sabin_6split(morgan_scott_mesh(), r, s)
        yield pytest.param(split.refined, split.spec, range(r + 2, r + 5), id=f"ps6-ms-{r}-{s}")


@pytest.mark.parametrize("mesh, spec, degrees", _oracle_row_cases())
def test_the_oracle_rows_read_off_the_selection_equal_the_whole_cut_reference(monkeypatch, mesh, spec, degrees):
    """The row parts on a child's cotree edges come from the selection's
    values; every row must equal the kept functional applied to its whole cut."""
    for d in degrees:
        sys = _system(mesh, spec, d)
        ranked = []
        with monkeypatch.context() as patched:
            patched.setattr(RatMatrix, "rank", lambda self: ranked.append(list(self.row_dicts())) or 0)
            _exact_dim_reduced(sys)
        (rows,) = ranked
        assert rows == _reference_oracle_rows(sys), d


def _ps6_ms_23():
    split = powell_sabin_6split(morgan_scott_mesh(), 2, 3)
    return split.refined, split.spec


def test_the_kernel_oracle_reads_no_vertex_pivots(monkeypatch):
    """The oracle and the Euler assembly are independent paths: one lost
    leading monomial at one vertex, at a degree where h0 = 0, must show as
    a disagreement.  Were the oracle to read the vertex pivots too, both
    would return exact + 1 and the check would pass on the wrong answer."""
    mesh, spec = _ps6_ms_23()
    report = euler_assembly(mesh, spec, 5)
    assert report.h0 == 0
    sys = _system(mesh, spec, 5)
    v = next(v for v in sys.interior if sys.tilde[v] < sys.full[v])
    real = _DegreeSystem.full_pivots.func

    def unread(self):
        raise AssertionError("the kernel oracle read the vertex pivots")

    monkeypatch.setattr(_DegreeSystem, "full_pivots", property(unread))
    assert _exact_dim_reduced(_system(mesh, spec, 5)) == report.exact

    def lossy(self):
        pivots = real(self)
        return {**pivots, v: pivots[v][:-1]}

    monkeypatch.setattr(_DegreeSystem, "full_pivots", property(lossy))
    message = rf"kernel oracle {report.exact} vs Euler assembly {report.exact + 1},.*: \[\]$"
    with pytest.raises(InternalInconsistencyError, match=message):
        euler_assembly(mesh, spec, 5)


def test_a_dropped_kernel_oracle_row_is_caught(monkeypatch):
    """At h0 = 0 every row the oracle keeps is independent, so dropping one
    functional from its selection raises the oracle's dimension by one."""
    mesh, spec = _ps6_ms_23()
    exact = euler_assembly(mesh, spec, 5).exact
    select = splinedim.dimension._independent_functionals
    calls = []

    def drop_one(sys, f, v):
        functionals, kept, values = select(sys, f, v)
        calls.append(f)
        return functionals, kept[1:] if len(calls) == 1 else kept, values

    monkeypatch.setattr(splinedim.dimension, "_independent_functionals", drop_one)
    message = rf"kernel oracle {exact + 1} vs Euler assembly {exact},"
    with pytest.raises(InternalInconsistencyError, match=message):
        euler_assembly(mesh, spec, 5)
    assert len(calls) == len(mesh.interior_vertices)


@pytest.mark.parametrize("name", sorted(_COTREE_MESHES))
def test_each_edge_basis_lists_its_reduced_rows_in_decreasing_pivot_column(name):
    """The kernel oracle and h0 lay out their columns in basis order, so the
    rows with the fewest possible entries come first."""
    mesh = _COTREE_MESHES[name]
    spec = SmoothnessSpec.uniform(mesh, 1, 2)
    for e, basis in _system(mesh, spec, 4).bases.items():
        pivots, rows = graded_piece_matrix(edge_ideal_for(mesh, spec, e).generators, 4).rref()
        assert basis == rows[::-1]
        assert [min(b) for b in basis] == pivots[::-1] == sorted(set(pivots), reverse=True)


@pytest.mark.parametrize(
    "name, r, s, d",
    [
        *(("ps6:morgan-scott", 2, 3, d) for d in (4, 5, 6)),
        ("star:8-generic", 3, 6, 12),
        ("star:8-generic", 3, 6, 20),
        ("morgan-scott", 1, 2, 4),
        ("star:5-generic", 1, 2, 4),
        ("star:cross", 1, 1, 3),
    ],
)
def test_a_forest_edges_functionals_are_the_kernel_of_its_graded_piece(monkeypatch, name, r, s, d):
    """The oracle reads a forest edge's functionals off its basis alone.
    The basis is the reduced echelon form of the edge's graded piece, and a
    space has one such form, so the basis's kernel is the piece's kernel,
    vector for vector, and `reduced_kernel` reads it with no elimination:
    it equals `kernel_basis` of the basis and of the piece, and, from
    pieces built two degrees higher, the same vectors in the top columns."""
    if name == "ps6:morgan-scott":
        split = powell_sabin_6split(morgan_scott_mesh(), r, s)
        mesh, spec = split.refined, split.spec
    elif name.startswith("star:8"):
        mesh = builtin_mesh(name)
        spec = star_smoothness_spec(mesh, r, s)
    else:
        mesh = builtin_mesh(name)
        spec = SmoothnessSpec.uniform(mesh, r, s)
    bases = _system(mesh, spec, d).bases
    top = EdgePieces(mesh, spec, d + 2)
    shift, top_bases = top.ncols - binom(d + 2, 2), top.system(d).bases
    passes = []
    echelon_rows = splinedim.ratlinalg._echelon_rows
    monkeypatch.setattr(splinedim.ratlinalg, "_echelon_rows", lambda *args: passes.append(args) or echelon_rows(*args))
    assert mesh.cotree[1]
    for f in mesh.cotree[1]:
        functionals = reduced_kernel(bases[f], range(binom(d + 2, 2)))
        in_top = reduced_kernel(top_bases[f], range(shift, top.ncols))
        assert not passes, f
        basis = RatMatrix(bases[f], binom(d + 2, 2))
        assert basis.rref() == (sorted(map(min, bases[f])), bases[f][::-1])
        piece = graded_piece_matrix(edge_ideal_for(mesh, spec, f).generators, d)
        assert functionals == piece.kernel_basis() == basis.kernel_basis(), f
        assert [{c - shift: v for c, v in q.items()} for q in in_top] == functionals, f
        assert passes  # the hook sees the eliminations the references run
        passes.clear()


def test_a_report_builds_functionals_only_at_forest_edges(monkeypatch):
    """One kernel per forest edge, that is, per interior vertex, and none at
    the cotree edges, whose functionals nothing reads; each is read off the
    edge's basis, and no kernel is eliminated for."""
    mesh, spec = _ps6_ms_23()
    reduced_kernel, owners = splinedim.dimension.reduced_kernel, []

    def counted(rows, columns):
        owners.append(rows)
        return reduced_kernel(rows, columns)

    monkeypatch.setattr(splinedim.dimension, "reduced_kernel", counted)
    monkeypatch.setattr(RatMatrix, "kernel_basis", None)
    euler_assembly(mesh, spec, 5)
    assert len(owners) == len(mesh.cotree[1]) == len(mesh.interior_vertices) == 19


def _h0_boundary_rows(sys):
    """Reference h0: the boundary map assembled untransposed, one row per
    edge basis vector with +b at the higher and -b at the lower endpoint's
    block (interior endpoints only)."""
    n = sys.pieces.ncols
    interior = sorted(sys.mesh.interior_vertices)
    block = {v: i * n for i, v in enumerate(interior)}
    rows = []
    for (lo, hi), basis in sys.bases.items():
        for bvec in basis:
            row = {}
            for v, sign in ((hi, 1), (lo, -1)):
                if v in block:
                    for c, val in bvec.items():
                        row[block[v] + c] = sign * val
            rows.append(row)
    rank = RatMatrix(rows, n * len(interior)).rank()
    return sum(sys.full.values()) - rank


def _random_spec(rng, mesh):
    """Per-edge r and per-vertex s, each drawn from 0..3."""
    r = {e: rng.randint(0, 3) for e in mesh.interior_edges}
    s = {v: rng.randint(0, 3) for v in range(mesh.num_vertices)}
    return SmoothnessSpec(mesh, r, s)


def test_h0_equals_the_untransposed_boundary_map():
    for mesh in (TWO, CROSS, morgan_scott_mesh()):
        for r, s in [(0, 0), (1, 1), (1, 2), (2, 3)]:
            spec = SmoothnessSpec.uniform(mesh, r, s)
            for d in range(7):
                sys = _system(mesh, spec, d)
                assert h0_dimension(mesh, spec, d) == _h0_boundary_rows(sys), (r, s, d)
    split = powell_sabin_6split(morgan_scott_mesh(), 3, 4)
    sys = _system(split.refined, split.spec, 5)
    assert _h0_boundary_rows(sys) == 14
    assert h0_dimension(split.refined, split.spec, 5) == 14
    # 6-splits, whose vertex blocks share edge columns, with h0 > 0 at the
    # lowest degree of each; h0 on a fresh system and on one that has ranked
    # only its tilde ideals must not depend on what ran before
    jobs = [(powell_sabin_6split(morgan_scott_mesh(), 2, 3), d, h) for d, h in ((4, 9), (5, 0), (6, 0))]
    jobs.append((powell_sabin_6split(morgan_scott_mesh(), 3, 5), 7, 1))
    for split, d, h0 in jobs:
        mesh, spec = split.refined, split.spec
        fresh = h0_dimension(mesh, spec, d, EdgePieces(mesh, spec, d))
        after_tilde = EdgePieces(mesh, spec, d)
        after_tilde.system(d).tilde
        assert fresh == h0_dimension(mesh, spec, d, after_tilde) == h0
        assert _h0_boundary_rows(_system(mesh, spec, d)) == h0, d
    # random per-edge and per-vertex orders
    rng = random.Random(13)
    split = powell_sabin_6split(builtin_mesh("two-triangles"), 1, 2).refined
    positive = 0
    for mesh in [morgan_scott_mesh(), split] * 4:
        spec = _random_spec(rng, mesh)
        for d in range(7):
            expected = _h0_boundary_rows(_system(mesh, spec, d))
            assert h0_dimension(mesh, spec, d) == expected, (spec.r, spec.s, d)
            positive += expected > 0
    assert positive >= 10


@pytest.mark.parametrize("name", sorted(_COTREE_MESHES))
def test_each_interior_edge_is_a_tilde_edge_of_its_later_end_alone(name):
    """The premise of h0's block-triangular layout: along `Mesh.ordering`,
    which lists the boundary first, an interior edge with an interior end is
    a tilde edge of exactly one end, its later one (the interior one when
    the other lies on the boundary); an edge between two boundary vertices
    is no vertex's and meets no row of the boundary map."""
    mesh = _COTREE_MESHES[name]
    order = list(mesh.ordering)
    owners = Counter()
    for v in mesh.interior_vertices:
        for e in vertex_ideal_edges(mesh, v, "tilde"):
            assert v == max(e, key=order.index), (e, v)
            owners[e] += 1
    inner = {e for e in mesh.interior_edges if not set(e) <= mesh.boundary_vertices}
    assert owners == Counter(dict.fromkeys(inner, 1))


def test_h0_builds_no_matrix_where_tilde_equals_full(monkeypatch):
    """On the 6-split twice at (1,2) d=5, tilde = full at all 121 interior
    vertices, so the boundary map is block triangular with diagonal blocks
    of full row rank: h0 = 0 with no matrix built, and the untransposed
    boundary map assembled here has full rank too."""
    mesh, spec = PS6X2.refined, PS6X2.spec
    sys = _system(mesh, spec, 5)
    assert len(sys.interior) == 121 and all(sys.tilde[v] == sys.full[v] for v in sys.interior)

    def unbuilt(*args):
        raise AssertionError("h0 built a matrix")

    with monkeypatch.context() as patched:
        patched.setattr(RatMatrix, "__init__", unbuilt)
        patched.setattr(RatMatrix, "_of_int_rows", unbuilt)
        assert h0_dimension(mesh, spec, 5, sys.pieces) == 0
    assert _h0_boundary_rows(sys) == 0


def test_the_tilde_shortcut_cannot_hide_h0(monkeypatch):
    """With every interior edge at v taken as a tilde edge, tilde = full
    everywhere and h0 reads 0 with no rank.  At ps6-ms (2,3) d=4, where
    h0 = 9, the Euler identity then misses the kernel oracle by 9 and the
    report raises."""
    mesh, spec = _ps6_ms_23()
    edges = vertex_ideal_edges
    monkeypatch.setattr(splinedim.dimension, "vertex_ideal_edges", lambda mesh, v, variant: edges(mesh, v, "full"))
    assert h0_dimension(mesh, spec, 4) == 0
    with pytest.raises(InternalInconsistencyError, match="kernel oracle 16 vs Euler assembly 7,"):
        euler_assembly(mesh, spec, 4)


def test_the_kernel_oracle_needs_no_vertex_ordering(monkeypatch):
    """`--method exact` reads no admissible ordering: the cotree follows its
    own breadth-first search, not `Mesh.ordering`."""
    split = powell_sabin_6split(morgan_scott_mesh(), 2, 3)

    def unordered(self):
        raise AssertionError("the kernel oracle read Mesh.ordering")

    monkeypatch.setattr(Mesh, "ordering", property(unordered))
    pieces = EdgePieces(split.refined, split.spec, 6)
    assert [exact_dimension(split.refined, split.spec, d, pieces) for d in (4, 5, 6)] == [16, 67, 160]
    argv = ["dim", "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3", "-d", "5", "--method", "exact"]
    assert main(argv, out=io.StringIO()) == 0


def _stack_steps(monkeypatch, pieces):
    """Fraction-free steps of each variant's grown stacks, after the edge
    pieces' own rref."""
    pieces._tops
    eliminate, steps = splinedim.ratlinalg._eliminate, []
    monkeypatch.setattr(splinedim.ratlinalg, "_eliminate", lambda *args: steps.append(1) or eliminate(*args))
    counts = {}
    for variant in ("full", "tilde"):
        steps.clear()
        pieces._stacks(variant)
        counts[variant] = len(steps)
    monkeypatch.undo()
    return counts


def test_each_vertex_stack_stops_at_the_space_its_rows_lie_in(monkeypatch):
    """Work pin on the grown full and tilde stacks, in fraction-free steps.
    Run to the end, the 6-split twice at (1,2) d=5 took 21,327 and 8,085,
    and star8 (3,6) over the degrees 0..20 of its 12:20 table 4,753 per
    variant; stopped at dim (m_v^(t+1))_d, 5,747 and 3,260, and 455."""
    assert _stack_steps(monkeypatch, EdgePieces(PS6X2.refined, PS6X2.spec, 5)) == {"full": 5747, "tilde": 3260}
    star = builtin_mesh("star:8-generic")
    pieces = EdgePieces(star, star_smoothness_spec(star, 3, 6), 20)
    assert _stack_steps(monkeypatch, pieces) == {"full": 455, "tilde": 455}


def test_both_global_systems_eliminate_from_the_boundary_inward(monkeypatch):
    """Work pin on the 6-split twice at (1,2) d=5: fraction-free steps and
    entry updates (the kept row's entries, per step) of the kernel oracle's
    rank and of the transposed boundary map's integer pass, which meets the
    pivots of h0's modular pass.  With the cotree by cut count and the edges
    in index order they took 3007 steps and 124,792 updates, and 10,010
    steps and 222,027 updates; laid out from the boundary inward, 1443 and
    62,771, and 4979 and 49,720."""
    mesh, spec = PS6X2.refined, PS6X2.spec
    sys = _system(mesh, spec, 5)
    boundary = splinedim.dimension._boundary_transposed(sys)
    eliminate, work, rank = splinedim.ratlinalg._eliminate, Counter(), RatMatrix.rank

    def counted(row, piv, pc, owned):
        work["steps"] += 1
        work["updates"] += len(piv)
        return eliminate(row, piv, pc, owned)

    monkeypatch.setattr(splinedim.ratlinalg, "_eliminate", counted)
    assert rank(boundary) == boundary.nrows == 1815
    assert work["steps"] <= 4979 and work["updates"] <= 49720, work
    work.clear()
    ranked = []
    monkeypatch.setattr(RatMatrix, "rank", lambda self: ranked.append(dict(work)) or rank(self))
    assert _exact_dim_reduced(sys) == 1050
    oracle = work - Counter(ranked[0])
    assert oracle["steps"] <= 1443 and oracle["updates"] <= 62771, oracle


@pytest.mark.parametrize(
    "entry",
    [
        exact_dimension,
        h0_dimension,
        lower_bound_51,
        lower_bound_52,
        upper_bound_53,
        euler_assembly,
    ],
)
def test_negative_degree_is_rejected(entry):
    for mesh in (TWO, CROSS):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            entry(mesh, SmoothnessSpec.uniform(mesh, 1, 2), -1)


def test_exact_rejects_invalid_mesh():
    bad = Mesh(
        [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1, 2), (0, 3, 4)],
    )
    with pytest.raises(MeshError):
        exact_dimension(bad, SmoothnessSpec.uniform(bad, 1), 3)


def test_euler_identity_on_small_meshes():
    for mesh in (TRIANGLE, TWO, CROSS, morgan_scott_mesh()):
        for r, s in [(0, 0), (1, 1), (1, 2), (2, 3)]:
            spec = SmoothnessSpec.uniform(mesh, r, s)
            for d in range(0, 6):
                rep = euler_assembly(mesh, spec, d)
                assert rep.exact == (
                    binom(d + 2, 2)
                    + rep.term_edges
                    - rep.term_vertices_full
                    + rep.h0
                )


def test_h0_zero_in_stable_range():
    ms = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(ms, 1, 2)
    d_star = 2 * max(spec.s.values()) + 2
    assert h0_dimension(ms, spec, d_star) == 0
    assert lower_bound_51(ms, spec, d_star) == exact_dimension(ms, spec, d_star)


def _ps6_ms(r, s):
    split = powell_sabin_6split(morgan_scott_mesh(), r, s)
    return split.refined, split.spec


def test_an_unlucky_prime_falls_back_to_the_integer_rank(monkeypatch):
    """A modular rank below the row count proves nothing, so h0 then comes
    from the integer rank: the same h0 at every degree of table2."""
    systems = [
        _system(*_ps6_ms(r, s), d)
        for r, s, degrees in ((2, 3, (4, 5, 6)), (3, 4, (5, 6, 7)), (3, 5, (7, 8, 9)))
        for d in degrees
    ]
    proved = [h0_dimension(sys.mesh, sys.smooth, sys.d, sys.pieces) for sys in systems]
    rank, ranked = RatMatrix.rank, []

    def recorded(self):
        ranked.append(self)
        return rank(self)

    monkeypatch.setattr(RatMatrix, "rank_mod", lambda self, p=32749: self.nrows - 1)
    monkeypatch.setattr(RatMatrix, "rank", recorded)
    unlucky = [h0_dimension(sys.mesh, sys.smooth, sys.d, sys.pieces) for sys in systems]
    assert unlucky == proved == [9, 0, 0, 14, 0, 0, 1, 0, 0]
    assert len(ranked) == len(systems)


def test_a_modular_pass_that_overstates_the_rank_is_caught(monkeypatch):
    """A modular pass claiming full row rank would drop h0 to 0 where it is
    not, and the kernel oracle, which never uses the prime, disagrees with
    the assembly.  At ps6-ms (3,5) d=7, h0 = 1 with 267 rows on 273 columns.
    At (2,3) d=4, h0 = 9 with 86 rows on 78 columns, so no modular pass runs
    and rank() decides alone."""
    mesh, spec = _ps6_ms(3, 5)
    assert euler_assembly(mesh, spec, 7).h0 == 1
    monkeypatch.setattr(RatMatrix, "rank_mod", lambda self, p=32749: self.nrows)
    with pytest.raises(InternalInconsistencyError, match=r"kernel oracle 43 vs Euler assembly 42,"):
        euler_assembly(mesh, spec, 7)
    assert euler_assembly(*_ps6_ms_23(), 4).h0 == 9


def test_the_kernel_oracle_never_runs_the_modular_pass(monkeypatch):
    """The prime certifies h0 on the Euler side only.  Were the oracle's rank
    modular too, one bug overstating both ranks at a degree with h0 > 0
    would lower both results alike, and the cross-check would pass."""
    mesh, spec = _ps6_ms_23()
    expected = [euler_assembly(mesh, spec, d).exact for d in (4, 5, 6)]

    def unrun(self, p=32749):
        raise AssertionError("the modular pass ran")

    monkeypatch.setattr(RatMatrix, "rank_mod", unrun)
    assert [exact_dimension(mesh, spec, d) for d in (4, 5, 6)] == expected == [16, 67, 160]
    with pytest.raises(AssertionError, match="the modular pass ran"):
        h0_dimension(mesh, spec, 5)


@pytest.mark.parametrize("r, s, exact, cases", [(2, 3, {4: 16, 5: 67, 6: 160}, 57), (3, 4, {5: 22}, 14)])
def test_a_bar_count_one_too_low_where_full_equals_bar_is_caught(monkeypatch, r, s, exact, cases):
    """The oracle's row selection stops at the counted bar bound, bar_v -
    dim J(f)_d rows.  A count one too low at a vertex with full = bar breaks
    full <= bar, and drops one independent row from the selection, which at
    h0 = 0 (d = 5, 6 here) raises the oracle's dimension by one."""
    mesh, spec = _ps6_ms(r, s)
    count = splinedim.dimension.dim_bar_vertex_ideal_count
    caught = 0
    for d, dim in exact.items():
        sys = _system(mesh, spec, d)
        oracle = dim + 1 if h0_dimension(mesh, spec, d, sys.pieces) == 0 else dim
        for v in sys.interior:
            if sys.full[v] == sys.bar[v]:
                lowered = lambda m, sp, w, k, v=v: count(m, sp, w, k) - (w == v)
                monkeypatch.setattr(splinedim.dimension, "dim_bar_vertex_ideal_count", lowered)
                message = rf"kernel oracle {oracle} vs Euler assembly {dim},.* full <= bar: \[{v}\]$"
                with pytest.raises(InternalInconsistencyError, match=message):
                    euler_assembly(mesh, spec, d)
                monkeypatch.undo()
                caught += 1
    assert caught == cases


def _sweep_configs():
    """Small specs and degrees on the builtins."""
    mesh = builtin_mesh("two-triangles")
    for r, s in ((1, 1), (1, 2), (2, 3)):
        yield mesh, SmoothnessSpec.uniform(mesh, r, s), range(1, 7)
    mesh = morgan_scott_mesh()
    for r, s in ((1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 4), (3, 5)):
        yield mesh, SmoothnessSpec.uniform(mesh, r, s), range(s, 2 * s + 3)
    for r, s, degrees in ((1, 2, range(1, 6)), (2, 3, range(3, 7))):
        yield *_ps6_ms(r, s), degrees
    for name in ("cross", *(f"{t}-generic" for t in range(3, 9))):
        mesh = builtin_mesh(f"star:{name}")
        for r, s in ((1, 2), (2, 4)):
            yield mesh, star_smoothness_spec(mesh, r, s), range(2, 9)


def _stacked(sys, v, variant, bases=None):
    """v's `variant` (full or tilde) ideal piece at sys's degree, stacked
    here: its edges' echelon rows from `bases`, by default `sys.bases`, one
    matrix."""
    bases = sys.bases if bases is None else bases
    edges = vertex_ideal_edges(sys.mesh, v, variant)
    return RatMatrix([row for e in edges for row in bases[e]], sys.pieces.ncols)


def _kept_functionals(sys, f, v):
    """The functionals the kernel oracle's selection keeps at forest edge f."""
    functionals, kept, _ = splinedim.dimension._independent_functionals(sys, f, v)
    return [functionals[j] for j in kept]


def test_the_fast_paths_equal_the_integer_paths_on_the_builtins(monkeypatch):
    """Where tilde = full at every interior vertex, h0 builds no boundary
    matrix and the reference boundary rank gives h0 = 0; elsewhere h0 is
    the boundary matrix's row count minus its integer rank, and the integer
    rank runs exactly where h0 > 0; the forward-only full pivots are the
    rref pivots; the selection stopped at the bar bound is the selection
    run to the end."""
    rank, rank_mod, leading = RatMatrix.rank, RatMatrix.rank_mod, RatMatrix.leading_columns
    boundary, fell_back = [], []
    monkeypatch.setattr(RatMatrix, "rank_mod", lambda self, p=32749: boundary.append(self) or rank_mod(self, p))
    monkeypatch.setattr(RatMatrix, "rank", lambda self: boundary.append(self) or fell_back.append(1) or rank(self))
    h0s = Counter()
    for mesh, spec, degrees in _sweep_configs():
        cotree_child = mesh.cotree[2]
        for d in degrees:
            sys = _system(mesh, spec, d)
            boundary.clear()
            fell_back.clear()
            h0 = h0_dimension(mesh, spec, d, sys.pieces)
            if all(sys.tilde[v] == sys.full[v] for v in sys.interior):
                assert boundary == [] and h0 == 0 == _h0_boundary_rows(sys), (mesh, d)
                h0s["tilde = full"] += 1
            else:
                assert h0 == boundary[0].nrows - rank(boundary[0]), (mesh, d)
                assert bool(fell_back) == (h0 > 0), (mesh, d)
                h0s[h0 > 0] += 1
            for v, cols in sys.full_pivots.items():
                assert cols == _stacked(sys, v, "full").rref()[0], (mesh, d, v)
            selected = [_kept_functionals(sys, f, v) for f, v in cotree_child.items()]
            monkeypatch.setattr(RatMatrix, "leading_columns", lambda self, limit=None: self.rref()[0])
            assert selected == [_kept_functionals(sys, f, v) for f, v in cotree_child.items()], (mesh, d)
            monkeypatch.setattr(RatMatrix, "leading_columns", leading)
    assert h0s[True] > 10 and h0s[False] > 10 and h0s["tilde = full"] > 10, h0s


def test_bounds_single_triangle():
    spec = SmoothnessSpec.uniform(TRIANGLE, 1, 2)
    for d in range(0, 6):
        n = binom(d + 2, 2)
        assert lower_bound_51(TRIANGLE, spec, d) == n
        assert lower_bound_52(TRIANGLE, spec, d) == n
        assert upper_bound_53(TRIANGLE, spec, d) == n


def _lb52_by_ranks(mesh, spec, d):
    """LB5.2 from edge and bar vertex ideal ranks."""
    n = binom(d + 2, 2)
    pieces = (graded_piece_matrix(edge_ideal_for(mesh, spec, e).generators, d) for e in mesh.interior_edges)
    edges = sum(piece.rank() for piece in pieces)
    bar = sum(vertex_ideal(mesh, spec, v, "bar").graded_dim(d) for v in mesh.interior_vertices)
    return max(n + edges - bar, n)


def _lb52_configs():
    stars = [builtin_mesh(f"star:{name}") for name in ("cross", "3-generic", "5-generic", "8-generic")]
    for mesh in [TWO, morgan_scott_mesh(), *stars]:
        for r in range(3):
            for s in range(r, r + 3):
                yield mesh, SmoothnessSpec.uniform(mesh, r, s)
    for base, r, s in (("triangle", 1, 2), ("triangle", 2, 3), ("morgan-scott", 1, 2)):
        res = powell_sabin_6split(builtin_mesh(base), r, s)
        yield res.refined, res.spec
    rng = random.Random(7)
    for mesh in [TWO, CROSS, STAR3, STAR4, morgan_scott_mesh()] * 2:
        yield mesh, _random_spec(rng, mesh)


def test_lb52_equals_the_rank_reference():
    above = 0
    for mesh, spec in _lb52_configs():
        above += any(k > spec.s[v] for e, k in spec.r.items() for v in e)
        for d in range(9):
            assert lower_bound_52(mesh, spec, d) == _lb52_by_ranks(mesh, spec, d), (mesh, d)
    assert above >= 5  # the ps6 specs and most random ones have r_e > s_v somewhere


def test_lower_bound_52_computes_no_rank(monkeypatch):
    res = powell_sabin_6split(morgan_scott_mesh(), 2, 3)
    ms = morgan_scott_mesh()
    jobs = [(res.refined, res.spec, d) for d in (4, 5, 6)]
    jobs += [(ms, SmoothnessSpec.uniform(ms, 1, 2), d) for d in (3, 5, 8)]
    expected = [euler_assembly(*job).lb52 for job in jobs]

    def no_matrix(*args, **kwargs):
        raise AssertionError("lower_bound_52 built a RatMatrix")

    monkeypatch.setattr(RatMatrix, "__init__", no_matrix)
    assert [lower_bound_52(*job) for job in jobs] == expected


@pytest.mark.parametrize("counter", ["dim_edge_ideal_count", "dim_bar_vertex_ideal_count"])
def test_a_wrong_count_is_caught_by_the_report(monkeypatch, capsys, counter):
    # an edge count off by one breaks equality with the echelon dims; a bar
    # count of zero falls below the full vertex ideals it contains
    real = getattr(splinedim.dimension, counter)
    wrong = (lambda *a: real(*a) + 1) if counter == "dim_edge_ideal_count" else (lambda *a: 0)
    monkeypatch.setattr(splinedim.dimension, counter, wrong)
    with pytest.raises(InternalInconsistencyError):
        euler_assembly(morgan_scott_mesh(), SmoothnessSpec.uniform(morgan_scott_mesh(), 1, 2), 4)
    argv = ["table", "--gen", "morgan-scott", "-r", "1", "-s", "2", "-d", "4", "--check"]
    assert main(argv, out=io.StringIO()) == 2
    assert "degree 4" in capsys.readouterr().err


def test_full_and_tilde_vertex_dims_equal_the_vertex_ideal_ranks():
    # the same configs as LB5.2: r_e > s_v (ps6 and random specs), collinear
    # edges through a vertex (star:cross, the ps6 edge points), stars
    cases = 0
    for mesh, spec in _lb52_configs():
        for d in range(9):
            sys = _system(mesh, spec, d)
            for variant, got in (("full", sys.full), ("tilde", sys.tilde)):
                assert got == {
                    v: vertex_ideal(mesh, spec, v, variant).graded_dim(d)
                    for v in mesh.interior_vertices
                }, (mesh, variant, d)
                cases += len(got)
    assert cases > 1000


def test_a_report_builds_each_edge_piece_once_and_no_vertex_ideal(monkeypatch):
    calls = {"graded_piece_matrix": 0, "vertex_ideal": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(splinedim.ideals, name))
        for module in (splinedim.ideals, splinedim.dimension):
            monkeypatch.setattr(module, name, wrapper, raising=False)
    res = powell_sabin_6split(morgan_scott_mesh(), 2, 3)
    for d in (4, 5, 6):
        calls.update(graded_piece_matrix=0, vertex_ideal=0)
        euler_assembly(res.refined, res.spec, d)
        assert calls == {"graded_piece_matrix": len(res.refined.interior_edges), "vertex_ideal": 0}


def test_a_run_does_the_mesh_only_work_once_for_all_its_degrees(monkeypatch):
    # the disk check, the ordering and the kernel tree depend on the mesh
    # alone; they used to be redone for every degree of the table
    calls = dict.fromkeys(("validate_disk", "vertex_ordering", "_tree_cotree"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(splinedim.mesh, name, counted(name, getattr(splinedim.mesh, name)))
    argv = ["table", "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3", "--degrees", "4:6"]
    assert main(argv, out=io.StringIO()) == 0
    assert calls == dict.fromkeys(calls, 1)


def test_no_module_level_cache_keeps_a_mesh_alive():
    mesh = morgan_scott_mesh()
    euler_assembly(mesh, SmoothnessSpec.uniform(mesh, 1, 2), 4)
    assert {"disk", "ordering", "cotree"} <= set(vars(mesh))
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("variant", ["tilde", "full"])
def test_a_non_incident_edge_stacked_at_a_vertex_is_caught(monkeypatch, capsys, variant):
    # a non-incident edge's rows lift the tilde (or full) dimension at v above
    # the full (or bar) one; for tilde the Euler identity still holds
    ms = morgan_scott_mesh()
    v0 = min(ms.interior_vertices)
    stray = min(e for e in ms.interior_edges if v0 not in e)
    real = splinedim.dimension.vertex_ideal_edges

    def stacked(mesh, v, which):
        edges = real(mesh, v, which)
        return [*mesh.interior_edges_at_vertex(v), stray] if (v, which) == (v0, variant) else edges

    monkeypatch.setattr(splinedim.dimension, "vertex_ideal_edges", stacked)
    with pytest.raises(InternalInconsistencyError, match=rf"tilde <= full <= bar: \[{v0}\]"):
        euler_assembly(ms, SmoothnessSpec.uniform(ms, 1, 2), 4)
    argv = ["table", "--gen", "morgan-scott", "-r", "1", "-s", "2", "-d", "4", "--check"]
    assert main(argv, out=io.StringIO()) == 2
    assert "degree 4" in capsys.readouterr().err


def test_sandwich_small_random_configs():
    rng = random.Random(11)
    meshes = [TWO, CROSS, STAR3, STAR4, morgan_scott_mesh()]
    for _ in range(12):
        mesh = rng.choice(meshes)
        r = rng.randint(0, 2)
        spec = SmoothnessSpec(
            mesh,
            {e: r for e in mesh.interior_edges},
            {v: r + rng.randint(0, 2) for v in range(mesh.num_vertices)},
        )
        d = rng.randint(0, 6)
        lb2 = lower_bound_52(mesh, spec, d)
        lb1 = lower_bound_51(mesh, spec, d)
        exact = exact_dimension(mesh, spec, d)
        ub = upper_bound_53(mesh, spec, d)
        assert lb2 <= lb1 <= exact <= ub, (r, d)


def test_exact_degree_monotonicity():
    ms = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(ms, 1, 2)
    dims = [exact_dimension(ms, spec, d) for d in range(0, 7)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_exact_smoothness_monotonicity():
    base_r, base_s = 1, 1
    d = 4
    spec = SmoothnessSpec.uniform(CROSS, base_r, base_s)
    base = exact_dimension(CROSS, spec, d)
    # raising one edge order
    e = next(iter(CROSS.interior_edges))
    r = {k: base_r for k in CROSS.interior_edges}
    r[e] = base_r + 1
    raised_edge = SmoothnessSpec(CROSS, r, {v: base_s + 1 for v in range(5)})
    assert exact_dimension(CROSS, raised_edge, d) <= base
    # raising one vertex order
    s = {v: base_s for v in range(5)}
    s[0] = base_s + 1
    raised_vertex = SmoothnessSpec(CROSS, {k: base_r for k in CROSS.interior_edges}, s)
    assert exact_dimension(CROSS, raised_vertex, d) <= base


def test_exact_containment_floor():
    for mesh in (TWO, CROSS, STAR3):
        spec = SmoothnessSpec.uniform(mesh, 2, 4)
        for d in range(0, 6):
            assert exact_dimension(mesh, spec, d) >= binom(d + 2, 2)


def test_exact_affine_invariance():
    ms = morgan_scott_mesh()
    mapped = Mesh(
        [(2 * x - y + F(1, 3), x + 3 * y - 2) for x, y in ms.vertices],
        ms.triangles,
    )
    for r, s, d in [(1, 1, 3), (1, 2, 4), (2, 3, 5)]:
        a = exact_dimension(ms, SmoothnessSpec.uniform(ms, r, s), d)
        b = exact_dimension(mapped, SmoothnessSpec.uniform(mapped, r, s), d)
        assert a == b


def test_exact_collapse_to_classical_on_stars():
    # s = r: superspline space is the plain C^r space (Schumaker formula)
    for star in (CROSS, STAR3, STAR4):
        for r in (0, 1, 2):
            spec = SmoothnessSpec.uniform(star, r, r)
            for d in range(r, r + 4):
                assert exact_dimension(star, spec, d) == schumaker_dim(star, r, d)


def test_schumaker_examples():
    assert schumaker_dim(CROSS, 1, 2) == 8
    assert schumaker_dim(STAR4, 1, 2) == 7
    p = star_profile(STAR4, 1)
    assert (p.omega, p.a, p.b) == (2, 2, 1)
    for d in (0, 1):
        assert schumaker_dim(CROSS, 1, d) == binom(d + 2, 2)


def test_schumaker_matches_exact_oracle():
    for star in (CROSS, STAR3, STAR4):
        for r in (0, 1, 2):
            spec = SmoothnessSpec.uniform(star, r, r)
            for d in range(0, 6):
                assert schumaker_dim(star, r, d) == exact_dimension(star, spec, d)


def test_vertex_star_dim_examples():
    assert vertex_star_dim(STAR3, 1, 2, 2) == 6
    # socle-regime corollary form equals the two-branch value
    assert vertex_star_dim(STAR3, 1, 2, 4) == (
        3 * 2 * binom(3, 2) - 3 * 1 * binom(2, 2) + binom(4, 2)
    )


def test_vertex_star_dim_matches_exact_oracle():
    for star in (CROSS, STAR3, STAR4):
        for r in (0, 1, 2):
            for s in (r, r + 1, r + 2):
                for d in range(s, s + 3):
                    spec = star_smoothness_spec(star, r, s)
                    assert vertex_star_dim(star, r, s, d) == exact_dimension(
                        star, spec, d
                    ), (r, s, d)


def test_vertex_star_dim_s_equals_r_is_schumaker():
    for star in (CROSS, STAR3, STAR4):
        for r in (0, 1, 2):
            for d in range(r, r + 4):
                assert vertex_star_dim(star, r, r, d) == schumaker_dim(star, r, d)


def test_vertex_star_dim_requires_star():
    with pytest.raises(MeshError):
        vertex_star_dim(TWO, 1, 1, 2)
    with pytest.raises(OutOfRangeError):
        vertex_star_dim(STAR3, 2, 1, 3)


def test_argyris_values():
    assert argyris_dim(TRIANGLE, 1) == 21
    assert argyris_dim(TWO, 1) == 29
    assert argyris_dim(morgan_scott_mesh(), 1) == 48


def test_argyris_equals_exact():
    for mesh in (TRIANGLE, TWO):
        r = 1
        spec = SmoothnessSpec.uniform(mesh, r, 2 * r)
        assert argyris_dim(mesh, r) == exact_dimension(mesh, spec, 4 * r + 1)


def test_argyris_upper_bound_meets_exact():
    r = 1
    spec = SmoothnessSpec.uniform(TWO, r, 2 * r)
    d = 4 * r + 1
    exact = exact_dimension(TWO, spec, d)
    assert upper_bound_53(TWO, spec, d) == exact
    assert lower_bound_51(TWO, spec, d) == exact


def test_intrinsic_order_values():
    assert intrinsic_supersmoothness_order(STAR3, 1).order == 2
    assert intrinsic_supersmoothness_order(CROSS, 1).order == 3
    star4 = make_vertex_star([(1, 0), (0, 1), (-2, 1), (-1, -3)])
    assert intrinsic_supersmoothness_order(star4, 3).order == 4
    assert intrinsic_supersmoothness_order(STAR3, 1).generic
    assert not intrinsic_supersmoothness_order(CROSS, 1).generic


def test_intrinsic_supersmoothness_is_free():
    # imposing the intrinsic order changes nothing; one more shrinks the space
    star = STAR3
    r = 1
    s_star = intrinsic_supersmoothness_order(star, r).order
    plain = SmoothnessSpec.uniform(star, r, r)
    withs = star_smoothness_spec(star, r, s_star)
    beyond = star_smoothness_spec(star, r, s_star + 1)
    strict = False
    for d in range(0, 2 * s_star + 5):
        assert exact_dimension(star, withs, d) == exact_dimension(star, plain, d)
        if exact_dimension(star, beyond, d) < exact_dimension(star, plain, d):
            strict = True
    assert strict


def test_ps_dim_general_speleers_r1():
    for mesh in (TRIANGLE, TWO, morgan_scott_mesh()):
        f0 = mesh.face_counts().f0
        assert ps_dim_general(mesh, 1, 1, 2) == 3 * f0


def test_ps_dim_general_matches_exact():
    for mesh in (TRIANGLE, TWO):
        for r, s in [(1, 1), (1, 2), (2, 3)]:
            d = 2 * s - r + 1
            res = powell_sabin_6split(mesh, r, s)
            assert ps_dim_general(mesh, r, s, d) == exact_dimension(
                res.refined, res.spec, d
            ), (r, s, d)


def test_ps_dim_general_range_checks():
    with pytest.raises(OutOfRangeError):
        ps_dim_general(TRIANGLE, 2, 2, 4)  # s < 2r-1
    with pytest.raises(OutOfRangeError):
        ps_dim_general(TRIANGLE, 1, 2, 3)  # d < 2s-r+1


def test_report_fields_are_consistent():
    ms = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(ms, 1, 2)
    rep = euler_assembly(ms, spec, 4)
    assert rep.term_polys == ms.num_triangles * binom(6, 2)
    assert rep.lb52 <= rep.lb51 <= rep.exact <= rep.ub53
    assert min(
        rep.term_edges,
        rep.term_vertices_full,
        rep.term_vertices_bar,
        rep.term_vertices_tilde,
        rep.h0,
    ) >= 0


def _fresh_rref_rows(mesh, spec, d, top):
    """Each edge's degree-d rref rows, moved to the last C(d+2, 2) columns of degree top."""
    shift = binom(top + 2, 2) - binom(d + 2, 2)
    return {
        e: [
            {c + shift: v for c, v in row.items()}
            for row in graded_piece_matrix(edge_ideal_for(mesh, spec, e).generators, d).rref()[1]
        ]
        for e in sorted(mesh.interior_edges)
    }


_SLICE_MESHES = ("two-triangles", "morgan-scott", "star:cross", "star:3-generic", "star:8-generic", "translated star")


def _slice_mesh(name):
    """A builtin, or star:5-generic translated by (1/3, 2/7), so that the
    prefix rule is also checked off the origin, where every form has a z
    term."""
    if name != "translated star":
        return builtin_mesh(name)
    star = builtin_mesh("star:5-generic")
    return Mesh([(x + F(1, 3), y + F(2, 7)) for x, y in star.vertices], star.triangles)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SLICE_MESHES), st.integers(0, 8), st.randoms(use_true_random=False))
def test_every_lower_degree_is_read_off_the_top_edge_pieces(name, top, rng):
    """z is a nonzerodivisor modulo each edge ideal, so the top degree's
    reduced rows at the last C(d+2, 2) columns are degree d's, in place."""
    mesh = _slice_mesh(name)
    spec = _random_spec(rng, mesh)
    pieces = EdgePieces(mesh, spec, top)
    for d in range(top + 1):
        sliced = {e: rows[::-1] for e, rows in pieces.system(d).bases.items()}
        assert sliced == _fresh_rref_rows(mesh, spec, d, top), (spec.r, spec.s, d)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SLICE_MESHES), st.integers(0, 8), st.randoms(use_true_random=False))
def test_each_grown_vertex_stack_has_the_pivots_of_its_one_shot_stack(name, top, rng):
    """Degree d's vertex stack grows from z times degree d-1's, plus the
    edge rows whose leading monomial is z-free, and stops at dim
    (m_v^(t+1))_d: its leading monomials are those of the whole stack of
    degree d's edge rows, at every degree of the pieces and for both
    variants.  The one-shot stacks are built from fresh degree-d pieces,
    so neither the top rows' prefix lengths nor the stop is taken on
    trust."""
    mesh = _slice_mesh(name)
    spec = _random_spec(rng, mesh)
    pieces = EdgePieces(mesh, spec, top)
    for d in range(top + 1):
        sys = pieces.system(d)
        fresh = _fresh_rref_rows(mesh, spec, d, top)
        for variant, pivots in (("full", sys.full_pivots), ("tilde", sys.tilde_pivots)):
            expected = {v: _stacked(sys, v, variant, fresh).rref()[0] for v in sys.interior}
            assert pivots == expected, (spec.r, spec.s, d, variant)


def _grow_against_uncapped(pieces):
    """Grow both variants' stacks of `pieces`, each seeded pass checked to
    keep, row for row, what the same pass keeps with no limit from a copy
    of its seed; by induction over the degrees every kept dict is the
    uncapped one.  Returns how many passes the limit cut short."""
    extend, eliminate = RatMatrix.extend_echelon, splinedim.ratlinalg._eliminate
    steps, cut = [], []

    def checked(self, seed, limit=None):
        steps.clear()
        reference = extend(self, dict(seed))
        uncapped = len(steps)
        steps.clear()
        kept = extend(self, seed, limit)
        assert kept == reference, limit
        cut.append(len(steps) < uncapped)
        return kept

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splinedim.ratlinalg, "_eliminate", lambda *args: steps.append(1) or eliminate(*args))
        patch.setattr(RatMatrix, "extend_echelon", checked)
        pieces._stacks("full")
        pieces._stacks("tilde")
    assert len(cut) == 2 * len(pieces.mesh.interior_vertices) * (pieces.top + 1)
    return sum(cut)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SLICE_MESHES), st.integers(0, 8), st.randoms(use_true_random=False))
def test_each_capped_stack_pass_keeps_the_uncapped_rows(name, top, rng):
    """Random per-edge r and per-vertex s, so t varies from vertex to vertex."""
    mesh = _slice_mesh(name)
    _grow_against_uncapped(EdgePieces(mesh, _random_spec(rng, mesh), top))


# the builtins with a 6-split (the other generic stars' barycenter segments miss an edge)
_SPLIT_BASES = ("triangle", "two-triangles", "morgan-scott", "star:cross", "star:4-generic", "star:5-generic")


@pytest.mark.parametrize("base", [*_SPLIT_BASES, "ps6x2"])
def test_each_capped_stack_pass_keeps_the_uncapped_rows_on_the_6_splits(base):
    """The builtins' 6-splits at (1,2) and (2,3), and ps6x2, at degrees
    0..2s+1 (0..5 on ps6x2); the limit cuts passes short on each."""
    if base == "ps6x2":
        cases = [(PS6X2, 5)]
    else:
        cases = [(powell_sabin_6split(builtin_mesh(base), r, s), 2 * s + 1) for r, s in ((1, 2), (2, 3))]
    for split, top in cases:
        assert _grow_against_uncapped(EdgePieces(split.refined, split.spec, top)) > 0, (base, top)


def _partial_at(row, monomials, a, b, point):
    """The a-th x and b-th y partial of the form `row` at the homogeneous
    point (X, Y, W): W^(D-a-b) times the partial at the vertex (X/W, Y/W)
    of the form with z set to 1, so the two vanish together."""
    x, y, w = point
    total = 0
    for c, val in row.items():
        i, j, k = monomials[c]
        if i >= a and j >= b:
            total += val * perm(i, a) * perm(j, b) * x ** (i - a) * y ** (j - b) * w**k
    return total


def _premise_cases():
    """Builtins (uniform and random specs), their 6-splits, and the
    translated star of `_slice_mesh`, whose forms all have z terms."""
    rng = random.Random(13)
    for name in ("two-triangles", "morgan-scott", *_STARS, "translated star"):
        mesh = _slice_mesh(name)
        yield name, mesh, SmoothnessSpec.uniform(mesh, 1, 2)
        yield name, mesh, _random_spec(rng, mesh)
        yield name, mesh, _random_spec(rng, mesh)
    for name in _SPLIT_BASES:
        for r, s in ((1, 2), (2, 3)):
            split = powell_sabin_6split(builtin_mesh(name), r, s)
            yield f"ps6:{name}", split.refined, split.spec


def test_every_edge_row_vanishes_to_its_ends_orders():
    """The premise of the stacks' stop: every top row of an edge piece
    vanishes to order effective_s(v, e) + 1 at each end v, every partial
    of order at most effective_s(v, e) zero there, so no edge has a row
    at a degree d <= effective_s(v, e): its prefix there is empty."""
    top = 7
    monomials = graded_monomial_basis(top)
    checked = 0
    for name, mesh, spec in _premise_cases():
        pieces = EdgePieces(mesh, spec, top)
        for e, (rows, ends) in pieces._tops.items():
            for v in e:
                s = spec.effective_s(v, e)
                assert ends[: s + 1] == [0] * min(s + 1, top + 1), (name, e, v)
                for a, b in ((a, k - a) for k in range(s + 1) for a in range(k + 1)):
                    assert not any(_partial_at(row, monomials, a, b, mesh.points[v]) for row in rows), (name, e, v)
                checked += len(rows)
    assert checked > 10_000


def test_slicing_stops_at_edges_since_vertex_ideals_are_not_saturated():
    """The same slice of a full vertex stack overcounts: on ps6-ms (3,4),
    J(v)_7 meets z^2 R in more than z^2 J(v)_5 at five vertices, where the
    sliced count reaches bar.  Growing the stacks needs no saturation:
    the same top pieces give the degree-5 counts of the stacks themselves."""
    split = powell_sabin_6split(morgan_scott_mesh(), 3, 4)
    mesh, spec = split.refined, split.spec
    top, low = _system(mesh, spec, 7), _system(mesh, spec, 5)
    shift = binom(9, 2) - binom(7, 2)
    sliced = {v: sum(c >= shift for c in cols) for v, cols in top.full_pivots.items()}
    wrong = {v for v in low.interior if sliced[v] != low.full[v]}
    assert wrong == {18, 19, 20, 23, 24}
    assert {(sliced[v], low.full[v], low.bar[v]) for v in wrong} == {(6, 5, 6)}
    pieces = EdgePieces(mesh, spec, 7)
    grown = pieces.system(5).full
    assert {grown[v] for v in wrong} == {_stacked(low, v, "full").rank() for v in wrong} == {5}
    assert grown == low.full
    # the edge pieces of the same run slice exactly
    rows = {e: rows[::-1] for e, rows in pieces.system(5).bases.items()}
    assert rows == _fresh_rref_rows(mesh, spec, 5, 7)


def test_edge_pieces_serve_only_their_mesh_spec_and_degrees():
    spec = SmoothnessSpec.uniform(CROSS, 1, 2)
    pieces = EdgePieces(CROSS, spec, 5)
    assert euler_assembly(CROSS, spec, 3, pieces) == euler_assembly(CROSS, spec, 3)
    with pytest.raises(ValueError, match="outside 0..5"):
        euler_assembly(CROSS, spec, 6, pieces)
    with pytest.raises(ValueError, match="another mesh or spec"):
        exact_dimension(CROSS, SmoothnessSpec.uniform(CROSS, 1, 2), 3, pieces)


_PER_DEGREE = {
    "exact_dimension": exact_dimension,
    "h0_dimension": h0_dimension,
    "lower_bound_51": lower_bound_51,
    "lower_bound_52": lower_bound_52,
    "upper_bound_53": upper_bound_53,
    "euler_assembly": euler_assembly,
    "check_euler_side": lambda mesh, spec, d, pieces: check_euler_side(mesh, spec, d, 0, pieces),
}


@pytest.mark.parametrize("name", sorted(_PER_DEGREE))
def test_every_per_degree_entry_point_checks_its_edge_pieces(name):
    """Every per-degree entry point reaches its degree's data through one
    guard on `pieces`: pieces of another mesh or spec, or built below the
    degree asked for, raise instead of answering for them.  Handed degree
    5's data of ps6-ms (2,3), h0 at d = 4 once read 0 instead of 9, and
    handed the (3,4) split's degree-5 data, 14."""
    entry = _PER_DEGREE[name]
    mesh, spec = _ps6_ms_23()
    other_mesh, other_spec = _ps6_ms(3, 4)
    foreign = [
        EdgePieces(other_mesh, other_spec, 5),
        EdgePieces(other_mesh, spec, 5),
        EdgePieces(mesh, SmoothnessSpec.uniform(mesh, 2, 3), 5),
    ]
    for pieces in foreign:
        with pytest.raises(ValueError, match="another mesh or spec"):
            entry(mesh, spec, 4, pieces)
    with pytest.raises(ValueError, match="outside 0..3"):
        entry(mesh, spec, 4, EdgePieces(mesh, spec, 3))


def test_every_degree_reads_the_top_rows_in_place_and_builds_its_data_once():
    """Degree d's bases are the top rows themselves, its vertex pivots lie in
    its own last C(d+2, 2) top columns, and its system is built once."""
    mesh, spec = _ps6_ms_23()
    pieces = EdgePieces(mesh, spec, 6)
    top = {e: {id(row) for row in rows} for e, rows in pieces.system(6).bases.items()}
    for d in range(7):
        assert all(id(row) in top[e] for e, rows in pieces.system(d).bases.items() for row in rows), d
        shift = pieces.ncols - binom(d + 2, 2)
        assert all(min(cols, default=shift) >= shift for cols in pieces.system(d).full_pivots.values())
        assert pieces.system(d) is pieces.system(d)
    assert h0_dimension(mesh, spec, 4, pieces) == 9
    assert [check_euler_side(mesh, spec, d, dim, pieces) for d, dim in ((4, 16), (5, 67), (6, 160))] == [9, 0, 0]


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("name", ["morgan-scott", "star:cross", "star:5-generic", "ps6-ms"])
def test_hong_exact_equals_lb52_at_s_equal_to_r(name, r):
    """Hong 1991: at s = r the dimension is Schumaker's lower bound for
    d >= 3r + 2."""
    mesh = PS6.refined if name == "ps6-ms" else builtin_mesh(name)
    spec = SmoothnessSpec.uniform(mesh, r, r)
    for d in (3 * r + 2, 3 * r + 3):
        report = euler_assembly(mesh, spec, d)
        assert report.exact == report.lb52, d


def test_below_hongs_range_morgan_scott_has_an_extra_spline():
    mesh = morgan_scott_mesh()
    report = euler_assembly(mesh, SmoothnessSpec.uniform(mesh, 1, 1), 2)
    assert (report.exact, report.lb52, report.h0) == (7, 6, 1)
