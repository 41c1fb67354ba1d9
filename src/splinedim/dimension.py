"""Superspline space dimensions: exact kernel oracle, homology, bounds.

The exact dimension is computed in the homogeneous picture as the kernel of
the edge-wise quotient constraint map: one degree-d polynomial per triangle,
and per interior edge the requirement that the difference across the edge
lies in the edge ideal's degree-d piece.  The Euler-characteristic assembly
(degree-d identity between the exact dimension, the per-face ideal
dimensions, and the homology term) is computed through an independent code
path and checked on every report; a violation means a bug and raises.

Lower bounds drop the homology term (and optionally simplify the vertex
ideals); the reported bounds are additionally floored at C(d+2, 2) since
global polynomials always embed.  The upper bound restricts each vertex
ideal to edges reaching earlier vertices in an admissible ordering.

Every per-degree entry point takes an optional `EdgePieces`: a command
over several degrees passes one built at its highest degree D, so each
edge piece is echelonized once, each vertex stack grown once, and each
degree's data built once.  Every degree works in D's columns: degree d is
the last C(d+2, 2) of them, z^(D-d) times its monomials, so no row is
copied.  Without one, pieces are built at d for that call alone.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import NamedTuple

from .ideals import (
    dim_bar_vertex_ideal_count,
    dim_edge_ideal_boundary_closed,
    dim_edge_ideal_closed,
    dim_edge_ideal_count,
    dim_vertex_star_ideal_closed,
    edge_ideal_for,
    graded_piece_matrix,
    vertex_ideal_edges,
    vertex_socle_params,
)
from .mesh import (
    Edge,
    Mesh,
    MeshError,
    SmoothnessSpec,
    distinct_slopes_at,
)
from .polyring import monomial_index
from .ratlinalg import RatMatrix, binom, reduced_kernel

__all__ = [
    "DimensionReport",
    "EdgePieces",
    "InternalInconsistencyError",
    "OutOfRangeError",
    "StarProfile",
    "argyris_dim",
    "check_euler_side",
    "euler_assembly",
    "exact_dimension",
    "h0_dimension",
    "intrinsic_supersmoothness_order",
    "lower_bound_51",
    "lower_bound_52",
    "ps_dim_general",
    "schumaker_dim",
    "star_profile",
    "star_smoothness_spec",
    "upper_bound_53",
    "vertex_star_dim",
]


class InternalInconsistencyError(RuntimeError):
    """Two independent computation paths disagreed; this is a bug trap."""


class OutOfRangeError(ValueError):
    """Closed-form preconditions violated; use the exact oracle instead."""


class DimensionReport(NamedTuple):
    """Per-degree record of all formula terms and results."""

    d: int
    term_polys: int
    term_edges: int
    term_vertices_full: int
    term_vertices_bar: int
    term_vertices_tilde: int
    h0: int
    lb51: int
    lb52: int
    ub53: int
    exact: int


class StarProfile(NamedTuple):
    t: int
    f1_interior: int
    omega: int
    a: int
    b: int


def _require_disk(mesh: Mesh) -> None:
    if not mesh.disk.ok:
        raise MeshError(f"mesh is not a valid disk: {', '.join(mesh.disk.failures)}")


class EdgePieces:
    """Each interior edge ideal's graded piece at a top degree D, echelonized
    once (`RatMatrix.rref`, never stopped at the lattice count), every lower
    degree read off it in place, and each interior vertex's full and tilde
    stacks grown over the degrees 0..D in one forward pass each.

    Coefficient vectors list the monomials in descending degree-reverse-lex
    order with z last, so z^(D-d) times the degree-d monomials are the top
    columns from `starts[d]` = `monomial_index((d, 0, D - d))` on, the last
    C(d+2, 2) of C(D+2, 2), and a form is divisible by z^(D-d) exactly when
    its leading monomial is.  Every degree works in these columns, on
    z^(D-d) times its forms.  J(e) = <ell_tau^(r+1)> cap m_gamma^(s+1) cap
    m_gamma'^(s'+1) is an intersection of ideals primary to the ideals of
    the edge's line and of its end points, none of which contains z, as the
    line is affine and each point has W > 0.  So z is a nonzerodivisor on
    R/J(e), and J(e)_D meets z^(D-d) R in z^(D-d) J(e)_d: the top rows
    pivoting at or past `starts[d]` are its primitive reduced echelon
    basis, which is unique.  Each edge keeps its top rows once, in
    decreasing pivot column, so degree d's basis is a prefix of them, and
    with it the prefix's length at each degree, read off the pivots.

    A vertex ideal, a sum of edge ideals, need not be saturated, and the
    same slice of its stack would overcount (the test suite keeps such a
    case).  The stacks are grown instead (`_stacks`), which needs no
    saturation: the stacked degree-d rows of any set of edges span z times
    the degree d - 1 span plus the rows entering at d, whose leading
    monomial is z-free there.  In the top columns z times a row is the
    same vector, so each vertex's stack is one forward pass over its edges'
    rows, fed at each degree those between its edges' prefixes at d - 1
    and d.

    Each stack stops at the dimension of the space its rows lie in.  A
    generator ell_tau^a ell_gamma^b ell_gamma'^c of J(e), gamma its end v,
    has a + b >= s + 1 for s = `effective_s(v, e)`, and ell_tau and
    ell_gamma vanish at v, so J(e) lies in m_v^(s+1) and each degree-d row of an
    edge through v in z^(D-d) (m_v^(t+1))_d, t the least such s at v.
    Once the kept rows reach its dimension C(d+2, 2) - C(t+2, 2) they span
    it, and every later row of that degree would reduce to zero.  The rows
    enter in the same order, so the kept rows, the seed of every later
    degree, are the uncapped pass's and the counts are exact.  An edge
    not through v gives t = -1, the whole space, so its rows still lift
    full above bar.  At d <= t no edge through v has a row, and there is
    no limit, so a stray row there still reaches the full <= bar check.

    A command builds one for its highest degree and passes it to each
    per-degree call, which reaches its degree's data through `system`, the
    one way in; everything is computed on first use and kept."""

    def __init__(self, mesh: Mesh, smooth: SmoothnessSpec, top: int):
        if top < 0:
            raise ValueError("degree must be non-negative")
        self.mesh, self.smooth, self.top = mesh, smooth, top
        self.ncols = binom(top + 2, 2)
        self.starts = [monomial_index((d, 0, top - d)) for d in range(top + 1)]
        self._grown: dict[str, list[dict[int, list[int]]]] = {}
        self._systems: dict[int, _DegreeSystem] = {}

    @cached_property
    def _tops(self) -> dict[Edge, tuple[list[dict[int, int]], list[int]]]:
        """Each edge's reduced echelon rows at the top degree, in decreasing
        pivot column, and per degree d the length of the prefix that is
        degree d's basis: the count of pivots at or past `starts[d]`."""
        mesh, smooth, top = self.mesh, self.smooth, self.top
        tops = {}
        for e in sorted(mesh.interior_edges):
            pivots, rows = graded_piece_matrix(edge_ideal_for(mesh, smooth, e).generators, top).rref()
            tops[e] = rows[::-1], [len(pivots) - bisect_left(pivots, c) for c in self.starts]
        return tops

    def system(self, d: int) -> _DegreeSystem:
        """Degree d's `_DegreeSystem`, built on first use and kept."""
        if not 0 <= d <= self.top:
            raise ValueError(f"degree {d} is outside 0..{self.top}")
        if d not in self._systems:
            self._systems[d] = _DegreeSystem(self, d)
        return self._systems[d]

    def _stacks(self, variant: str) -> list[dict[int, list[int]]]:
        """Per degree d = 0..D, the increasing leading columns of each
        interior vertex's `variant` (full or tilde) stack: one forward pass
        per vertex over its edges' top rows (`RatMatrix.extend_echelon`),
        seeded at each degree with the pass so far.  The rows are `rref`
        rows, so they enter unchecked.  At v, with t the least
        `effective_s(v, e)` over the stacked edges (-1 for an edge not
        through v), each degree d > t stops at dim (m_v^(t+1))_d =
        C(d+2, 2) - C(t+2, 2) kept rows, the dimension of the space the
        stacked rows lie in (see the class docstring); d <= t has no limit."""
        if variant in self._grown:
            return self._grown[variant]
        grown: list[dict[int, list[int]]] = [{} for _ in range(self.top + 1)]
        for v in sorted(self.mesh.interior_vertices):
            edges = vertex_ideal_edges(self.mesh, v, variant)
            tops = [self._tops[e] for e in edges]
            t = min(self.smooth.effective_s(v, e) if v in e else -1 for e in edges)
            kept: dict[int, dict[int, int]] = {}
            for d, pivots in enumerate(grown):
                rows = [row for edge_rows, ends in tops for row in edge_rows[ends[d - 1] if d else 0 : ends[d]]]
                limit = binom(d + 2, 2) - binom(t + 2, 2) if d > t else None
                kept = RatMatrix._of_int_rows(rows, self.ncols).extend_echelon(kept, limit)
                pivots[v] = sorted(kept)
        self._grown[variant] = grown
        return grown


def _system(mesh: Mesh, smooth: SmoothnessSpec, d: int, pieces: EdgePieces | None) -> _DegreeSystem:
    """Degree d's system of `pieces`, which must be built on this mesh and
    spec at a degree of at least d, or of pieces built at d."""
    if pieces is None:
        pieces = EdgePieces(mesh, smooth, d)
    elif pieces.mesh is not mesh or pieces.smooth is not smooth:
        raise ValueError("the edge pieces belong to another mesh or spec")
    return pieces.system(d)


class _DegreeSystem:
    """Shared per-degree data and formulas for all the dimension computations.

    Validates the disk.  Each quantity is a property computed on first use,
    once, in the top columns of `pieces`, and read straight off its stores.
    `bases` are the interior edges' degree-d echelon rows, a prefix of each
    edge's top rows.  The vertex ideals' degree-d pieces are spanned by
    their edges' stacked echelon rows, since the degree-d piece of a sum of
    ideals is the sum of the pieces; `pieces` grows those stacks.
    `full_pivots` and `tilde_pivots` are the stacks' leading monomials at
    d, the full ones kept by h0; `full` and `tilde` count them; `bar` is
    counted, with no matrix.  The bounds are C(d+2, 2) + sum of edge
    dims - sum of vertex dims, with the full (LB5.1), bar (LB5.2) or tilde
    (UB5.3) vertex ideals; LB5.2 takes the counted edge dims, so it builds
    no matrix.  The lower bounds are floored at C(d+2, 2), since global
    polynomials are always supersplines.
    """

    def __init__(self, pieces: EdgePieces, d: int):
        _require_disk(pieces.mesh)
        self.mesh, self.smooth, self.d, self.pieces = pieces.mesh, pieces.smooth, d, pieces
        self.ncoef = binom(d + 2, 2)
        self.interior = sorted(self.mesh.interior_vertices)

    @cached_property
    def bases(self) -> dict[Edge, list[dict[int, int]]]:
        """Each interior edge ideal's degree-d piece, as its reduced echelon
        rows (primitive integer vectors) in decreasing pivot column, so the
        rows with the fewest possible entries come first.  The vertex ideals
        stack these rows, and the kernel oracle and h0 lay out each edge's
        columns in this order: `RatMatrix.rank` eliminates columns in index
        order, so sparse columns go first."""
        return {e: rows[: ends[self.d]] for e, (rows, ends) in self.pieces._tops.items()}

    @cached_property
    def edge_dims(self) -> int:
        """Sum of the interior edge ideal dimensions, from the echelon bases."""
        return sum(map(len, self.bases.values()))

    @cached_property
    def counted_edge_dims(self) -> int:
        """Sum of the interior edge ideal dimensions, as lattice-point counts."""
        r, s, edges = self.smooth.r, self.smooth.effective_s, self.mesh.interior_edges
        return sum(dim_edge_ideal_count(r[e], s(e[0], e), s(e[1], e), self.d) for e in edges)

    @cached_property
    def full_pivots(self) -> dict[int, list[int]]:
        """Leading monomials of each interior vertex's ideal piece, increasing."""
        return self.pieces._stacks("full")[self.d]

    @cached_property
    def tilde_pivots(self) -> dict[int, list[int]]:
        """Leading monomials of each interior vertex's tilde ideal piece, increasing."""
        return self.pieces._stacks("tilde")[self.d]

    @cached_property
    def full(self) -> dict[int, int]:
        return {v: len(cols) for v, cols in self.full_pivots.items()}

    @cached_property
    def tilde(self) -> dict[int, int]:
        return {v: len(cols) for v, cols in self.tilde_pivots.items()}

    @cached_property
    def bar(self) -> dict[int, int]:
        return {v: dim_bar_vertex_ideal_count(self.mesh, self.smooth, v, self.d) for v in self.interior}

    @cached_property
    def lb51(self) -> int:
        return max(self.ncoef + self.edge_dims - sum(self.full.values()), self.ncoef)

    @cached_property
    def lb52(self) -> int:
        return max(self.ncoef + self.counted_edge_dims - sum(self.bar.values()), self.ncoef)

    @cached_property
    def ub53(self) -> int:
        return self.ncoef + self.edge_dims - sum(self.tilde.values())


def _columns(vectors: list[dict[int, int]], start: int = 0) -> dict[int, list[tuple[int, int]]]:
    """Each column's nonzero entries among `vectors`, as (start + index, value) pairs."""
    columns: dict[int, list[tuple[int, int]]] = {}
    for k, vec in enumerate(vectors, start):
        for c, val in vec.items():
            columns.setdefault(c, []).append((k, val))
    return columns


def _apply(u: dict[int, int], columns: dict[int, list[tuple[int, int]]]) -> dict[int, int]:
    """The nonzero dot products of u with the vectors `columns` indexes, by index."""
    out: dict[int, int] = {}
    for c, x in u.items():
        for k, y in columns.get(c, ()):
            out[k] = out.get(k, 0) + x * y
    return {k: val for k, val in out.items() if val}


def _independent_functionals(
    sys: _DegreeSystem, f: Edge, v: int
) -> tuple[list[dict[int, int]], list[int], dict[Edge, list[dict[int, int]]]]:
    """Forest edge f's functionals, the indices of those independent on
    J(v)_d, v its child, and their values: per other edge e at v, one dict
    {index: q(b)} per basis vector b of e.  The kept ones are the dim J(v)_d
    - dim J(f)_d pivot columns of the values, since the other edges' bases
    span J(v)_d.  The forward pass stops at bar_v - dim J(f)_d rows, since
    dim J(v)_d <= bar_v, the LB5.2 count that the Euler side checks by full
    <= bar.  f's functionals are the kernel of its basis, which is the
    kernel of its graded piece: the basis is that piece's reduced echelon
    form, so they are read off it (`reduced_kernel`) with no elimination.
    In the top columns only degree d's are read, from `starts[d]` on: the
    unit vectors of the columns below vanish on every degree-d vector."""
    functionals = reduced_kernel(sys.bases[f], range(sys.pieces.starts[sys.d], sys.pieces.ncols))
    at_q = _columns(functionals)
    values = {e: [_apply(b, at_q) for b in sys.bases[e]] for e in sys.mesh.interior_edges_at_vertex(v) if e != f}
    stacked = RatMatrix._of_int_rows([row for rows in values.values() for row in rows], len(functionals))
    return functionals, stacked.leading_columns(sys.bar[v] - len(sys.bases[f])), values


def _exact_dim_reduced(sys: _DegreeSystem) -> int:
    """Kernel dimension of the edge constraint map, on a tree-cotree split.

    The cross-edge differences h_e = f_ta - f_tb, for (ta, tb) =
    `edge_triangles[e]`, determine the triangle polynomials up to one
    global polynomial, and they do so exactly when they sum to zero around
    every interior vertex.  On the cotree (`Mesh.cotree`, built once per
    mesh) the h_e are free elements of the edge ideals; the vertex
    conditions then fix each forest edge's h_e as the signed sum over its
    cut, which must lie in that edge's ideal.  So the unknowns are the
    cotree edges' ideal coordinates, and each forest edge functional q
    gives one row, q applied to its cut: its child v's cotree edges plus
    the cuts of the forest edges g below v.  A q that kills J(v)_d kills
    each cotree h_e at v and is a combination of each g's functionals, as
    J(e), J(g) lie in J(v): its row is a combination of the rows below.
    So f keeps the dim J(v)_d - dim J(f)_d functionals independent on
    J(v)_d, found from the edge bases at v, never from the Euler path's
    vertex pivots.  All of them would give sum_v codim J(v)_d + h0
    dependent rows; the kept ones give h0.  The selection has already
    evaluated them on the bases at v, so the row parts on v's cotree edges
    are read off its values; only the cotree edges away from v are
    evaluated here, each indexed by column on first use.  The rows are
    short, and the columns follow the cotree's order and each edge's basis
    order.
    """
    cotree, cuts, child = sys.mesh.cotree
    offset, ncols = {}, 0  # each cotree edge's first kernel column
    for e in cotree:
        offset[e] = ncols
        ncols += len(sys.bases[e])
    far = {}  # a cotree edge's basis by column, for the cuts it lies in away from v
    rows = []
    for f, cut in cuts.items():
        v = child[f]
        functionals, kept, values = _independent_functionals(sys, f, v)
        near = {}  # each kept functional's entries on a cotree edge at v, by its index
        for te in cut:
            if v in te:
                near[te] = _columns(values[te], offset[te])
            elif te not in far:
                far[te] = _columns(sys.bases[te], offset[te])
        for j in kept:
            row = {}
            for te, sign in cut.items():
                entries = near[te].get(j, ()) if te in near else _apply(functionals[j], far[te]).items()
                row.update((c, sign * val) for c, val in entries)
            rows.append(row)
    return sys.ncoef + ncols - RatMatrix._of_int_rows(rows, ncols).rank()


def exact_dimension(
    mesh: Mesh, smooth: SmoothnessSpec, d: int, pieces: EdgePieces | None = None
) -> int:
    """Dimension of the degree-d superspline space, by the kernel oracle.

    The kernel of the edge constraint map is evaluated on the mesh's
    tree-cotree split: the cotree edges' ideal coordinates are the
    unknowns, and each forest edge's cut gives its rows.
    """
    return _exact_dim_reduced(_system(mesh, smooth, d, pieces))


def h0_dimension(
    mesh: Mesh, smooth: SmoothnessSpec, d: int, pieces: EdgePieces | None = None
) -> int:
    """dim of the degree-d piece of the zeroth ideal-complex homology.

    Computed as the cokernel of the boundary map sending the degree-d piece
    of each interior-edge ideal to its interior endpoint vertices with the
    sign convention [far] - [near] in global index order.  Each interior
    edge is a tilde edge of exactly one end, its later one in
    `Mesh.ordering` (boundary vertices come first), so with the vertices in
    that order and each edge's columns at its later end the map is block
    triangular, and each vertex's diagonal block spans its tilde ideal's
    piece.  Hence rank >= sum of tilde dims, and h0 <= sum over v of full_v
    - tilde_v: h0 = 0 where tilde = full at every interior vertex, with no
    matrix.  Otherwise the map is assembled transposed in that layout
    (`_boundary_transposed`), since rank is invariant under transposition
    and the transposed layout fills in less.  Its rows (v, c) are built
    only at v's leading monomials c: v's block is v's stacked edge rows
    transposed, up to signs, so the rows at their pivot columns are
    rank-many independent rows of it and span its rows.  h0 = 0 is proved
    by a rank mod one prime equal to the row count; otherwise the integer
    rank decides.
    """
    sys = _system(mesh, smooth, d, pieces)
    if all(sys.tilde[v] == sys.full[v] for v in sys.interior):
        return 0
    boundary = _boundary_transposed(sys)
    nrows = boundary.nrows
    return 0 if nrows <= boundary.ncols and boundary.rank_mod() == nrows else nrows - boundary.rank()


def _boundary_transposed(sys: _DegreeSystem) -> RatMatrix:
    """The boundary map of `h0_dimension`, transposed: rows (v, c) at each
    interior vertex's full leading monomials, in vertex then monomial
    order; columns the edge basis vectors, grouped by later end in
    `Mesh.ordering`, each basis in decreasing pivot column."""
    row_at: dict[int, dict[int, int]] = {}
    nrows = 0
    for v, cols in sys.full_pivots.items():
        row_at[v] = {c: nrows + k for k, c in enumerate(cols)}
        nrows += len(cols)
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    position = sys.mesh.ordering_position
    col = 0
    for lo, hi in sorted(sys.bases, key=lambda e: (max(map(position.get, e)), e)):
        for bvec in sys.bases[lo, hi]:
            for v, sign in ((hi, 1), (lo, -1)):
                at = row_at.get(v)
                if at is not None:
                    for c, val in bvec.items():
                        if c in at:
                            rows[at[c]][col] = sign * val
            col += 1
    return RatMatrix._of_int_rows(rows, col)


def lower_bound_51(
    mesh: Mesh, smooth: SmoothnessSpec, d: int, pieces: EdgePieces | None = None
) -> int:
    """Lower bound from dropping the homology term, with full vertex ideals.

    Floored at C(d+2, 2): global polynomials are always supersplines, and
    this floor is what makes the reported bound informative at low degree.
    """
    return _system(mesh, smooth, d, pieces).lb51


def lower_bound_52(
    mesh: Mesh, smooth: SmoothnessSpec, d: int, pieces: EdgePieces | None = None
) -> int:
    """Combinatorial lower bound with simplified (center-only) vertex ideals.

    C(d+2, 2) + edge counts - bar vertex counts, floored at C(d+2, 2) like
    lower_bound_51; no rank is computed for any spec, and no edge piece read.
    """
    return _system(mesh, smooth, d, pieces).lb52


def upper_bound_53(
    mesh: Mesh, smooth: SmoothnessSpec, d: int, pieces: EdgePieces | None = None
) -> int:
    """Upper bound from vertex ideals restricted along an admissible order."""
    return _system(mesh, smooth, d, pieces).ub53


def check_euler_side(
    mesh: Mesh,
    smooth: SmoothnessSpec,
    d: int,
    exact: int,
    pieces: EdgePieces | None = None,
) -> int:
    """Check a kernel oracle's degree-d dimension against the Euler side
    alone, and return h0.

    The homology term comes from the boundary-map cokernel, and the
    degree-d Euler identity C(d+2, 2) + edge dims - full vertex dims + h0
    must give `exact`.  The echelon edge dims must equal their lattice
    counts, and at every interior vertex tilde <= full <= bar must hold,
    since the tilde ideal lies in J(v) and J(v) in its bar ideal.  A
    violation raises InternalInconsistencyError (exit code 2 in the CLI).
    """
    sys = _system(mesh, smooth, d, pieces)
    h0 = h0_dimension(mesh, smooth, d, sys.pieces)
    assembled = sys.ncoef + sys.edge_dims - sum(sys.full.values()) + h0
    unordered = [v for v in sys.interior if not sys.tilde[v] <= sys.full[v] <= sys.bar[v]]
    if exact != assembled or sys.counted_edge_dims != sys.edge_dims or unordered:
        raise InternalInconsistencyError(
            f"at degree {d}: kernel oracle {exact} vs Euler assembly {assembled}, "
            f"edge ideals counted {sys.counted_edge_dims} vs ranked {sys.edge_dims}, "
            f"vertices breaking tilde <= full <= bar: {unordered}"
        )
    return h0


def euler_assembly(
    mesh: Mesh, smooth: SmoothnessSpec, d: int, pieces: EdgePieces | None = None
) -> DimensionReport:
    """Full per-degree report: the kernel oracle's exact dimension, checked
    against the Euler side (`check_euler_side`), and every bound."""
    sys = _system(mesh, smooth, d, pieces)
    exact = _exact_dim_reduced(sys)
    h0 = check_euler_side(mesh, smooth, d, exact, sys.pieces)
    return DimensionReport(
        d=d,
        term_polys=mesh.num_triangles * sys.ncoef,
        term_edges=sys.edge_dims,
        term_vertices_full=sum(sys.full.values()),
        term_vertices_bar=sum(sys.bar.values()),
        term_vertices_tilde=sum(sys.tilde.values()),
        h0=h0,
        lb51=sys.lb51,
        lb52=sys.lb52,
        ub53=sys.ub53,
        exact=exact,
    )


def _star_center(mesh: Mesh) -> int:
    if len(mesh.interior_vertices) != 1:
        raise MeshError("not a vertex star (need exactly one interior vertex)")
    return next(iter(mesh.interior_vertices))


def star_profile(mesh: Mesh, r: int) -> StarProfile:
    center = _star_center(mesh)
    t = distinct_slopes_at(mesh, center)
    omega, a, b = vertex_socle_params(t, r)
    return StarProfile(
        t=t,
        f1_interior=len(mesh.interior_edges),
        omega=omega,
        a=a,
        b=b,
    )


def star_smoothness_spec(mesh: Mesh, r: int, s: int) -> SmoothnessSpec:
    """Supersmoothness s at the center only; boundary vertices stay at r."""
    center = _star_center(mesh)
    svals = {v: r for v in range(mesh.num_vertices)}
    svals[center] = s
    return SmoothnessSpec(mesh, {e: r for e in mesh.interior_edges}, svals)


def vertex_star_dim(mesh: Mesh, r: int, s: int, d: int) -> int:
    """Closed-form dimension for a star with supersmoothness at its center.

    Edge ideals act with the center order only, so each contributes the
    one-endpoint edge dimension; the vertex ideal dimension comes from the
    two-branch formula (the socle-regime branch reproduces the simplified
    corollary form).
    """
    if not 0 <= r <= s <= d:
        raise OutOfRangeError(f"need 0 <= r <= s <= d, got ({r}, {s}, {d})")
    profile = star_profile(mesh, r)
    return (
        binom(d + 2, 2)
        + profile.f1_interior * dim_edge_ideal_boundary_closed(r, s, d)
        - dim_vertex_star_ideal_closed(profile.t, r, s, d)
    )


def schumaker_dim(mesh: Mesh, r: int, d: int) -> int:
    """Classical closed-form dimension of the C^r space on a vertex star."""
    if r < 0 or d < 0:
        raise ValueError("orders must be non-negative")
    p = star_profile(mesh, r)
    return (
        binom(d + 2, 2)
        + (p.f1_interior - p.t) * binom(d - r + 1, 2)
        + p.b * binom(d + 2 - p.omega, 2)
        + p.a * binom(d - p.omega + 1, 2)
    )


def argyris_dim(mesh: Mesh, r: int) -> int:
    """Dimension of the degree-(4r+1) space with supersmoothness 2r at vertices."""
    if r < 0:
        raise ValueError("r must be non-negative")
    _require_disk(mesh)
    c = mesh.face_counts()
    return (
        binom(2 * r + 2, 2) * c.f0
        + binom(r + 1, 2) * c.f1
        + binom(r, 2) * c.f2
    )


class IntrinsicOrder(NamedTuple):
    order: int
    generic: bool


def intrinsic_supersmoothness_order(mesh: Mesh, r: int) -> IntrinsicOrder:
    """Maximal automatic supersmoothness of C^r splines at a star's center.

    On a generic star (interior edge count equal to the slope count) every
    C^r spline is automatically C^s at the center for s = (r+1)//(t-1) + r.
    Non-generic stars are flagged; the formula value is still returned.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    p = star_profile(mesh, r)
    return IntrinsicOrder(order=(r + 1) // (p.t - 1) + r, generic=p.f1_interior == p.t)


def dim_ps_edge_point_ideal(r: int, s: int, d: int) -> int:
    """dim J_d at a split-edge point, for d >= 2s-r.

    Derived from the free resolution of the four-edge ideal at the point:
    2(s-r+1) generators of degree s+1, syzygies in degrees s+2 and
    s+i+1 / s+r+2, second syzygies in degrees s+i+2.  Telescoping the
    degree sums gives the closed form below; note the final binomial is
    C(d-2s+r, 2).
    """
    if d < 2 * s - r:
        raise OutOfRangeError(f"closed form needs d >= 2s-r, got d={d}")
    return (
        2 * (s - r + 1) * binom(d - s + 1, 2)
        - (2 * (s - r) + 1) * binom(d - s, 2)
        - binom(d - s - r, 2)
        + binom(d - 2 * s + r, 2)
    )


def ps_dim_general(mesh: Mesh, r: int, s: int, d: int) -> int:
    """Closed-form dimension on the 6-split with the induced smoothness spec.

    `mesh` is the original (unsplit) triangulation; the formula uses only
    its face counts.  Valid for s >= max(r, 2r-1) and d >= 2s-r+1, where
    the homology term vanishes and all vertex ideals reach their stable
    dimensions.

    Raises:
        OutOfRangeError: outside the validity range (callers should fall
            back to the exact oracle on the split mesh).
    """
    if r < 0:
        raise OutOfRangeError("r must be non-negative")
    if s < max(r, 2 * r - 1):
        raise OutOfRangeError(f"need s >= max(r, 2r-1), got r={r}, s={s}")
    if d < 2 * s - r + 1:
        raise OutOfRangeError(f"need d >= 2s-r+1 = {2*s-r+1}, got d={d}")
    _require_disk(mesh)
    c = mesh.face_counts()
    n = binom(d + 2, 2)
    spokes_to_edge_points = 3 * c.f2 * binom(d - s + 1, 2)
    spokes_to_vertices = 3 * c.f2 * dim_edge_ideal_closed(r, s, d)
    edge_halves = 2 * c.f1_interior * dim_edge_ideal_boundary_closed(r, s, d)
    vertices_stable = (c.f0_interior + c.f2) * (n - binom(s + 2, 2))
    edge_points = c.f1_interior * dim_ps_edge_point_ideal(r, s, d)
    return (
        n
        + spokes_to_edge_points
        + spokes_to_vertices
        + edge_halves
        - vertices_stable
        - edge_points
    )
