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
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import (
    GradedIdeal,
    dim_edge_ideal_boundary_closed,
    dim_edge_ideal_closed,
    dim_vertex_star_ideal_closed,
    edge_ideal_for,
    graded_piece_matrix,
    vertex_ideal,
)
from .mesh import (
    Edge,
    Mesh,
    MeshError,
    SmoothnessSpec,
    distinct_slopes_at,
    validate_disk,
    vertex_ordering,
)
from .ratlinalg import RatMatrix, binom

__all__ = [
    "DimensionReport",
    "InternalInconsistencyError",
    "OutOfRangeError",
    "StarProfile",
    "argyris_dim",
    "euler_assembly",
    "exact_dimension",
    "h0_dimension",
    "intrinsic_supersmoothness_order",
    "is_degenerate",
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


@dataclass(frozen=True)
class DimensionReport:
    """Per-degree record of all formula terms and results."""

    d: int
    term_polys: int
    term_edges: int
    term_vertices_full: int
    term_vertices_bar: int
    term_vertices_tilde: int
    h0_dim: int
    lb_51: int
    lb_52: int
    ub_53: int
    exact: int


@dataclass(frozen=True)
class StarProfile:
    t: int
    f1_interior: int
    omega: int
    a: int
    b: int


def _require_disk(mesh: Mesh) -> None:
    report = validate_disk(mesh)
    if not report.ok:
        raise MeshError(f"mesh is not a valid disk: {', '.join(report.failures)}")


def _require_problem(mesh: Mesh, d: int) -> None:
    if d < 0:
        raise ValueError("degree must be non-negative")
    _require_disk(mesh)


class _EdgeData:
    """Degree-d data for one interior edge: ideal basis and functionals.

    Both come from the one (memoized) reduced echelon form of the edge
    ideal's degree-d piece, as primitive integer vectors: the basis is its
    rows, the functionals its kernel basis.
    """

    __slots__ = ("dim", "basis", "functionals")

    def __init__(self, ideal: GradedIdeal, d: int):
        span = graded_piece_matrix(ideal.generators, d)
        self.basis = span.rref()[1]
        self.dim = len(self.basis)
        self.functionals = span.kernel_basis()


class _DegreeSystem:
    """Shared per-degree data and formulas for all the dimension computations.

    Validates the disk and the degree, builds each interior edge's data once,
    and ranks each vertex-ideal variant at most once.  The bounds are
    C(d+2, 2) + sum of edge dims - sum of vertex dims, with the full (LB5.1),
    bar (LB5.2) or tilde (UB5.3) vertex ideals; the lower bounds are floored
    at C(d+2, 2), since global polynomials are always supersplines.
    """

    def __init__(self, mesh: Mesh, smooth: SmoothnessSpec, d: int):
        _require_problem(mesh, d)
        self.mesh = mesh
        self.smooth = smooth
        self.d = d
        self.ncoef = binom(d + 2, 2)
        self.edges = {
            e: _EdgeData(edge_ideal_for(mesh, smooth, e), d)
            for e in sorted(mesh.interior_edges)
        }
        self._vertex_totals: dict[str, int] = {}

    def sum_edge_dims(self) -> int:
        return sum(data.dim for data in self.edges.values())

    def sum_vertex_dims(self, variant: str) -> int:
        """Sum over interior vertices of the degree-d vertex ideal dimensions.

        Each variant is ranked once per system; the tilde variant restricts
        along the admissible vertex ordering.
        """
        total = self._vertex_totals.get(variant)
        if total is None:
            mesh, smooth = self.mesh, self.smooth
            ordering = vertex_ordering(mesh) if variant == "tilde" else None
            total = sum(
                vertex_ideal(mesh, smooth, v, variant, ordering).graded_dim(self.d)
                for v in sorted(mesh.interior_vertices)
            )
            self._vertex_totals[variant] = total
        return total

    def _bound(self, variant: str) -> int:
        return self.ncoef + self.sum_edge_dims() - self.sum_vertex_dims(variant)

    def lb51(self) -> int:
        return max(self._bound("full"), self.ncoef)

    def lb52(self) -> int:
        return max(self._bound("bar"), self.ncoef)

    def ub53(self) -> int:
        return self._bound("tilde")


def _sparse_dot(u: dict[int, int], v: dict[int, int]) -> int:
    if len(u) > len(v):
        u, v = v, u
    total = 0
    for c, x in u.items():
        y = v.get(c)
        if y is not None:
            total += x * y
    return total


def _dual_bfs_tree(mesh: Mesh) -> tuple[list[Edge], list[dict[Edge, int]]]:
    """Breadth-first spanning tree of the dual graph, rooted at its centre.

    The root is a triangle of minimum eccentricity (the smallest index on
    ties), and each triangle's neighbours are visited in sorted edge order,
    so the tree is deterministic.  Returns the tree edges in discovery order
    and, per triangle t, the signed tree path D[t] with
    f_root - f_t = sum(sign * h_e), where h_e = f_ta - f_tb for ta < tb.
    """
    adj: list[list[tuple[int, Edge, int]]] = [[] for _ in range(mesh.num_triangles)]
    for e in sorted(mesh.interior_edges):
        ta, tb = mesh.edge_triangles[e]
        adj[ta].append((tb, e, 1))
        adj[tb].append((ta, e, -1))

    def search(root: int) -> tuple[list[int], dict[int, tuple[int, Edge, int]], int]:
        depth = {root: 0}
        via: dict[int, tuple[int, Edge, int]] = {}
        order = [root]
        for u in order:
            for v, e, sign in adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    via[v] = (u, e, sign)
                    order.append(v)
        return order, via, depth[order[-1]]

    root = min(range(mesh.num_triangles), key=lambda t: search(t)[2])
    order, via, _ = search(root)
    diff: list[dict[Edge, int]] = [{} for _ in range(mesh.num_triangles)]
    tree: list[Edge] = []
    for v in order[1:]:
        u, e, sign = via[v]
        # f_root - f_v = (f_root - f_u) + (f_u - f_v), and f_u - f_v = sign * h_e
        diff[v] = {**diff[u], e: sign}
        tree.append(e)
    return tree, diff


def _exact_dim_reduced(sys: _DegreeSystem) -> int:
    """Kernel dimension of the edge constraint map, on a spanning tree.

    On a spanning tree of the dual graph the cross-edge differences are free
    elements of the edge ideals; only the non-tree edges contribute
    constraint rows, and the root polynomial drops out entirely.  This cuts
    the elimination size by roughly the number of triangles compared with
    stacking one block of unknowns per triangle.  The tree is breadth-first
    from a central triangle (`_dual_bfs_tree`): its fundamental cycles stay
    short and local, so the constraint rows overlap in a nested pattern and
    the elimination fills in little.
    """
    mesh, n = sys.mesh, sys.ncoef
    tree, diff = _dual_bfs_tree(mesh)
    in_tree = set(tree)

    col_of: dict[Edge, int] = {}
    ncols = 0
    for e in tree:
        col_of[e] = ncols
        ncols += sys.edges[e].dim

    rows = []
    for e, data in sys.edges.items():
        if e in in_tree:
            continue
        ta, tb = mesh.edge_triangles[e]
        # f_ta - f_tb = D[tb] - D[ta]
        combo: dict[Edge, int] = dict(diff[tb])
        for k, s in diff[ta].items():
            combo[k] = combo.get(k, 0) - s
        combo = {k: s for k, s in combo.items() if s}
        for q in data.functionals:
            row: dict[int, int] = {}
            for te, sign in combo.items():
                base = col_of[te]
                for k, bvec in enumerate(sys.edges[te].basis):
                    val = _sparse_dot(q, bvec)
                    if val:
                        row[base + k] = sign * val
            rows.append(row)
    rank = RatMatrix(rows, ncols).rank() if ncols else 0
    return n + ncols - rank


def exact_dimension(mesh: Mesh, smooth: SmoothnessSpec, d: int) -> int:
    """Dimension of the degree-d superspline space, by the kernel oracle.

    The kernel of the edge constraint map is evaluated through the
    spanning-tree reparametrization of the dual graph.
    """
    return _exact_dim_reduced(_DegreeSystem(mesh, smooth, d))


def h0_dimension(
    mesh: Mesh, smooth: SmoothnessSpec, d: int, sys: _DegreeSystem | None = None
) -> int:
    """dim of the degree-d piece of the zeroth ideal-complex homology.

    Computed as the cokernel of the boundary map sending the degree-d piece
    of each interior-edge ideal to its interior endpoint vertices with the
    sign convention [far] - [near] in global index order.  The map is
    assembled transposed, one row per (interior vertex, monomial) and one
    column per edge basis vector, since rank is invariant under
    transposition and the transposed layout fills in less.
    """
    if sys is None:
        sys = _DegreeSystem(mesh, smooth, d)
    n = sys.ncoef
    interior = sorted(mesh.interior_vertices)
    block = {v: i * n for i, v in enumerate(interior)}
    rows: list[dict[int, int]] = [{} for _ in range(n * len(interior))]
    col = 0
    for (lo, hi), data in sys.edges.items():
        for bvec in data.basis:
            for v, sign in ((hi, 1), (lo, -1)):
                base = block.get(v)
                if base is not None:
                    for c, val in bvec.items():
                        rows[base + c][col] = sign * val
            col += 1
    rank = RatMatrix(rows, col).rank() if interior else 0
    return sys.sum_vertex_dims("full") - rank


def lower_bound_51(mesh: Mesh, smooth: SmoothnessSpec, d: int) -> int:
    """Lower bound from dropping the homology term, with full vertex ideals.

    Floored at C(d+2, 2): global polynomials are always supersplines, and
    this floor is what makes the reported bound informative at low degree.
    """
    return _DegreeSystem(mesh, smooth, d).lb51()


def _bar_vertex_dims_closed(mesh: Mesh, r: int, s: int, d: int) -> int:
    total = 0
    for v in sorted(mesh.interior_vertices):
        if d <= s:
            continue  # no bar generator has degree below s+1
        t = distinct_slopes_at(mesh, v)
        total += dim_vertex_star_ideal_closed(t, r, s, d)
    return total


def lower_bound_52(mesh: Mesh, smooth: SmoothnessSpec, d: int) -> int:
    """Computable lower bound with simplified (center-only) vertex ideals.

    Uniform specs use the closed forms (edge count times the uniform edge
    dimension, two-branch vertex formula per slope count); mixed specs fall
    back to rank arithmetic on the bar-variant vertex ideals.  Floored at
    C(d+2, 2) like lower_bound_51.
    """
    uniform = smooth.is_uniform()
    if uniform is None or uniform[0] > uniform[1]:
        return _DegreeSystem(mesh, smooth, d).lb52()
    _require_problem(mesh, d)
    r, s = uniform
    n = binom(d + 2, 2)
    raw = (
        n
        + len(mesh.interior_edges) * dim_edge_ideal_closed(r, s, d)
        - _bar_vertex_dims_closed(mesh, r, s, d)
    )
    return max(raw, n)


def upper_bound_53(mesh: Mesh, smooth: SmoothnessSpec, d: int) -> int:
    """Upper bound from vertex ideals restricted along an admissible order."""
    return _DegreeSystem(mesh, smooth, d).ub53()


def euler_assembly(mesh: Mesh, smooth: SmoothnessSpec, d: int) -> DimensionReport:
    """Full per-degree report; exact and Euler-assembled values must agree.

    The exact dimension comes from the kernel oracle and the homology term
    from the boundary-map cokernel; the degree-d Euler identity ties them
    to the ideal dimension sums.  Disagreement raises
    InternalInconsistencyError (exit code 2 in the CLI).
    """
    sys = _DegreeSystem(mesh, smooth, d)
    n = sys.ncoef
    term_edges = sys.sum_edge_dims()
    full = sys.sum_vertex_dims("full")
    h0 = h0_dimension(mesh, smooth, d, sys)
    exact = _exact_dim_reduced(sys)
    assembled = n + term_edges - full + h0
    if exact != assembled:
        raise InternalInconsistencyError(
            f"kernel oracle gives {exact} but Euler assembly gives {assembled} "
            f"at degree {d}"
        )
    return DimensionReport(
        d=d,
        term_polys=mesh.num_triangles * n,
        term_edges=term_edges,
        term_vertices_full=full,
        term_vertices_bar=sys.sum_vertex_dims("bar"),
        term_vertices_tilde=sys.sum_vertex_dims("tilde"),
        h0_dim=h0,
        lb_51=sys.lb51(),
        lb_52=sys.lb52(),
        ub_53=sys.ub53(),
        exact=exact,
    )


def _star_center(mesh: Mesh) -> int:
    if len(mesh.interior_vertices) != 1:
        raise MeshError("not a vertex star (need exactly one interior vertex)")
    return next(iter(mesh.interior_vertices))


def star_profile(mesh: Mesh, r: int) -> StarProfile:
    from .ideals import vertex_socle_params

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


@dataclass(frozen=True)
class IntrinsicOrder:
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


def is_degenerate(mesh: Mesh, r: int, s: int) -> bool:
    """Whether imposing supersmoothness s at the center changes nothing.

    True exactly when the C^r space in degree s is trivial (only global
    polynomials), in which case the supersmooth space equals the plain one.
    """
    if not 0 <= r <= s:
        raise ValueError(f"need 0 <= r <= s, got ({r}, {s})")
    return schumaker_dim(mesh, r, s) == binom(s + 2, 2)


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
    spokes_to_vertices = 3 * c.f2 * ((d - s) ** 2 - binom(d - 2 * s + r, 2))
    edge_halves = (
        2
        * c.f1_interior
        * ((s - r + 1) * binom(d - s + 1, 2) - (s - r) * binom(d - s, 2))
    )
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
