"""Edge and vertex ideals with exact graded dimension computations.

Every ideal here is generated by products of powers of linear forms.  For
an interior edge with endpoint orders (s1, s2) and edge order r, the three
forms (edge form, one complement form per endpoint) are a coordinate frame
in which the ideal is monomial, so an explicit minimal generating set can
be written down; its correctness against the defining triple intersection
is established by the rank oracle in the test suite.

Graded dimensions are computed as ranks of multiplication matrices: the
degree-d piece of the ideal is spanned by generator-times-monomial
products, laid out as coefficient vectors over the fixed degree-d monomial
basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mesh import Edge, Mesh, SmoothnessSpec
from .polyring import (
    HomogeneousPolynomial,
    LinearForm3,
    edge_linear_form,
    graded_monomial_basis,
    vertex_complement_form,
)
from .ratlinalg import RatMatrix, binom

__all__ = [
    "EdgeIdealSpec",
    "GradedIdeal",
    "dim_edge_ideal_boundary_closed",
    "dim_edge_ideal_closed",
    "dim_vertex_star_ideal_closed",
    "edge_ideal",
    "edge_ideal_for",
    "edge_ideal_spec_for",
    "graded_piece_matrix",
    "vertex_ideal",
    "vertex_socle_params",
]


class GradedIdeal:
    """A homogeneous ideal given by a finite generator list."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        gens = tuple(generators)
        if any(g.is_zero() for g in gens):
            raise ValueError("zero generator")
        self.generators = gens

    def min_degree(self) -> int | None:
        return min((g.degree for g in self.generators), default=None)

    def graded_dim(self, d: int) -> int:
        """Dimension of the degree-d piece over the rationals."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        lo = self.min_degree()
        if lo is None or d < lo:
            return 0
        return graded_piece_matrix(self.generators, d).rank()

    def to_json(self) -> dict:
        return {"generators": [g.to_json() for g in self.generators]}

    def __repr__(self) -> str:
        return f"GradedIdeal({len(self.generators)} generators)"


def graded_piece_matrix(generators, d: int) -> RatMatrix:
    """Rows spanning the degree-d span of `generators` times monomials."""
    ncols = binom(d + 2, 2)
    rows = []
    for g in generators:
        if g.degree > d:
            continue
        for mono in graded_monomial_basis(d - g.degree):
            rows.append(g.times_monomial(mono).coefficient_vector())
    return RatMatrix(rows, ncols)


@dataclass(frozen=True)
class EdgeIdealSpec:
    """Adapted frame and orders for one interior edge.

    `ell_tau` vanishes on the homogenized edge; `ell_gamma` and
    `ell_gamma_prime` complete the vanishing ideals of the two endpoints.
    Orders satisfy r <= s_gamma and r <= s_gamma_prime.
    """

    ell_tau: LinearForm3
    ell_gamma: LinearForm3
    ell_gamma_prime: LinearForm3
    r: int
    s_gamma: int
    s_gamma_prime: int

    def __post_init__(self):
        if not 0 <= self.r <= min(self.s_gamma, self.s_gamma_prime):
            raise ValueError(
                f"need 0 <= r <= s at both endpoints, got r={self.r}, "
                f"s=({self.s_gamma}, {self.s_gamma_prime})"
            )
        (a, b, c), (d, e, f), (g, h, i) = (
            (form.a, form.b, form.c)
            for form in (self.ell_tau, self.ell_gamma, self.ell_gamma_prime)
        )
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 0:
            raise ValueError("edge frame forms are linearly dependent")


def _minimal_exponents(r: int, s1: int, s2: int) -> list[tuple[int, int, int]]:
    """Minimal (edge, gamma, gamma') exponent triples of the monomial model.

    In the adapted frame the edge ideal is <x^(r+1)> cap <x,y>^(s1+1) cap
    <x,z>^(s2+1), a monomial ideal whose members x^a y^b z^c are exactly
    those with a >= r+1, a+b >= s1+1, a+c >= s2+1.
    """
    triples = []
    for i in range(s1 - r + 1):
        for j in range(s2 - r + 1):
            m = max(r + 1, s1 + 1 - i, s2 + 1 - j)
            triples.append((m, i, j))
    minimal = []
    for t in triples:
        if not any(
            u != t and u[0] <= t[0] and u[1] <= t[1] and u[2] <= t[2]
            for u in triples
        ):
            minimal.append(t)
    return sorted(set(minimal))


def edge_ideal(spec: EdgeIdealSpec) -> GradedIdeal:
    """The ideal of one interior edge as an explicit generator list.

    Generators are ell_tau^m * ell_gamma^i * ell_gamma'^j over the minimal
    exponent triples with m = max(r+1, s_gamma+1-i, s_gamma'+1-j); in the
    uniform case s_gamma = s_gamma' this reduces to the single-parameter
    family ell_tau^(s+1-i) ell_gamma^i ell_gamma'^i, 0 <= i <= s-r.
    """
    gens = []
    for m, i, j in _minimal_exponents(spec.r, spec.s_gamma, spec.s_gamma_prime):
        g = spec.ell_tau.power(m)
        if i:
            g = g * spec.ell_gamma.power(i)
        if j:
            g = g * spec.ell_gamma_prime.power(j)
        gens.append(g)
    return GradedIdeal(gens)


def edge_ideal_spec_for(mesh: Mesh, smooth: SmoothnessSpec, edge: Edge) -> EdgeIdealSpec:
    """Adapted frame for a mesh edge, with effective endpoint orders.

    Endpoint supersmoothness below the edge order is absorbed by the edge
    factor, so the effective order max(s_vertex, r_edge) generates the same
    ideal; clamping here keeps the generator recipe valid for specs like
    the Powell-Sabin one where an edge order exceeds an endpoint order.
    """
    e = tuple(sorted(edge))
    if e not in mesh.interior_edges:
        raise ValueError(f"{edge} is not an interior edge")
    v1, v2 = e
    p1, p2 = mesh.vertices[v1], mesh.vertices[v2]
    ell_tau = edge_linear_form(p1, p2)
    return EdgeIdealSpec(
        ell_tau=ell_tau,
        ell_gamma=vertex_complement_form(ell_tau, p1),
        ell_gamma_prime=vertex_complement_form(ell_tau, p2),
        r=smooth.r[e],
        s_gamma=smooth.effective_s(v1, e),
        s_gamma_prime=smooth.effective_s(v2, e),
    )


def edge_ideal_for(mesh: Mesh, smooth: SmoothnessSpec, edge: Edge) -> GradedIdeal:
    return edge_ideal(edge_ideal_spec_for(mesh, smooth, edge))


def _bar_generators_for_edge(
    mesh: Mesh, smooth: SmoothnessSpec, edge: Edge, v: int
) -> list[HomogeneousPolynomial]:
    """Generators of <ell_tau^(r+1)> cap m_v^(s_v+1) for one edge at v."""
    e = tuple(sorted(edge))
    p = mesh.vertices[v]
    w = e[1] if e[0] == v else e[0]
    ell_tau = edge_linear_form(p, mesh.vertices[w])
    comp = vertex_complement_form(ell_tau, p)
    r = smooth.r[e]
    s = smooth.effective_s(v, e)
    gens = []
    for i in range(s - r + 1):
        m = max(r + 1, s + 1 - i)
        g = ell_tau.power(m)
        if i:
            g = g * comp.power(i)
        gens.append(g)
    return gens


def vertex_ideal(
    mesh: Mesh,
    smooth: SmoothnessSpec,
    v: int,
    variant: str = "full",
    ordering=None,
) -> GradedIdeal:
    """The ideal attached to an interior vertex.

    full:  sum of the edge ideals over all interior edges at v.
    bar:   same sum but with only the center-vertex intersection kept,
           i.e. <ell_tau^(r+1)> cap m_v^(s_v+1) per edge.
    tilde: sum of full edge ideals restricted to edges whose far vertex is
           earlier in `ordering` or on the boundary.
    """
    if not mesh.is_interior_vertex(v):
        raise ValueError(f"vertex {v} is not interior")
    edges = mesh.interior_edges_at_vertex(v)
    gens: list[HomogeneousPolynomial] = []
    if variant == "full":
        for e in edges:
            gens.extend(edge_ideal_for(mesh, smooth, e).generators)
    elif variant == "bar":
        for e in edges:
            gens.extend(_bar_generators_for_edge(mesh, smooth, e, v))
    elif variant == "tilde":
        if ordering is None:
            raise ValueError("tilde variant needs a vertex ordering")
        pos = {u: k for k, u in enumerate(ordering)}
        for e in edges:
            w = e[1] if e[0] == v else e[0]
            if w in mesh.boundary_vertices or pos[w] < pos[v]:
                gens.extend(edge_ideal_for(mesh, smooth, e).generators)
        if not gens:
            raise ValueError(f"vertex {v} has no earlier/boundary neighbors")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return GradedIdeal(gens)


def dim_edge_ideal_closed(r: int, s: int, d: int) -> int:
    """dim J(tau)_d for the uniform interior edge ideal, in closed form.

    Equals (d-s)^2 - C(d-2s+r, 2) for d > s and vanishes for d <= s (no
    generator has degree below s+1).
    """
    if not 0 <= r <= s:
        raise ValueError(f"need 0 <= r <= s, got ({r}, {s})")
    if d <= s:
        return 0
    return (d - s) ** 2 - binom(d - 2 * s + r, 2)


def dim_edge_ideal_boundary_closed(r: int, s: int, d: int) -> int:
    """dim J(tau)_d when supersmoothness acts at one endpoint only."""
    if not 0 <= r <= s:
        raise ValueError(f"need 0 <= r <= s, got ({r}, {s})")
    return (s - r + 1) * binom(d - s + 1, 2) - (s - r) * binom(d - s, 2)


def vertex_socle_params(t: int, r: int) -> tuple[int, int, int]:
    """(Omega, a, b) for the power ideal of t distinct slopes at order r.

    Omega = floor(t r / (t-1)) + 1 is the socle degree bound; a and b are
    the multiplicities of the two syzygy degrees in its resolution.
    """
    if t < 2:
        raise ValueError("an interior vertex star has at least 2 slopes")
    if r < 0:
        raise ValueError("negative smoothness order")
    omega = (t * r) // (t - 1) + 1
    a = t * (r + 1) + (1 - t) * omega
    b = t - a - 1
    return omega, a, b


def dim_vertex_star_ideal_closed(t: int, r: int, s: int, d: int) -> int:
    """dim J(gamma)_d for the star ideal sum(<l^(r+1)>) cap m^(s+1).

    Closed two-branch form: below the socle threshold the quotient keeps
    the power-ideal resolution terms; at or above it the ideal is all of
    m^(s+1).
    """
    if t < 2:
        raise ValueError("an interior vertex star has at least 2 slopes")
    if not 0 <= r <= s <= d:
        raise ValueError(f"need 0 <= r <= s <= d, got ({r}, {s}, {d})")
    omega, a, b = vertex_socle_params(t, r)
    n = binom(d + 2, 2)
    if s < omega - 1:
        quotient = (
            n
            - t * (d - s) * (d + s - 2 * r + 1) // 2
            + b * binom(d + 2 - omega, 2)
            + a * binom(d + 1 - omega, 2)
        )
    else:
        quotient = binom(s + 2, 2)
    return n - quotient
