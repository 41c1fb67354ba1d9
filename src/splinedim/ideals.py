"""Edge and vertex ideals with exact graded dimension computations.

Every ideal here is generated by products of powers of linear forms.  For
an interior edge with endpoint orders (s1, s2) and edge order r, the three
forms (edge form, one complement form per endpoint) are a coordinate frame
in which the ideal is the monomial model: x^a y^b z^c with a >= r+1,
a+b >= s1+1 and a+c >= s2+1.  `_minimal_exponents` lists its minimal
generators, which give the edge ideals and, with the far order lowered to
r, the bar generators; the rank oracle in the test suite checks them
against the defining triple intersection.

`GradedIdeal.graded_dim` ranks generator-times-monomial products over the
degree-d monomial basis; only the `ideal` dump and the tests use it, since
the dimension pipeline ranks the stacked edge echelon rows of the edges
`vertex_ideal_edges` selects.  The edge and bar vertex ideal dimensions
are also counted, with no rank: lattice points of the monomial model, and
binary-form Hilbert functions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .mesh import Edge, Mesh, SmoothnessSpec, direction_key
from .polyring import (
    HomogeneousPolynomial,
    LinearForm3,
    cross,
    edge_linear_form,
    graded_monomial_basis,
    monomial_index,
    vertex_complement_form,
)
from .ratlinalg import RatMatrix, binom

__all__ = [
    "EdgeIdealSpec",
    "GradedIdeal",
    "dim_bar_vertex_ideal_count",
    "dim_edge_ideal_boundary_closed",
    "dim_edge_ideal_closed",
    "dim_edge_ideal_count",
    "dim_vertex_star_ideal_closed",
    "edge_ideal",
    "edge_ideal_for",
    "edge_ideal_spec_for",
    "graded_piece_matrix",
    "vertex_ideal",
    "vertex_ideal_edges",
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

    def graded_dim(self, d: int) -> int:
        """Dimension of the degree-d piece over the rationals."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        return graded_piece_matrix(self.generators, d).rank()

    def to_json(self) -> dict:
        return {"generators": [g.to_json() for g in self.generators]}

    def __repr__(self) -> str:
        return f"GradedIdeal({len(self.generators)} generators)"


def graded_piece_matrix(generators, d: int) -> RatMatrix:
    """Rows spanning the degree-d span of `generators` times monomials.

    Each row is laid out straight from g's terms, with no polynomial per
    row: at degree d the column of (i, j, k) is base[k] + j, with base[k]
    the column of x^(d-k) z^k (`monomial_index`), so g times x^a y^b z^c
    holds the coefficient of each term x^i y^j z^k at base[k + c] + j + b.
    Distinct terms land in distinct columns, so a row's entries are g's
    nonzero `int` coefficients, checked when g was built, and enter
    unchecked."""
    base = [monomial_index((d - k, 0, k)) for k in range(d + 1)]
    rows = []
    for g in generators:
        if g.degree > d:
            continue
        terms = [(j, k, v) for (_, j, k), v in g.terms.items()]
        rows += [{base[k + c] + j + b: v for j, k, v in terms} for _, b, c in graded_monomial_basis(d - g.degree)]
    return RatMatrix._of_int_rows(rows, binom(d + 2, 2))


class _EdgeFrame(NamedTuple):
    ell_tau: LinearForm3
    ell_gamma: LinearForm3
    ell_gamma_prime: LinearForm3
    r: int
    s_gamma: int
    s_gamma_prime: int


class EdgeIdealSpec(_EdgeFrame):
    """Adapted frame and orders for one interior edge.

    `ell_tau` vanishes on the homogenized edge; `ell_gamma` and
    `ell_gamma_prime` complete the vanishing ideals of the two endpoints.
    Orders satisfy r <= s_gamma and r <= s_gamma_prime.
    """

    __slots__ = ()

    def __new__(cls, ell_tau, ell_gamma, ell_gamma_prime, r, s_gamma, s_gamma_prime):
        if not 0 <= r <= min(s_gamma, s_gamma_prime):
            raise ValueError(f"need 0 <= r <= s at both endpoints, got r={r}, s=({s_gamma}, {s_gamma_prime})")
        # tau . (gamma x gamma') = det(tau, gamma, gamma'); gamma x gamma' is
        # where they meet, or 0 when they coincide
        if ell_tau.vanishes_at_vertex(cross(ell_gamma, ell_gamma_prime)):
            raise ValueError("edge frame forms are linearly dependent")
        return super().__new__(cls, ell_tau, ell_gamma, ell_gamma_prime, r, s_gamma, s_gamma_prime)


def _minimal_exponents(r: int, s1: int, s2: int) -> list[tuple[int, int, int]]:
    """Minimal (edge, gamma, gamma') exponent triples of the monomial model.

    In the adapted frame the edge ideal is <x^(r+1)> cap <x,y>^(s1+1) cap
    <x,z>^(s2+1), a monomial ideal whose members x^a y^b z^c are exactly
    those with a >= r+1, a+b >= s1+1, a+c >= s2+1: one minimal monomial
    for each edge exponent a up to max(s1, s2)+1.
    """
    return [(a, max(0, s1 + 1 - a), max(0, s2 + 1 - a)) for a in range(r + 1, max(s1, s2) + 2)]


def dim_edge_ideal_count(r: int, s1: int, s2: int, d: int) -> int:
    """dim J(e)_d: the monomials x^a y^b z^c of degree d in the monomial model."""
    return sum(
        max(0, d - a + 1 - max(0, s1 + 1 - a) - max(0, s2 + 1 - a))
        for a in range(r + 1, d + 1)
    )


@lru_cache(maxsize=1024)
def _power(form: LinearForm3, k: int) -> HomogeneousPolynomial:
    """form^k, built once while among the last 1024 used: the edges at a
    vertex share its complement form, and the edges along a line its form."""
    return form.power(k)


def _products(forms, exponents) -> list[HomogeneousPolynomial]:
    """f0^a * f1^b * f2^c for `forms` (f0, f1, f2) and each (a, b, c); zero b, c skipped."""
    tau, *others = forms
    gens = []
    for a, *rest in exponents:
        g = _power(tau, a)
        for form, k in zip(others, rest):
            if k:
                g = g * _power(form, k)
        gens.append(g)
    return gens


def edge_ideal(spec: EdgeIdealSpec) -> GradedIdeal:
    """The ideal of one interior edge as an explicit generator list.

    Generators are ell_tau^a * ell_gamma^b * ell_gamma'^c over the minimal
    exponents of the monomial model, `_minimal_exponents`; in the uniform
    case s_gamma = s_gamma' = s they are ell_tau^(s+1-i) ell_gamma^i
    ell_gamma'^i, 0 <= i <= s-r.
    """
    exponents = _minimal_exponents(spec.r, spec.s_gamma, spec.s_gamma_prime)
    return GradedIdeal(_products((spec.ell_tau, spec.ell_gamma, spec.ell_gamma_prime), exponents))


def edge_ideal_spec_for(mesh: Mesh, smooth: SmoothnessSpec, edge: Edge) -> EdgeIdealSpec:
    """Adapted frame for a mesh edge, with effective endpoint orders.

    The forms are `int` arithmetic on the endpoints' homogeneous points
    (`Mesh.points`).  Endpoint supersmoothness below the edge order is
    absorbed by the edge factor, so the effective order max(s_vertex,
    r_edge) generates the same ideal; clamping here keeps the generator
    recipe valid for specs like the Powell-Sabin one where an edge order
    exceeds an endpoint order.
    """
    e = tuple(sorted(edge))
    if e not in mesh.interior_edges:
        raise ValueError(f"{edge} is not an interior edge")
    v1, v2 = e
    p1, p2 = mesh.points[v1], mesh.points[v2]
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
    """Generators of <ell_tau^(r+1)> cap m_v^(s_v+1) for one edge at v: the
    edge ideal with the far order lowered to r, highest ell_tau power first."""
    spec = edge_ideal_spec_for(mesh, smooth, edge)
    near, far, s = spec.ell_gamma, spec.ell_gamma_prime, spec.s_gamma
    if v != min(edge):
        near, far, s = far, near, spec.s_gamma_prime
    return _products((spec.ell_tau, near, far), reversed(_minimal_exponents(spec.r, s, spec.r)))


def dim_bar_vertex_ideal_count(mesh: Mesh, smooth: SmoothnessSpec, v: int, d: int) -> int:
    """dim of the bar vertex ideal's degree-d piece, by counting.

    The generators lie in the two-variable ring S of forms through v, so
    dim I_d = sum over k <= d of dim J_k, and J_k sums ell^a_c * S_(k-a_c)
    over the slope classes c of edges with s_e < k, a_c the least r_e + 1.
    Powers of distinct binary forms have the expected Hilbert function
    min(k+1, sum of (k - a_c + 1)_+): apolarity for fat points on P^1.
    """
    p = mesh.points[v]
    per_edge = [
        (direction_key(p, mesh.points[sum(e) - v]), smooth.effective_s(v, e), smooth.r[e] + 1)
        for e in mesh.interior_edges_at_vertex(v)
    ]
    total = 0
    for k in range(d + 1):
        a: dict[tuple[int, int], int] = {}
        for key, s_e, a_e in per_edge:
            if s_e < k:  # then a_e = r_e + 1 <= k
                a[key] = min(a.get(key, k), a_e)
        total += min(k + 1, sum(k - ac + 1 for ac in a.values()))
    return total


def vertex_ideal_edges(mesh: Mesh, v: int, variant: str) -> list[Edge]:
    """The interior edges at v whose edge ideals sum to its full or tilde ideal.

    full: every interior edge at v.  tilde: the edges to the neighbours
    earlier in the mesh's admissible ordering (`Mesh.ordering_position`,
    computed once per mesh), which puts the boundary vertices first and
    gives an interior vertex at least two earlier neighbours, along
    distinct slopes.  So each interior edge is a tilde edge of exactly one
    end: its later one, the interior one when the other is on the boundary.
    """
    edges = mesh.interior_edges_at_vertex(v)
    if variant == "full":
        return edges
    if variant != "tilde":
        raise ValueError(f"unknown variant {variant!r}")
    position = mesh.ordering_position
    return [e for e in edges if position[sum(e) - v] < position[v]]


def vertex_ideal(
    mesh: Mesh,
    smooth: SmoothnessSpec,
    v: int,
    variant: str = "full",
) -> GradedIdeal:
    """The ideal attached to an interior vertex.

    full, tilde: sum of the edge ideals over `vertex_ideal_edges` (tilde: `Mesh.ordering`).
    bar:   same sum as full but with only the center-vertex intersection
           kept, i.e. <ell_tau^(r+1)> cap m_v^(s_v+1) per edge.
    """
    if not mesh.is_interior_vertex(v):
        raise ValueError(f"vertex {v} is not interior")
    if variant == "bar":
        edges = mesh.interior_edges_at_vertex(v)
        parts = (_bar_generators_for_edge(mesh, smooth, e, v) for e in edges)
    else:
        edges = vertex_ideal_edges(mesh, v, variant)
        parts = (edge_ideal_for(mesh, smooth, e).generators for e in edges)
    return GradedIdeal(g for gens in parts for g in gens)


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
    m^(s+1).  Vanishes for d <= s (no generator has degree below s+1).
    """
    if not 0 <= r <= s:
        raise ValueError(f"need 0 <= r <= s, got ({r}, {s})")
    omega, a, b = vertex_socle_params(t, r)
    if d <= s:
        return 0
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
