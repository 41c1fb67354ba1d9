"""Tests for edge/vertex ideals and their graded dimensions.

The independent oracle for monomial ideals counts degree-d monomials
divisible by at least one generator via inclusion-exclusion; it never goes
through the rank machinery it checks.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splinedim.cli import builtin_mesh
from splinedim.ideals import (
    EdgeIdealSpec,
    GradedIdeal,
    _bar_generators_for_edge,
    _minimal_exponents,
    dim_bar_vertex_ideal_count,
    dim_edge_ideal_boundary_closed,
    dim_edge_ideal_closed,
    dim_edge_ideal_count,
    dim_vertex_star_ideal_closed,
    edge_ideal,
    edge_ideal_for,
    edge_ideal_spec_for,
    graded_piece_matrix,
    vertex_ideal,
    vertex_ideal_edges,
    vertex_socle_params,
)
from splinedim.mesh import (
    Mesh,
    MeshError,
    SmoothnessSpec,
    direction_key,
    distinct_slopes_at,
    predecessors,
    verify_vertex_ordering,
)
from splinedim.polyring import (
    HomogeneousPolynomial,
    LinearForm3,
    edge_linear_form,
    graded_monomial_basis,
    monomial_index,
    vertex_complement_form,
)
from splinedim.ratlinalg import RatMatrix, binom
from splinedim.refine import make_vertex_star, morgan_scott_mesh, powell_sabin_6split

X = LinearForm3(1, 0, 0)
Y = LinearForm3(0, 1, 0)
Z = LinearForm3(0, 0, 1)


def canonical_spec(r, s1, s2):
    return EdgeIdealSpec(X, Y, Z, r, s1, s2)


def monomial_ideal_dim(exponent_triples, d):
    """Inclusion-exclusion count of degree-d monomials in the ideal."""

    def count_multiples(e, d):
        rest = d - sum(e)
        return binom(rest + 2, 2)

    total = 0
    gens = list(exponent_triples)
    for k in range(1, len(gens) + 1):
        for subset in itertools.combinations(gens, k):
            lcm = tuple(max(g[i] for g in subset) for i in range(3))
            total += (-1) ** (k + 1) * count_multiples(lcm, d)
    return total


def gen_exponents(ideal):
    out = []
    for g in ideal.generators:
        (mono,) = g.terms  # canonical-frame generators are monomials
        out.append(mono)
    return out


def test_edge_ideal_uniform_r_equals_s_is_principal():
    ideal = edge_ideal(canonical_spec(2, 2, 2))
    assert gen_exponents(ideal) == [(3, 0, 0)]


def test_edge_ideal_uniform_generators():
    ideal = edge_ideal(canonical_spec(1, 2, 2))
    assert sorted(gen_exponents(ideal)) == [(2, 1, 1), (3, 0, 0)]


def test_edge_ideal_boundary_type_generators():
    ideal = edge_ideal(canonical_spec(1, 2, 1))
    assert sorted(gen_exponents(ideal)) == [(2, 1, 0), (3, 0, 0)]


def reference_minimal_exponents(r, s1, s2):
    """Minimal exponents of the monomial model by enumerate and filter:
    every (m, i, j) with i <= s1-r, j <= s2-r and m = max(r+1, s1+1-i,
    s2+1-j), less those another triple divides."""
    triples = [
        (max(r + 1, s1 + 1 - i, s2 + 1 - j), i, j)
        for i in range(s1 - r + 1)
        for j in range(s2 - r + 1)
    ]
    minimal = [
        t
        for t in triples
        if not any(u != t and all(a <= b for a, b in zip(u, t)) for u in triples)
    ]
    return sorted(set(minimal))


def test_minimal_exponents_equal_the_enumerate_and_filter_reference():
    cases = 0
    for r, s1, s2 in itertools.product(range(9), repeat=3):
        if r <= min(s1, s2):
            assert _minimal_exponents(r, s1, s2) == reference_minimal_exponents(r, s1, s2), (
                r, s1, s2,
            )
            cases += 1
    assert cases == sum((9 - r) ** 2 for r in range(9))


def reference_bar_generators(mesh, smooth, edge, v):
    """<ell_tau^(r+1)> cap m_v^(s_v+1) for one edge at v, written out:
    ell_tau^max(r+1, s_v+1-i) * comp_v^i for 0 <= i <= s_v - r."""
    spec = edge_ideal_spec_for(mesh, smooth, edge)
    if v == min(edge):
        comp, s = spec.ell_gamma, spec.s_gamma
    else:
        comp, s = spec.ell_gamma_prime, spec.s_gamma_prime
    gens = []
    for i in range(s - spec.r + 1):
        g = spec.ell_tau.power(max(spec.r + 1, s + 1 - i))
        if i:
            g = g * comp.power(i)
        gens.append(g)
    return gens


def test_bar_generators_equal_the_reference_at_both_edge_ends():
    rng = random.Random(11)
    ms = morgan_scott_mesh()
    for mesh in (ms, powell_sabin_6split(ms, 1, 2).refined):
        for _ in range(3):
            r = {e: rng.randint(0, 3) for e in mesh.interior_edges}
            s = {v: rng.randint(0, 4) for v in range(mesh.num_vertices)}
            spec = SmoothnessSpec(mesh, r, s)
            for e in sorted(mesh.interior_edges):
                for v in e:  # v is the lower, then the upper endpoint
                    got = _bar_generators_for_edge(mesh, spec, e, v)
                    assert got == reference_bar_generators(mesh, spec, e, v), (r, s, e, v)


def test_edge_ideal_rejects_dependent_frame():
    with pytest.raises(ValueError, match="dependent"):
        EdgeIdealSpec(X, Y, LinearForm3(1, 1, 0), 1, 2, 2)


_SMALL_FORM = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@settings(max_examples=200, deadline=None)
@given(_SMALL_FORM, _SMALL_FORM, _SMALL_FORM)
def test_edge_ideal_rejects_exactly_the_frames_with_zero_determinant(tau, gamma, gamma_prime):
    (a, b, c), (d, e, f), (g, h, i) = tau, gamma, gamma_prime
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    forms = [LinearForm3.make(*form) for form in (tau, gamma, gamma_prime)]
    if det == 0:
        with pytest.raises(ValueError, match="dependent"):
            EdgeIdealSpec(*forms, 0, 0, 0)
    else:
        EdgeIdealSpec(*forms, 0, 0, 0)


def test_edge_ideal_rejects_bad_orders():
    with pytest.raises(ValueError):
        EdgeIdealSpec(X, Y, Z, 3, 2, 2)


def test_graded_dim_example_values():
    assert edge_ideal(canonical_spec(1, 2, 2)).graded_dim(5) == 8
    assert edge_ideal(canonical_spec(1, 2, 1)).graded_dim(5) == 9
    assert edge_ideal(canonical_spec(1, 2, 2)).graded_dim(1) == 0


def test_graded_dim_matches_monomial_oracle():
    for r, s1, s2 in [(0, 0, 0), (0, 1, 2), (1, 2, 2), (1, 3, 2), (2, 4, 3), (1, 1, 3)]:
        ideal = edge_ideal(canonical_spec(r, s1, s2))
        exps = gen_exponents(ideal)
        for d in range(0, 11):
            assert ideal.graded_dim(d) == monomial_ideal_dim(exps, d), (r, s1, s2, d)


def test_closed_form_uniform_vs_oracle_grid():
    for r in range(0, 4):
        for s in range(r, 5):
            ideal = edge_ideal(canonical_spec(r, s, s))
            for d in range(0, 12):
                assert dim_edge_ideal_closed(r, s, d) == ideal.graded_dim(d), (r, s, d)


def test_closed_form_boundary_vs_oracle_grid():
    for r in range(0, 4):
        for s in range(r, 5):
            ideal = edge_ideal(canonical_spec(r, s, r))
            for d in range(0, 12):
                assert dim_edge_ideal_boundary_closed(r, s, d) == ideal.graded_dim(d)


def test_edge_count_equals_the_monomial_oracle_and_the_rank():
    for r in range(0, 4):
        for s1 in range(r, 6):
            for s2 in range(r, 6):
                ideal = edge_ideal(canonical_spec(r, s1, s2))
                exps = gen_exponents(ideal)
                for d in range(0, 13):
                    count = dim_edge_ideal_count(r, s1, s2, d)
                    assert count == monomial_ideal_dim(exps, d), (r, s1, s2, d)
                    if d <= 9:
                        assert count == ideal.graded_dim(d), (r, s1, s2, d)


def test_edge_count_reproduces_the_edge_closed_forms():
    for r in range(0, 5):
        for s in range(r, 8):
            for d in range(0, 25):
                assert dim_edge_ideal_count(r, s, s, d) == dim_edge_ideal_closed(r, s, d)
                if d >= s - 1:
                    assert (
                        dim_edge_ideal_count(r, s, r, d) == dim_edge_ideal_boundary_closed(r, s, d)
                    ), (r, s, d)


def test_closed_form_special_values():
    # r = s: principal ideal <l^(r+1)>
    for r in range(4):
        for d in range(r + 1, 10):
            assert dim_edge_ideal_closed(r, r, d) == binom(d - r + 1, 2)
            assert dim_edge_ideal_boundary_closed(r, r, d) == binom(d - r + 1, 2)
    assert dim_edge_ideal_closed(1, 2, 5) == 8
    assert dim_edge_ideal_boundary_closed(1, 2, 5) == 9
    assert dim_edge_ideal_closed(1, 2, 2) == 0
    with pytest.raises(ValueError):
        dim_edge_ideal_closed(3, 2, 5)


def test_choice_independence_of_complement_forms():
    # two valid frames for the same geometric edge give identical dimensions
    for r, s1, s2 in [(1, 2, 2), (1, 3, 1), (2, 3, 4)]:
        a = edge_ideal(canonical_spec(r, s1, s2))
        # replace complements by other forms vanishing at the same vertices:
        # V(x, y) and V(x, z) are unchanged by adding multiples of x
        alt = edge_ideal(
            EdgeIdealSpec(
                X,
                LinearForm3.make(2, 1, 0),
                LinearForm3.make(-3, 0, 1),
                r,
                s1,
                s2,
            )
        )
        for d in range(0, 10):
            assert a.graded_dim(d) == alt.graded_dim(d), (r, s1, s2, d)


def _subspace_functionals(generators, d):
    return graded_piece_matrix(generators, d).kernel_basis()


def _intersection_dim(span_groups, d):
    """dim of the intersection of spans via stacked complement functionals."""
    ncols = binom(d + 2, 2)
    rows = []
    for gens in span_groups:
        rows.extend(_subspace_functionals(gens, d))
    return ncols - RatMatrix(rows, ncols).rank()


def powers_of_vertex_ideal(first, second, k):
    """Generators of <first, second>^k as the k+1 products."""
    return [first.power(i) * second.power(k - i) for i in range(k + 1)]


def test_mixed_generators_define_the_triple_intersection():
    for r, s1, s2 in [(1, 2, 1), (1, 3, 2), (0, 2, 1), (2, 4, 3)]:
        ideal = edge_ideal(canonical_spec(r, s1, s2))
        defining = [
            [X.power(r + 1)],
            powers_of_vertex_ideal(X, Y, s1 + 1),
            powers_of_vertex_ideal(X, Z, s2 + 1),
        ]
        for d in range(0, 13):
            assert ideal.graded_dim(d) == _intersection_dim(defining, d), (r, s1, s2, d)
        # each generator lies in all three defining ideals
        for g in ideal.generators:
            for gens in defining:
                span = graded_piece_matrix(gens, g.degree)
                rows = [*span.row_dicts(), {monomial_index(m): v for m, v in g.terms.items()}]
                assert RatMatrix(rows, span.ncols).rank() == span.rank()


def _reference_piece_rows(generators, d):
    """The degree-d graded piece's rows built one polynomial per row: g times
    each monomial, laid out by `monomial_index`."""
    return [
        {monomial_index(m): v for m, v in g.times_monomial(mono).terms.items()}
        for g in generators
        if g.degree <= d
        for mono in graded_monomial_basis(d - g.degree)
    ]


def _distinct_edge_generators(mesh, spec):
    """Every edge ideal generator of the mesh, each once."""
    gens = {}
    for e in sorted(mesh.interior_edges):
        for g in edge_ideal_for(mesh, spec, e).generators:
            gens.setdefault((g.degree, tuple(sorted(g.terms.items()))), g)
    return list(gens.values())


def _row_builder_cases():
    for name in ["triangle", "two-triangles", "morgan-scott", "star:cross", *(f"star:{t}-generic" for t in range(3, 9))]:
        mesh = builtin_mesh(name)
        yield name, _distinct_edge_generators(mesh, SmoothnessSpec.uniform(mesh, 1, 2))
        try:
            split = powell_sabin_6split(mesh, 1, 2)
        except MeshError:  # some stars' barycenter segments miss an edge
            continue
        yield f"ps6:{name}", _distinct_edge_generators(split.refined, split.spec)
    star = builtin_mesh("star:5-generic")
    moved = Mesh([(x + Fraction(1, 3), y + Fraction(2, 7)) for x, y in star.vertices], star.triangles)
    (center,) = moved.interior_vertices
    s = {v: 6 if v == center else 3 for v in range(moved.num_vertices)}
    yield "translated star", _distinct_edge_generators(moved, SmoothnessSpec(moved, dict.fromkeys(moved.interior_edges, 3), s))
    rng = random.Random(27)
    forms = [LinearForm3.make(*(rng.randint(-5, 5) for _ in range(3))) for _ in range(8)]
    products = []
    for _ in range(12):
        g = rng.choice(forms).power(rng.randint(0, 3))
        for _ in range(rng.randint(0, 2)):
            g = g * rng.choice(forms).power(rng.randint(1, 3))
        products.append(g)
    yield "random products", products


@pytest.mark.parametrize("name, generators", [pytest.param(*case, id=case[0]) for case in _row_builder_cases()])
def test_graded_piece_rows_equal_the_per_row_polynomial_reference(name, generators):
    """Each row, laid out straight from its generator's terms, is the
    coefficient vector of g times its monomial, at degrees 0..12."""
    if name == "translated star":  # off the origin the forms have z terms
        assert any(k for g in generators for _, _, k in g.terms)
    for d in range(13):
        piece = graded_piece_matrix(generators, d)
        assert piece.ncols == binom(d + 2, 2)
        assert list(piece.row_dicts()) == _reference_piece_rows(generators, d), (name, d)


def test_graded_dim_monotone_in_degree():
    for r, s1, s2 in [(1, 2, 2), (1, 3, 1), (2, 3, 4)]:
        ideal = edge_ideal(canonical_spec(r, s1, s2))
        dims = [ideal.graded_dim(d) for d in range(0, 12)]
        assert all(a <= b for a, b in zip(dims, dims[1:]))


STAR_DIRECTIONS = {
    2: [(1, 0), (0, 1), (-1, 0), (0, -1)],
    3: [(1, 0), (1, 2), (-1, 1), (-1, -1), (1, -3), (3, -1)],
    4: [(1, 0), (1, 1), (-1, 2), (-1, -1), (1, -1), (-2, -3), (0, 1), (3, 1)],
}


def _generic_slope_forms(t):
    """t pairwise independent linear forms through the origin vertex."""
    slopes = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)][:t]
    return [LinearForm3.make(-dy, dx, 0) for dx, dy in slopes]


def test_star_distributivity_of_intersection_over_sum():
    # sum of (power cap m^(s+1)) equals m^(s+1) cap sum of powers
    for t in (2, 3, 4):
        forms = _generic_slope_forms(t)
        for r, s in [(1, 1), (1, 2), (2, 3)]:
            lhs_gens = []
            for ell in forms:
                comp = LinearForm3.make(ell.b, -ell.a, 0)  # independent, through origin
                for i in range(s - r + 1):
                    lhs_gens.append(ell.power(max(r + 1, s + 1 - i)) * comp.power(i))
            rhs_groups = [
                powers_of_vertex_ideal(X, Y, s + 1),
                [ell.power(r + 1) for ell in forms],
            ]
            lhs = GradedIdeal(lhs_gens)
            for d in range(s + 1, s + 5):
                # rhs: intersection of m^(s+1) with the sum of the powers
                ncols = binom(d + 2, 2)
                rows = _subspace_functionals(rhs_groups[0], d)
                rows += _subspace_functionals(rhs_groups[1], d)
                rhs_dim = ncols - RatMatrix(rows, ncols).rank()
                assert lhs.graded_dim(d) == rhs_dim, (t, r, s, d)


def test_socle_params():
    assert vertex_socle_params(2, 1) == (3, 1, 0)
    assert vertex_socle_params(3, 1) == (2, 2, 0)
    assert vertex_socle_params(4, 2) == (3, 3, 0)
    with pytest.raises(ValueError):
        vertex_socle_params(1, 1)


def test_vertex_star_ideal_closed_examples():
    assert dim_vertex_star_ideal_closed(2, 1, 1, 3) == binom(5, 2) - 4
    for d in range(1, 8):
        assert dim_vertex_star_ideal_closed(3, 1, 1, d) == binom(d + 2, 2) - 3
    assert dim_vertex_star_ideal_closed(4, 2, 2, 2) == 0


def test_vertex_star_ideal_closed_vs_rank_oracle():
    for t in (2, 3, 4, 5, 6):
        forms = _generic_slope_forms(t)
        for r in range(0, 4):
            for s in range(r, r + 3):
                gens = []
                for ell in forms:
                    comp = LinearForm3.make(ell.b, -ell.a, 0)
                    for i in range(s - r + 1):
                        gens.append(ell.power(max(r + 1, s + 1 - i)) * comp.power(i))
                ideal = GradedIdeal(gens)
                for d in range(0, s + 5):
                    assert (
                        dim_vertex_star_ideal_closed(t, r, s, d) == ideal.graded_dim(d)
                    ), (t, r, s, d)


def test_bar_count_reproduces_the_star_closed_form():
    # the closed form takes the slope count: star:cross has 2 and star:5-generic 4
    for name in ["cross", *(f"{t}-generic" for t in range(3, 9))]:
        star = builtin_mesh(f"star:{name}")
        (center,) = star.interior_vertices
        t = distinct_slopes_at(star, center)
        for r in range(0, 4):
            for s in range(r, r + 4):
                spec = SmoothnessSpec.uniform(star, r, s)
                for d in range(0, s + 10):
                    assert dim_bar_vertex_ideal_count(star, spec, center, d) == (
                        dim_vertex_star_ideal_closed(t, r, s, d)
                    ), (t, r, s, d)


def test_bar_count_equals_the_bar_rank_with_collinear_edges_and_mixed_orders():
    # star:cross has two slopes at four edges; random orders put r_e above s_v
    rng = random.Random(5)
    meshes = [builtin_mesh("star:cross"), builtin_mesh("star:4-generic"), morgan_scott_mesh()]
    cases = above = 0
    for mesh in meshes:
        for _ in range(6):
            r = {e: rng.randint(0, 3) for e in mesh.interior_edges}
            s = {v: rng.randint(0, 3) for v in range(mesh.num_vertices)}
            spec = SmoothnessSpec(mesh, r, s)
            above += any(r[e] > s[v] for e in r for v in e)
            for v in sorted(mesh.interior_vertices):
                ideal = vertex_ideal(mesh, spec, v, "bar")
                for d in range(0, 9):
                    count = dim_bar_vertex_ideal_count(mesh, spec, v, d)
                    assert count == ideal.graded_dim(d), (mesh, r, s, v, d)
                    cases += 1
    assert above and cases == 9 * 6 * (1 + 1 + 3)
    # the 6-split's induced spec where full < bar at 5 of 19 vertices: there
    # a bar count one too low still passes the report's full <= bar check,
    # so only this comparison catches it
    split = powell_sabin_6split(morgan_scott_mesh(), 3, 4)
    mesh, spec = split.refined, split.spec
    gaps = 0
    for v in sorted(mesh.interior_vertices):
        bar = vertex_ideal(mesh, spec, v, "bar").graded_dim(5)
        assert dim_bar_vertex_ideal_count(mesh, spec, v, 5) == bar, v
        gaps += vertex_ideal(mesh, spec, v, "full").graded_dim(5) < bar
    assert gaps == 5
    # random per-edge and per-vertex orders on the same mesh, with full < bar
    # in 53 of the 304 cases
    cases = gaps = 0
    for _ in range(4):
        r = {e: rng.randint(0, 3) for e in mesh.interior_edges}
        s = {v: rng.randint(0, 3) for v in range(mesh.num_vertices)}
        spec = SmoothnessSpec(mesh, r, s)
        for v in sorted(mesh.interior_vertices):
            bar, full = (vertex_ideal(mesh, spec, v, variant) for variant in ("bar", "full"))
            for d in range(3, 7):
                count = dim_bar_vertex_ideal_count(mesh, spec, v, d)
                assert count == bar.graded_dim(d), (r, s, v, d)
                gaps += full.graded_dim(d) < count
                cases += 1
    assert cases == 4 * 19 * 4 and gaps == 53


def test_socle_collapse_on_stars():
    # s above the socle threshold turns the bar ideal into all of m^(s+1)
    for t in (2, 3, 4, 5, 6):
        for r in range(0, 4):
            s = r + r // (t - 1)
            for d in range(s, s + 4):
                expected = binom(d + 2, 2) - binom(s + 2, 2) if d >= s else 0
                assert dim_vertex_star_ideal_closed(t, r, s, d) == expected, (t, r, s, d)


def test_vertex_ideal_variants_on_morgan_scott():
    ms = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(ms, 1, 2)
    v = min(ms.interior_vertices)
    full = vertex_ideal(ms, spec, v, "full")
    bar = vertex_ideal(ms, spec, v, "bar")
    for d in range(0, 7):
        # bar drops the far-vertex intersections, so it can only be bigger
        assert bar.graded_dim(d) >= full.graded_dim(d)
    # equality in the stable range d = 2*max(s)+2
    d_star = 2 * max(spec.s.values()) + 2
    assert bar.graded_dim(d_star) == full.graded_dim(d_star)


def test_vertex_ideal_full_collapse_at_uniform_r():
    ms = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(ms, 1, 1)
    v = min(ms.interior_vertices)
    ideal = vertex_ideal(ms, spec, v, "full")
    assert sorted(g.degree for g in ideal.generators) == [2, 2, 2, 2]


def test_vertex_ideal_tilde_contained_in_full():
    ms = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(ms, 1, 2)
    for v in ms.interior_vertices:
        full = vertex_ideal(ms, spec, v, "full")
        tilde = vertex_ideal(ms, spec, v, "tilde")
        for d in range(0, 8):
            assert tilde.graded_dim(d) <= full.graded_dim(d)


@pytest.mark.parametrize("name", ["morgan-scott", "ps6-ms"])
def test_boundary_neighbours_count_as_earlier_wherever_the_ordering_lists_them(name):
    ms = morgan_scott_mesh()
    mesh = ms if name == "morgan-scott" else powell_sabin_6split(ms, 1, 2).refined
    greedy = mesh.ordering
    interior = [v for v in greedy if v not in mesh.boundary_vertices]
    boundary_last = interior + sorted(mesh.boundary_vertices)
    assert verify_vertex_ordering(mesh, boundary_last) is None
    kept_boundary = 0
    for v in interior:
        earlier = predecessors(mesh, v, set(boundary_last[: boundary_last.index(v)]))
        assert earlier == predecessors(mesh, v, set(greedy[: greedy.index(v)])), v
        edges = vertex_ideal_edges(mesh, v, "tilde")
        assert [sum(e) - v for e in edges] == earlier, v
        kept_boundary += sum(w in mesh.boundary_vertices for w in earlier)
    assert kept_boundary


def test_vertex_ideal_requires_interior_vertex():
    ms = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(ms, 1, 1)
    with pytest.raises(ValueError, match="interior"):
        vertex_ideal(ms, spec, 0, "full")


def test_edge_ideal_for_powell_sabin_zb_edge_is_principal():
    from splinedim.refine import powell_sabin_6split

    res = powell_sabin_6split(morgan_scott_mesh(), 1, 3)
    refined, spec = res.refined, res.spec
    z = next(iter(res.z_point))
    b = next(
        v
        for v in res.b_point
        if tuple(sorted((z, v))) in refined.interior_edges
    )
    ideal = edge_ideal_for(refined, spec, (z, b))
    # edge order s with effective endpoint orders both s: principal <l^(s+1)>
    assert len(ideal.generators) == 1
    assert ideal.generators[0].degree == 4


def test_graded_ideal_json_round_trip():
    ideal = edge_ideal(canonical_spec(1, 2, 2))
    data = ideal.to_json()
    back = GradedIdeal(
        HomogeneousPolynomial(
            g["degree"], {tuple(t["exp"]): int(t["coef"]) for t in g["terms"]}
        )
        for g in data["generators"]
    )
    assert [g.terms for g in back.generators] == [g.terms for g in ideal.generators]


# Rational reference for the integer geometry: the formulas on affine
# Fraction coordinates that the homogeneous integer points replace.


def reference_primitive(values):
    """Rationals, not all zero, scaled to coprime integers, first nonzero positive."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def reference_edge_form(p1, p2):
    (x1, y1), (x2, y2) = p1, p2
    return LinearForm3(*reference_primitive((y1 - y2, x2 - x1, x1 * y2 - x2 * y1)))


def reference_complement_form(ell, p):
    """x - p.x*z, or y - p.y*z when the former is proportional to ell."""
    candidate = LinearForm3(*reference_primitive((1, 0, -p[0])))
    if candidate == ell:
        candidate = LinearForm3(*reference_primitive((0, 1, -p[1])))
    return candidate


def reference_spec(mesh, smooth, e):
    v1, v2 = e
    p1, p2 = mesh.vertices[v1], mesh.vertices[v2]
    ell = reference_edge_form(p1, p2)
    return EdgeIdealSpec(
        ell,
        reference_complement_form(ell, p1),
        reference_complement_form(ell, p2),
        smooth.r[e],
        smooth.effective_s(v1, e),
        smooth.effective_s(v2, e),
    )


_RATIONAL = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_RATIONAL, _RATIONAL), st.tuples(_RATIONAL, _RATIONAL), st.tuples(_RATIONAL, _RATIONAL))
def test_integer_points_lines_slopes_and_orientation_equal_the_rational_reference(a, b, c):
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    assume(cross != 0)
    mesh = Mesh([a, b, c], [(0, 1, 2)])
    for (x, y), point in zip(mesh.vertices, mesh.points):
        assert all(type(k) is int for k in point)
        X, Y, W = point
        assert W > 0 and math.gcd(X, Y, W) == 1
        assert (Fraction(X, W), Fraction(Y, W)) == (x, y)
    assert mesh.triangles == ((0, 1, 2) if cross > 0 else (0, 2, 1),)
    pa, pb, pc = mesh.points
    ell = edge_linear_form(pa, pb)
    assert ell == reference_edge_form(a, b)
    assert vertex_complement_form(ell, pa) == reference_complement_form(ell, a)
    assert vertex_complement_form(ell, pb) == reference_complement_form(ell, b)
    assert direction_key(pa, pb) == reference_primitive((bx - ax, by - ay))
    assert direction_key(pc, pa) == reference_primitive((ax - cx, ay - cy))
    # through a and the point (a.x, c.y) the line is vertical, so the
    # complement form at a falls back to y - a.y*z
    if cy != ay and cx != ax:
        up = Mesh([a, (ax, cy), c], [(0, 1, 2)]).points[1]
        vertical = edge_linear_form(pa, up)
        assert vertical == reference_edge_form(a, (ax, cy))
        assert vertex_complement_form(vertical, pa) == reference_complement_form(vertical, a)
        assert vertex_complement_form(vertical, pa) == LinearForm3(*reference_primitive((0, 1, -ay)))


def _sheared_translate(mesh):
    """(x, y) -> (2x - y + 123457/999983, x + 3y - 7/1000003): invertible, with
    large-denominator offsets that make every vertex's W large."""
    tx, ty = Fraction(123457, 999983), Fraction(-7, 1000003)
    return Mesh([(2 * x - y + tx, x + 3 * y + ty) for x, y in mesh.vertices], mesh.triangles)


_PS6_MS = powell_sabin_6split(morgan_scott_mesh(), 1, 2).refined
_BUILTINS = ["two-triangles", "argyris-demo", "morgan-scott", "star:cross"] + [
    f"star:{t}-generic" for t in range(3, 9)
]


@pytest.mark.parametrize(
    "mesh",
    [*(builtin_mesh(name) for name in _BUILTINS), _PS6_MS, _sheared_translate(_PS6_MS)],
    ids=[*_BUILTINS, "ps6-ms", "ps6-ms-sheared-translate"],
)
def test_edge_ideal_specs_equal_the_rational_reference(mesh):
    smooth = SmoothnessSpec.uniform(mesh, 1, 2)
    assert mesh.interior_edges
    for e in sorted(mesh.interior_edges):
        assert edge_ideal_spec_for(mesh, smooth, e) == reference_spec(mesh, smooth, e), e
