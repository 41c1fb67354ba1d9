"""Tests for the homogeneous polynomial algebra."""

import random
from fractions import Fraction

import pytest

from splinedim.polyring import (
    HomogeneousPolynomial,
    LinearForm3,
    dehomogenize,
    edge_linear_form,
    graded_monomial_basis,
    homogenize,
    vertex_complement_form,
)
from splinedim.ratlinalg import RatMatrix, binom

F = Fraction


def test_monomial_basis_degree_zero_and_one():
    assert graded_monomial_basis(0) == ((0, 0, 0),)
    assert graded_monomial_basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_monomial_basis_length():
    for d in (2, 5, 9):
        assert len(graded_monomial_basis(d)) == binom(d + 2, 2)
    assert len(graded_monomial_basis(5)) == 21


def test_monomial_basis_is_strictly_descending():
    for d in range(6):
        basis = graded_monomial_basis(d)
        assert list(basis) == sorted(basis, reverse=True)


def test_homogenize_linear_plus_constant():
    # x + 1 at degree 2 -> x*z + z^2
    p = homogenize({(1, 0): F(1), (0, 0): F(1)}, 2)
    assert p.terms == {(1, 0, 1): F(1), (0, 0, 2): F(1)}


def test_homogenize_constant():
    p = homogenize({(0, 0): F(1)}, 3)
    assert p.terms == {(0, 0, 3): F(1)}


def test_homogenize_mixed_degrees():
    p = homogenize({(2, 0): F(1), (0, 1): F(1)}, 2)
    assert p.terms == {(2, 0, 0): F(1), (0, 1, 1): F(1)}


def test_homogenize_rejects_overdegree():
    with pytest.raises(ValueError):
        homogenize({(2, 1): F(1)}, 2)


def test_dehomogenize_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(0, 5)
        biv = {}
        for _ in range(rng.randint(0, 6)):
            i = rng.randint(0, d)
            j = rng.randint(0, d - i)
            biv[(i, j)] = F(rng.randint(-5, 5))
        biv = {e: c for e, c in biv.items() if c}
        assert dehomogenize(homogenize(biv, d)) == biv


def test_homogenize_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        dp, dq = rng.randint(0, 3), rng.randint(0, 3)
        p = {
            (i, j): F(rng.randint(-3, 3))
            for i in range(dp + 1)
            for j in range(dp + 1 - i)
        }
        q = {
            (i, j): F(rng.randint(-3, 3))
            for i in range(dq + 1)
            for j in range(dq + 1 - i)
        }
        prod = {}
        for (a, b), u in p.items():
            for (c, e), v in q.items():
                key = (a + c, b + e)
                prod[key] = prod.get(key, F(0)) + u * v
        assert homogenize(prod, dp + dq) == homogenize(p, dp) * homogenize(q, dq)


def test_edge_linear_form_axes():
    assert edge_linear_form((F(0), F(0)), (F(1), F(0))) == LinearForm3(0, 1, 0)
    assert edge_linear_form((F(0), F(0)), (F(0), F(1))) == LinearForm3(1, 0, 0)


def test_edge_linear_form_diagonal():
    # line x + y = 1 homogenizes to x + y - z
    assert edge_linear_form((F(1), F(0)), (F(0), F(1))) == LinearForm3(1, 1, -1)


def test_edge_linear_form_swap_invariant():
    rng = random.Random(3)
    for _ in range(25):
        p1 = (F(rng.randint(-5, 5), rng.randint(1, 4)), F(rng.randint(-5, 5)))
        p2 = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5), rng.randint(1, 4)))
        if p1 == p2:
            continue
        assert edge_linear_form(p1, p2) == edge_linear_form(p2, p1)


def test_edge_linear_form_vanishes_at_endpoints():
    p1, p2 = (F(2, 3), F(-1)), (F(4), F(5, 7))
    ell = edge_linear_form(p1, p2)
    assert ell.evaluate(p1[0], p1[1], 1) == 0
    assert ell.evaluate(p2[0], p2[1], 1) == 0


def test_edge_linear_form_degenerate():
    with pytest.raises(ValueError):
        edge_linear_form((F(1), F(2)), (F(1), F(2)))


def test_vertex_complement_form_canonical_picks():
    assert vertex_complement_form(LinearForm3(0, 1, 0), (F(0), F(0))) == LinearForm3(1, 0, 0)
    assert vertex_complement_form(LinearForm3(1, 0, 0), (F(0), F(0))) == LinearForm3(0, 1, 0)
    assert vertex_complement_form(LinearForm3(1, 1, -1), (F(1), F(0))) == LinearForm3(1, 0, -1)


def test_vertex_complement_form_requires_vanishing():
    with pytest.raises(ValueError):
        vertex_complement_form(LinearForm3(1, 0, 0), (F(1), F(0)))


def test_vertex_complement_form_rank_two():
    rng = random.Random(9)
    for _ in range(20):
        v = (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4)))
        other = (v[0] + rng.randint(1, 3), v[1] + rng.randint(-2, 2))
        ell = edge_linear_form(v, other)
        comp = vertex_complement_form(ell, v)
        assert comp.vanishes_at_vertex(v)
        m = RatMatrix.from_rows([[ell.a, ell.b, ell.c], [comp.a, comp.b, comp.c]])
        assert m.rank() == 2


def test_linear_form_normalization():
    assert LinearForm3.make(F(-1, 2), F(-1, 3), 0) == LinearForm3(3, 2, 0)
    assert LinearForm3.make(0, -4, 2) == LinearForm3(0, 2, -1)
    with pytest.raises(ValueError):
        LinearForm3.make(0, 0, 0)


@pytest.mark.parametrize(
    "form",
    [(1, 0, 0), (0, 0, 1), (3, -2, 0), (0, 5, -7), (-4, 9, 6), (1, -1, 1), (12, 0, -35)],
)
def test_power_is_repeated_multiplication(form):
    ell = LinearForm3(*form)
    for k in range(13):
        p = ell.power(k)
        expected = ell.poly() ** k
        assert p == expected
        assert list(p.terms) == list(expected.terms)  # same term order
        assert all(type(v) is int for v in p.terms.values())


def test_polynomial_json_round_trip_and_layout():
    p = LinearForm3
    poly = (
        HomogeneousPolynomial.variable("x") * HomogeneousPolynomial.variable("y")
        + F(1, 2) * HomogeneousPolynomial.variable("z") ** 2
    )
    data = poly.to_json()
    assert data["degree"] == 2
    # serialized in the fixed order: xy before z^2
    assert [t["exp"] for t in data["terms"]] == [[1, 1, 0], [0, 0, 2]]
    assert HomogeneousPolynomial.from_json(data) == poly


def test_polynomial_arithmetic_basics():
    x = HomogeneousPolynomial.variable("x")
    y = HomogeneousPolynomial.variable("y")
    p = (x + y) ** 2
    assert p.terms == {(2, 0, 0): F(1), (1, 1, 0): F(2), (0, 2, 0): F(1)}
    assert (p - p).is_zero()
    with pytest.raises(ValueError):
        x + p

    assert p.times_monomial((0, 0, 1)).degree == 3
