"""Tests for the homogeneous polynomial algebra."""

import random
from fractions import Fraction

import pytest

from splinedim.polyring import (
    HomogeneousPolynomial,
    LinearForm3,
    edge_linear_form,
    graded_monomial_basis,
    monomial_index,
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


def test_monomial_index_is_the_position_in_the_basis():
    for d in range(25):
        basis = graded_monomial_basis(d)
        assert [monomial_index(m) for m in basis] == list(range(len(basis)))


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
    terms = {tuple(t["exp"]): F(t["coef"]) for t in data["terms"]}
    assert HomogeneousPolynomial(data["degree"], terms) == poly


def test_polynomial_arithmetic_basics():
    x = HomogeneousPolynomial.variable("x")
    y = HomogeneousPolynomial.variable("y")
    p = (x + y) ** 2
    assert p.terms == {(2, 0, 0): F(1), (1, 1, 0): F(2), (0, 2, 0): F(1)}
    assert (p - p).is_zero()
    with pytest.raises(ValueError):
        x + p

    assert p.times_monomial((0, 0, 1)).degree == 3
