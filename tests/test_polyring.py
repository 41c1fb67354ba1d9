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
        m = RatMatrix([dict(enumerate((f.a, f.b, f.c))) for f in (ell, comp)], 3)
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
    expected = HomogeneousPolynomial(0, {(0, 0, 0): 1})
    for k in range(13):
        p = ell.power(k)
        assert p == expected
        assert list(p.terms) == list(expected.terms)  # same term order
        assert all(type(v) is int for v in p.terms.values())
        expected = expected * ell.poly()


def test_polynomial_json_round_trip_and_layout():
    poly = HomogeneousPolynomial(2, {(0, 0, 2): -3, (1, 1, 0): 1})
    data = poly.to_json()
    assert data["degree"] == 2
    # serialized in the fixed order: xy before z^2
    assert data["terms"] == [{"exp": [1, 1, 0], "coef": "1"}, {"exp": [0, 0, 2], "coef": "-3"}]
    terms = {tuple(t["exp"]): int(t["coef"]) for t in data["terms"]}
    assert HomogeneousPolynomial(data["degree"], terms) == poly
    assert repr(poly) == "xy - 3z^2"


def test_polynomial_arithmetic_basics():
    x_plus_y = LinearForm3(1, 1, 0).poly()
    p = x_plus_y * x_plus_y
    assert p.terms == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
    assert p == x_plus_y * LinearForm3(1, 1, 0).poly()
    assert (p * LinearForm3(1, -1, 0).poly()).terms == {
        (3, 0, 0): 1, (2, 1, 0): 1, (1, 2, 0): -1, (0, 3, 0): -1
    }
    assert HomogeneousPolynomial(2, {(2, 0, 0): 0}).is_zero()
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2, {(1, 0, 0): 1})

    q = p.times_monomial((0, 0, 1))
    assert q.degree == 3 and q.terms == {(2, 0, 1): 1, (1, 1, 1): 2, (0, 2, 1): 1}


@pytest.mark.parametrize("coef", [F(1, 2), F(3, 1), 2.0, True, "1"])
def test_non_int_coefficients_raise_type_error(coef):
    with pytest.raises(TypeError, match="not an int"):
        HomogeneousPolynomial(1, {(1, 0, 0): 1, (0, 1, 0): coef})
