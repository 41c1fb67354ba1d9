"""Tests for the homogeneous polynomial algebra."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinedim.polyring import (
    HomogeneousPolynomial,
    LinearForm3,
    cross,
    edge_linear_form,
    graded_monomial_basis,
    monomial_index,
    vertex_complement_form,
)
from splinedim.ratlinalg import RatMatrix, binom

F = Fraction


def _linear(ell):
    """The degree-1 polynomial of a linear form, built without `power`."""
    return HomogeneousPolynomial(1, {(1, 0, 0): ell.a, (0, 1, 0): ell.b, (0, 0, 1): ell.c})


def test_monomial_basis_degree_zero_and_one():
    assert graded_monomial_basis(0) == ((0, 0, 0),)
    assert graded_monomial_basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_monomial_basis_length():
    for d in (2, 5, 9):
        assert len(graded_monomial_basis(d)) == binom(d + 2, 2)
    assert len(graded_monomial_basis(5)) == 21


def test_monomial_basis_is_strictly_descending():
    """Descending degree-reverse-lexicographic order with z last: by the
    z-exponent, then the y-exponent, both ascending."""
    for d in range(6):
        basis = graded_monomial_basis(d)
        assert list(basis) == sorted(basis, key=lambda m: (m[2], m[1]))


def test_z_power_times_the_layout_is_the_tail_of_a_higher_degree():
    """index_D(z^t m) = index_d(m) + C(D+2, 2) - C(d+2, 2) for t = D - d:
    the edge pieces' lower degrees are read off the top degree by it."""
    for D in range(31):
        for d in range(D + 1):
            shift = binom(D + 2, 2) - binom(d + 2, 2)
            assert all(
                monomial_index((i, j, k + D - d)) == monomial_index((i, j, k)) + shift
                for i, j, k in graded_monomial_basis(d)
            )


def test_monomial_index_is_the_position_in_the_basis():
    for d in range(25):
        basis = graded_monomial_basis(d)
        assert [monomial_index(m) for m in basis] == list(range(len(basis)))


def hom(p):
    """The affine rational point p as a primitive integer homogeneous point
    (X, Y, W) with W > 0, the form the mesh keeps each vertex in."""
    x, y = F(p[0]), F(p[1])
    w = math.lcm(x.denominator, y.denominator)
    xyw = (int(x * w), int(y * w), w)
    g = math.gcd(*xyw)
    return tuple(k // g for k in xyw)


def test_edge_linear_form_axes():
    assert edge_linear_form(hom((0, 0)), hom((1, 0))) == LinearForm3(0, 1, 0)
    assert edge_linear_form(hom((0, 0)), hom((0, 1))) == LinearForm3(1, 0, 0)


def test_edge_linear_form_diagonal():
    # line x + y = 1 homogenizes to x + y - z
    assert edge_linear_form(hom((1, 0)), hom((0, 1))) == LinearForm3(1, 1, -1)


def test_edge_linear_form_swap_invariant():
    rng = random.Random(3)
    for _ in range(25):
        p1 = (F(rng.randint(-5, 5), rng.randint(1, 4)), F(rng.randint(-5, 5)))
        p2 = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5), rng.randint(1, 4)))
        if p1 == p2:
            continue
        assert edge_linear_form(hom(p1), hom(p2)) == edge_linear_form(hom(p2), hom(p1))


def test_edge_linear_form_vanishes_at_endpoints():
    p1, p2 = (F(2, 3), F(-1)), (F(4), F(5, 7))
    ell = edge_linear_form(hom(p1), hom(p2))
    for x, y in (p1, p2):
        assert ell.a * x + ell.b * y + ell.c == 0
        assert ell.vanishes_at_vertex(hom((x, y)))


def test_edge_linear_form_degenerate():
    with pytest.raises(ValueError, match="endpoints coincide"):
        edge_linear_form(hom((F(1), F(2))), hom((F(1), F(2))))


def test_vertex_complement_form_canonical_picks():
    assert vertex_complement_form(LinearForm3(0, 1, 0), hom((0, 0))) == LinearForm3(1, 0, 0)
    assert vertex_complement_form(LinearForm3(1, 0, 0), hom((0, 0))) == LinearForm3(0, 1, 0)
    assert vertex_complement_form(LinearForm3(1, 1, -1), hom((1, 0))) == LinearForm3(1, 0, -1)


def test_vertex_complement_form_requires_vanishing():
    with pytest.raises(ValueError):
        vertex_complement_form(LinearForm3(1, 0, 0), hom((1, 0)))


def test_vertex_complement_form_rank_two():
    rng = random.Random(9)
    for _ in range(20):
        v = (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4)))
        other = (v[0] + rng.randint(1, 3), v[1] + rng.randint(-2, 2))
        ell = edge_linear_form(hom(v), hom(other))
        comp = vertex_complement_form(ell, hom(v))
        assert comp.vanishes_at_vertex(hom(v))
        assert comp.a * v[0] + comp.b * v[1] + comp.c == 0
        m = RatMatrix([dict(enumerate((f.a, f.b, f.c))) for f in (ell, comp)], 3)
        assert m.rank() == 2


def test_linear_form_normalization():
    assert LinearForm3.make(-3, -2, 0) == LinearForm3(3, 2, 0)
    assert LinearForm3.make(0, -4, 2) == LinearForm3(0, 2, -1)
    with pytest.raises(ValueError):
        LinearForm3.make(0, 0, 0)
    with pytest.raises(TypeError, match="not an int"):
        LinearForm3.make(F(-1, 2), F(-1, 3), 0)


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
        expected = expected * _linear(ell)


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
    x_plus_y = _linear(LinearForm3(1, 1, 0))
    p = x_plus_y * x_plus_y
    assert p.terms == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
    assert p == x_plus_y * _linear(LinearForm3(1, 1, 0))
    assert (p * _linear(LinearForm3(1, -1, 0))).terms == {
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


_COEF = st.one_of(st.integers(-50, 50), st.integers(-(10**40), 10**40))


@settings(max_examples=200, deadline=None)
@given(_COEF, _COEF, _COEF)
def test_linear_form_make_is_the_primitive_integer_form(a, b, c):
    given_coefs = (a, b, c)
    if given_coefs == (0, 0, 0):
        with pytest.raises(ValueError, match="identically zero"):
            LinearForm3.make(a, b, c)
        return
    form = LinearForm3.make(a, b, c)
    out = (form.a, form.b, form.c)
    assert all(type(k) is int for k in out)
    assert math.gcd(*out) == 1
    assert next(k for k in out if k) > 0
    # proportional to the input: every 2x2 minor of (out, input) vanishes
    assert all(out[i] * given_coefs[j] == out[j] * given_coefs[i] for i in range(3) for j in range(3))
    assert LinearForm3.make(-a, -b, -c) == form
    # the input divided by its gcd, up to sign
    g = math.gcd(a, b, c)
    assert out in (tuple(k // g for k in given_coefs), tuple(-k // g for k in given_coefs))
    with pytest.raises(TypeError, match="not an int"):
        LinearForm3.make(F(a), b, F(c, 7) + F(1, 2))


def det3(p, q, r):
    """The 3x3 determinant with rows p, q, r, expanded along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = p, q, r
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


_TRIPLE = st.tuples(_COEF, _COEF, _COEF)


@settings(max_examples=200, deadline=None)
@given(_TRIPLE, _TRIPLE, _TRIPLE)
def test_cross_dotted_with_a_third_triple_is_the_determinant(p, q, r):
    n = cross(p, q)
    assert sum(u * v for u, v in zip(n, r)) == det3(p, q, r)
    assert sum(u * v for u, v in zip(n, p)) == sum(u * v for u, v in zip(n, q)) == 0
    assert cross(q, p) == tuple(-k for k in n)
    # zero exactly when p and q are proportional: every 2x2 minor vanishes
    assert (n == (0, 0, 0)) == all(p[i] * q[j] == p[j] * q[i] for i in range(3) for j in range(3))
