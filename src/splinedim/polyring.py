"""Sparse trivariate homogeneous polynomials with integer coefficients.

Polynomials live in Z[x, y, z] and are always homogeneous of a declared
degree.  Every polynomial the package builds is a product of powers of
integer-normalized linear forms, so coefficients are `int` (anything else
raises `TypeError`); the ideals they generate are ideals of Q[x, y, z], and
their graded dimensions are ranks over Q.  Forms are built from the mesh's
integer homogeneous points (`Mesh.points`) with `int` arithmetic alone.
Every coefficient-vector layout in the package lists the degree-d
monomials in descending degree-reverse-lexicographic order with z last:
by z-exponent, then y-exponent, both ascending.  So z^t times the degree
d - t monomials are the last C(d-t+2, 2) positions of degree d, in the
same order, and a form is divisible by z^t exactly when its leading
monomial, the first in this order, is.  Printed polynomials list their
terms in descending lexicographic order.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Mapping, NamedTuple

from .ratlinalg import primitive_int_vector

Monomial3 = tuple[int, int, int]
IntPoint = tuple[int, int, int]  # (X, Y, W), coprime, W > 0: the point (X/W, Y/W)

__all__ = [
    "HomogeneousPolynomial",
    "IntPoint",
    "LinearForm3",
    "Monomial3",
    "cross",
    "edge_linear_form",
    "graded_monomial_basis",
    "monomial_index",
    "vertex_complement_form",
]


@lru_cache(maxsize=64)  # every degree up to the CLI's guard of 30
def graded_monomial_basis(d: int) -> tuple[Monomial3, ...]:
    """All C(d+2, 2) degree-d monomials in the layout order: by (z, y)-exponents."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return tuple((d - j - k, j, k) for k in range(d + 1) for j in range(d - k + 1))


def monomial_index(mono: Monomial3) -> int:
    """Position of a monomial in the layout order of its degree d.

    The d+1, d, ..., d-k+2 monomials with z-exponents 0, ..., k-1 come
    first, and among those with z-exponent k the y-exponent counts up from 0.
    """
    i, j, k = mono
    return k * (i + j + k + 1) - k * (k - 1) // 2 + j


class HomogeneousPolynomial:
    """A homogeneous polynomial in Z[x, y, z] with sparse terms.

    Invariant: every stored monomial has the declared degree and a nonzero
    `int` coefficient.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[Monomial3, int]):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean: dict[Monomial3, int] = {}
        for mono, coef in terms.items():
            i, j, k = mono
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"monomial {mono} has degree != {degree}")
            if type(coef) is not int:
                raise TypeError(f"coefficient {coef!r} of {mono} is not an int")
            if coef:
                clean[mono] = coef
        self.degree = degree
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousPolynomial)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __mul__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        terms: dict[Monomial3, int] = {}
        for (a, b, c), u in self.terms.items():
            for (p, q, r), v in other.terms.items():
                mono = (a + p, b + q, c + r)
                terms[mono] = terms.get(mono, 0) + u * v
        return HomogeneousPolynomial(self.degree + other.degree, terms)

    # Not needed for polynomial products; kept because perfbench/tracer.py
    # wraps `__rmul__` by name, looking it up in the class dict.
    __rmul__ = __mul__

    def times_monomial(self, mono: Monomial3) -> "HomogeneousPolynomial":
        a, b, c = mono
        return HomogeneousPolynomial(
            self.degree + a + b + c,
            {(i + a, j + b, k + c): v for (i, j, k), v in self.terms.items()},
        )

    def sorted_terms(self) -> list[tuple[Monomial3, int]]:
        return sorted(self.terms.items(), reverse=True)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {"exp": list(mono), "coef": str(coef)}
                for mono, coef in self.sorted_terms()
            ],
        }

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j, k), coef in self.sorted_terms():
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip("xyz", (i, j, k))
                if e
            )
            if coef == 1 and mono:
                parts.append(mono)
            elif coef == -1 and mono:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coef}{mono}")
        return " + ".join(parts).replace("+ -", "- ")


class LinearForm3(NamedTuple):
    """A normalized linear form a*x + b*y + c*z.

    Coefficients are coprime integers with the first nonzero one positive,
    so generator sets are canonical and diffs stable.
    """

    a: int
    b: int
    c: int

    @classmethod
    def make(cls, a: int, b: int, c: int) -> "LinearForm3":
        if a == b == c == 0:
            raise ValueError("linear form must not be identically zero")
        return cls(*primitive_int_vector((a, b, c)))

    def power(self, k: int) -> HomogeneousPolynomial:
        """(a*x + b*y + c*z)^k by the integer multinomial expansion.

        Terms are inserted in descending lexicographic order, as repeated
        multiplication by the form inserts them.
        """
        if k < 0:
            raise ValueError("negative power")
        a, b, c = self.a, self.b, self.c
        terms = {}
        for i in range(k, -1, -1):
            for j in range(k - i, -1, -1):
                coef = comb(k, i) * comb(k - i, j) * a**i * b**j * c ** (k - i - j)
                if coef:
                    terms[(i, j, k - i - j)] = coef
        return HomogeneousPolynomial(k, terms)

    def vanishes_at_vertex(self, p: IntPoint) -> bool:
        """Whether the form vanishes at the homogeneous point p = (X, Y, W)."""
        return self.a * p[0] + self.b * p[1] + self.c * p[2] == 0

    def __repr__(self) -> str:
        return f"LinearForm3({self.a}, {self.b}, {self.c})"


def cross(p: IntPoint, q: IntPoint) -> IntPoint:
    """The cross product p x q of two integer triples.

    For homogeneous points it is the line through them, for lines the point
    where they meet, and its dot product with a third triple r is
    det(p, q, r).  It is zero exactly when p and q are proportional.
    """
    (a, b, c), (d, e, f) = p, q
    return (b * f - c * e, c * d - a * f, a * e - b * d)


def edge_linear_form(p1: IntPoint, p2: IntPoint) -> LinearForm3:
    """The normalized line p1 x p2 through two homogeneous points (the cone
    over the segment); ValueError if they coincide (degenerate edge)."""
    line = cross(p1, p2)
    if line == (0, 0, 0):  # primitive and W > 0: proportional means equal
        raise ValueError("degenerate edge: endpoints coincide")
    return LinearForm3.make(*line)


def vertex_complement_form(ell_tau: LinearForm3, p: IntPoint) -> LinearForm3:
    """A canonical second generator of the vanishing ideal of the point p.

    With `ell_tau`, which must vanish at p = (X, Y, W), it spans the linear
    forms vanishing at p: W*x - X*z, or W*y - Y*z when that is proportional
    to `ell_tau`.  Dimensions do not depend on the pick; a fixed one keeps
    outputs reproducible.
    """
    if not ell_tau.vanishes_at_vertex(p):
        raise ValueError(f"form {ell_tau} does not vanish at vertex {p}")
    x, y, w = p
    candidate = LinearForm3.make(w, 0, -x)
    if candidate == ell_tau:  # both are normalized, so == is proportionality
        candidate = LinearForm3.make(0, w, -y)
    return candidate
