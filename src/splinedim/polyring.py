"""Sparse trivariate homogeneous polynomials with integer coefficients.

Polynomials live in Z[x, y, z] and are always homogeneous of a declared
degree.  Every polynomial the package builds is a product of powers of
integer-normalized linear forms, so coefficients are `int` (anything else
raises `TypeError`); the ideals they generate are ideals of Q[x, y, z], and
their graded dimensions are ranks over Q.  The monomial order is graded lexicographic with x > y > z; within a fixed degree
this is plain descending lexicographic order on exponent triples, and every
coefficient-vector layout in the package uses it.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Mapping

Monomial3 = tuple[int, int, int]

__all__ = [
    "HomogeneousPolynomial",
    "LinearForm3",
    "Monomial3",
    "edge_linear_form",
    "graded_monomial_basis",
    "monomial_index",
    "vertex_complement_form",
]


@lru_cache(maxsize=64)  # every degree up to the CLI's guard of 30
def graded_monomial_basis(d: int) -> tuple[Monomial3, ...]:
    """All C(d+2, 2) degree-d monomials in the fixed (descending) order."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    monos = [
        (i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)
    ]
    return tuple(monos)


def monomial_index(mono: Monomial3) -> int:
    """Position of a monomial in the fixed order of its degree.

    The (d-i)(d-i+1)/2 monomials with a larger x-exponent come first, and
    among those with x-exponent i the z-exponent counts up from 0.
    """
    _, j, k = mono
    return (j + k) * (j + k + 1) // 2 + k


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

    def __hash__(self) -> int:
        return hash((self.degree, tuple(sorted(self.terms.items()))))

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

    def coefficient_vector(self) -> dict[int, int]:
        """Sparse coefficients in the fixed degree-d monomial order."""
        return {monomial_index(m): v for m, v in self.terms.items()}

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


@dataclass(frozen=True)
class LinearForm3:
    """A normalized linear form a*x + b*y + c*z.

    Coefficients are cleared to coprime integers with the first nonzero one
    positive, so generator sets are canonical and diffs stable.
    """

    a: int
    b: int
    c: int

    @classmethod
    def make(cls, a, b, c) -> "LinearForm3":
        fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
        if fa == fb == fc == 0:
            raise ValueError("linear form must not be identically zero")
        lcm = 1
        for v in (fa, fb, fc):
            lcm = lcm // gcd(lcm, v.denominator) * v.denominator
        ia, ib, ic = int(fa * lcm), int(fb * lcm), int(fc * lcm)
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
        ia, ib, ic = ia // g, ib // g, ic // g
        lead = next(v for v in (ia, ib, ic) if v)
        if lead < 0:
            ia, ib, ic = -ia, -ib, -ic
        return cls(ia, ib, ic)

    def poly(self) -> HomogeneousPolynomial:
        return HomogeneousPolynomial(
            1, {(1, 0, 0): self.a, (0, 1, 0): self.b, (0, 0, 1): self.c}
        )

    def power(self, k: int) -> HomogeneousPolynomial:
        """(a*x + b*y + c*z)^k by the integer multinomial expansion.

        Terms are inserted in the fixed descending monomial order, as
        repeated multiplication of `poly()` inserts them, so matrices built
        from either are laid out identically.
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

    def evaluate(self, x, y, z) -> Fraction:
        return Fraction(x) * self.a + Fraction(y) * self.b + Fraction(z) * self.c

    def vanishes_at_vertex(self, v: tuple[Fraction, Fraction]) -> bool:
        """Whether the form vanishes on the homogenized point (v.x, v.y, 1)."""
        return self.evaluate(v[0], v[1], 1) == 0

    def __repr__(self) -> str:
        return f"LinearForm3({self.a}, {self.b}, {self.c})"


def edge_linear_form(
    p1: tuple[Fraction, Fraction], p2: tuple[Fraction, Fraction]
) -> LinearForm3:
    """The normalized homogenized line through two distinct affine points.

    The result vanishes at (p.x, p.y, 1) for both points, i.e. on the cone
    over the segment.

    Raises:
        ValueError: if the points coincide (degenerate edge).
    """
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and y1 == y2:
        raise ValueError("degenerate edge: endpoints coincide")
    return LinearForm3.make(y1 - y2, x2 - x1, x1 * y2 - x2 * y1)


def vertex_complement_form(
    ell_tau: LinearForm3, v: tuple[Fraction, Fraction]
) -> LinearForm3:
    """A canonical second generator of the vanishing ideal of a vertex.

    Together with `ell_tau` (which must vanish at the homogenized vertex)
    the result generates all linear forms vanishing at (v.x, v.y, 1).  The
    canonical pick is x - v.x*z, falling back to y - v.y*z when that is
    proportional to `ell_tau`; graded ideal dimensions do not depend on the
    choice, but a fixed one keeps outputs reproducible.
    """
    if not ell_tau.vanishes_at_vertex(v):
        raise ValueError(f"form {ell_tau} does not vanish at vertex {v}")
    candidate = LinearForm3.make(1, 0, -Fraction(v[0]))
    if candidate == ell_tau:  # both are normalized, so == is proportionality
        candidate = LinearForm3.make(0, 1, -Fraction(v[1]))
    return candidate
