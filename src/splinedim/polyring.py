"""Sparse trivariate homogeneous polynomial algebra over the rationals.

Polynomials live in Q[x, y, z] and are always homogeneous of a declared
degree.  Coefficients are `int` where integral and `Fraction` only where a
denominator remains, so products of integer linear forms stay integer.  The
monomial order is graded lexicographic with x > y > z; within a fixed degree
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

from .ratlinalg import exact_rational, rational_to_str

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
    """A homogeneous polynomial in Q[x, y, z] with sparse exact terms.

    Invariant: every stored monomial has the declared degree and a nonzero
    coefficient.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[Monomial3, int | Fraction]):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean: dict[Monomial3, int | Fraction] = {}
        for mono, coef in terms.items():
            i, j, k = mono
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"monomial {mono} has degree != {degree}")
            if type(coef) is not int:
                coef = exact_rational(coef)
            if coef:
                clean[mono] = coef
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, degree: int) -> "HomogeneousPolynomial":
        return cls(degree, {})

    @classmethod
    def variable(cls, name: str) -> "HomogeneousPolynomial":
        exp = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[name]
        return cls(1, {exp: 1})

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

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degrees")
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coef
        return HomogeneousPolynomial(self.degree, terms)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            terms: dict[Monomial3, int | Fraction] = {}
            for (a, b, c), u in self.terms.items():
                for (p, q, r), v in other.terms.items():
                    mono = (a + p, b + q, c + r)
                    terms[mono] = terms.get(mono, 0) + u * v
            return HomogeneousPolynomial(self.degree + other.degree, terms)
        coef = exact_rational(other)
        return HomogeneousPolynomial(
            self.degree, {m: coef * v for m, v in self.terms.items()}
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HomogeneousPolynomial":
        if k < 0:
            raise ValueError("negative power")
        out = HomogeneousPolynomial(0, {(0, 0, 0): 1})
        for _ in range(k):
            out = out * self
        return out

    def times_monomial(self, mono: Monomial3) -> "HomogeneousPolynomial":
        a, b, c = mono
        return HomogeneousPolynomial(
            self.degree + a + b + c,
            {(i + a, j + b, k + c): v for (i, j, k), v in self.terms.items()},
        )

    def coefficient_vector(self) -> dict[int, int | Fraction]:
        """Sparse coefficients in the fixed degree-d monomial order."""
        return {monomial_index(m): v for m, v in self.terms.items()}

    def sorted_terms(self) -> list[tuple[Monomial3, int | Fraction]]:
        return sorted(self.terms.items(), reverse=True)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {"exp": list(mono), "coef": rational_to_str(coef)}
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
                parts.append(mono or "1")
            elif coef == -1 and mono:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{rational_to_str(coef)}{mono}" if mono else rational_to_str(coef))
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
        `poly() ** k` inserts them, so matrices built from either are laid
        out identically.
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
