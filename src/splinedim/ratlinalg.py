"""Exact linear algebra over the integers, with ranks over the rationals.

Every matrix this package builds is integral: its rows are coefficient
vectors of products of powers of integer-normalized linear forms.  Entries
are therefore Python `int`s (anything else raises `TypeError`), over
Python's arbitrary-precision integers, and rank decisions are exact-zero
decisions; ranks are ranks over Q.  No floating point is ever used; a
single rounding error would flip a dimension count downstream.

Matrices are stored sparsely (dict-of-columns per row).  Both elimination
engines work fraction-free: every update replaces a row by the integer
combination that cancels the pivot column and divides it by the gcd of its
entries (`_eliminate`), which keeps intermediate growth tame on the
structured matrices this package produces.  The rank engine pivots
Markowitz-style; the reduced echelon form behind `rref` and `kernel_basis`
is one Gauss-Jordan elimination per matrix, kept on it.

All values are immutable after construction (the memoized rank and echelon
form are idempotent writes) and safe to share across threads; individual
computations are sequential, but callers may run many of them in parallel.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = [
    "RatMatrix",
    "binom",
    "rational_from_str",
    "rational_to_str",
]


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the convention C(a, b) = 0 whenever a < b.

    The zero convention (including negative a) is what makes the closed-form
    dimension counts in this package correct near their degree boundaries.

    Raises:
        ValueError: if b < 0.
    """
    if b < 0:
        raise ValueError(f"binom requires b >= 0, got b={b}")
    if a < b:
        return 0
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse the "p/q" serialization (also accepts plain integers)."""
    return Fraction(s.strip())


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _primitive_rows(rows) -> list[dict[int, int]]:
    """The nonzero rows, each divided by the gcd of its entries."""
    return [_normalize_int_row(r) for r in rows if r]


def _eliminate(row: dict[int, int], piv: dict[int, int], pc: int) -> dict[int, int]:
    """One fraction-free step: `row` with pivot column `pc` cancelled by `piv`.

    Returns a*row - b*piv divided by the gcd of its entries, where a and b
    are piv[pc] and row[pc] over their gcd; an empty dict when that is zero.
    """
    pv, rv = piv[pc], row[pc]
    g = gcd(pv, rv)
    a = pv // g
    b = rv // g
    new = dict(row) if a == 1 else {c: a * v for c, v in row.items()}
    for c, w in piv.items():
        nv = new.get(c, 0) - b * w
        if nv:
            new[c] = nv
        else:
            del new[c]
    return _normalize_int_row(new) if new else new


def _int_echelon(rows: list[dict[int, int]]) -> tuple[list[int], list[dict[int, int]]]:
    """Reduced echelon form of an integer matrix given by nonzero rows.

    Gauss-Jordan elimination over the integers: the sparsest remaining row
    supplies the next pivot (its leftmost entry, made positive), and every
    other row, reduced or not, that meets the pivot column goes through
    `_eliminate`.  Returns (pivot_columns, rows) in increasing pivot order;
    each row is primitive, has a positive pivot entry and is zero in every
    other pivot column.  Any order of pivot rows yields the same pivot
    columns (the leading columns of the row space), so these rows are the
    unique reduced rows scaled to primitive integers.
    """
    pivots: list[int] = []
    reduced: list[dict[int, int]] = []
    while rows:
        # sparsest row first keeps the reduction cheap
        rows.sort(key=len)
        row = rows.pop(0)
        pc = min(row)
        if row[pc] < 0:
            row = {c: -v for c, v in row.items()}
        for other_list in (reduced, rows):
            for k, other in enumerate(other_list):
                if pc in other:
                    other_list[k] = _eliminate(other, row, pc)
        rows = [r for r in rows if r]
        pivots.append(pc)
        reduced.append(row)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [pivots[k] for k in order], [reduced[k] for k in order]


def _sparse_int_rank(rows: list[dict[int, int]]) -> int:
    """Rank of a sparse integer matrix by fraction-free elimination.

    Pivot selection approximates the Markowitz criterion: among a handful of
    least-populated columns, pick the entry minimizing predicted fill, with
    strong preference for unit pivots (their updates never need a division).
    Updated rows are renormalized by their gcd so entries stay in lowest
    terms after each pivot.
    """
    live: dict[int, dict[int, int]] = {i: r for i, r in enumerate(rows) if r}
    colmap: dict[int, set[int]] = {}
    for rid, row in live.items():
        for c in row:
            colmap.setdefault(c, set()).add(rid)

    rank = 0
    while live:
        # candidate columns: a few with the fewest live rows
        cand_cols = heapq.nsmallest(6, colmap, key=lambda c: len(colmap[c]))
        best = None
        for c in cand_cols:
            ccount = len(colmap[c])
            for rid in colmap[c]:
                row = live[rid]
                v = abs(row[c])
                score = (len(row) - 1) * (ccount - 1)
                if v != 1:
                    score += 10_000_000  # unit pivots first, always
                key = (score, v, len(row))
                if best is None or key < best[0]:
                    best = (key, rid, c)
        _, prid, pc = best
        piv = live.pop(prid)
        for c in piv:
            s = colmap[c]
            s.discard(prid)
            if not s:
                del colmap[c]
        rank += 1

        touched = list(colmap.pop(pc, ()))
        for rid in touched:
            row = live[rid]
            new_row = _eliminate(row, piv, pc)
            # update column index incrementally
            for c in row:
                if c != pc and c not in new_row:
                    s = colmap[c]
                    s.discard(rid)
                    if not s:
                        del colmap[c]
            for c in new_row:
                if c not in row:
                    colmap.setdefault(c, set()).add(rid)
            if new_row:
                live[rid] = new_row
            else:
                del live[rid]
    return rank


class RatMatrix:
    """An immutable exact integer matrix; its rank is the rank over Q.

    Rows are stored as sparse column->value dicts of nonzero `int`s; an
    entry of any other type (`Fraction`, `float`, `bool`, ...) raises
    `TypeError`.  Arithmetic never rounds.
    """

    __slots__ = ("_rows", "_ncols", "_rank", "_echelon")

    def __init__(self, rows: Sequence[dict[int, int]], ncols: int):
        cleaned = []
        for row in rows:
            r = {}
            for c, v in row.items():
                if not 0 <= c < ncols:
                    raise IndexError(f"column {c} out of range for {ncols} columns")
                if type(v) is not int:
                    raise TypeError(f"matrix entry {v!r} at column {c} is not an int")
                if v:
                    r[c] = v
            cleaned.append(r)
        self._rows: tuple[dict[int, int], ...] = tuple(cleaned)
        self._ncols = ncols
        self._rank: int | None = None
        self._echelon: tuple[list[int], list[dict[int, int]]] | None = None

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def row_dicts(self) -> tuple[dict[int, int], ...]:
        return self._rows

    def rank(self) -> int:
        """Exact rank over the rationals."""
        if self._rank is None:
            self._rank = _sparse_int_rank(_primitive_rows(self._rows))
        return self._rank

    def rref(self) -> tuple[list[int], list[dict[int, int]]]:
        """Reduced row echelon form, as primitive integer rows.

        Returns (pivot_columns, rows): pivot columns in increasing order and
        the reduced rows scaled to primitive integers with positive pivots,
        so rows[i] / rows[i][pivot_columns[i]] is the unit-pivot row.  The
        elimination runs once per matrix (`_int_echelon`) and the result is
        kept on it and shared: callers must not modify it.  Meant for the
        small matrices (graded pieces of single ideals) where an explicit
        basis is needed; rank of large systems should go through rank().
        """
        if self._echelon is None:
            self._echelon = _int_echelon(_primitive_rows(self._rows))
        return self._echelon

    def kernel_basis(self) -> list[dict[int, int]]:
        """A basis of the null space {w : M w = 0}, as sparse vectors.

        Equivalently, a basis of the linear functionals vanishing on the
        row space; built from the reduced form, one primitive integer vector
        per non-pivot column c, positive at c and zero at every other
        non-pivot column.
        """
        pivots, reduced = self.rref()
        pivot_set = set(pivots)
        basis = []
        for c in range(self._ncols):
            if c in pivot_set:
                continue
            # e_c - sum(row[c] / row[pc] * e_pc), times the common denominator
            entries = [(pc, row[pc], row[c]) for pc, row in zip(pivots, reduced) if c in row]
            scale = lcm(*(pv // gcd(v, pv) for _, pv, v in entries))
            vec = {c: scale}
            for pc, pv, v in entries:
                vec[pc] = -v * scale // pv
            basis.append(vec)
        return basis

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"
