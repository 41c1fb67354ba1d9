"""Exact rational linear algebra.

Everything here is exact: rationals are Python `int`s where integral and
`fractions.Fraction`s only where a denominator remains, over Python's
arbitrary-precision integers, and rank decisions are exact-zero decisions.
No floating point is ever used; a single rounding error would flip a
dimension count downstream.

Matrices are stored sparsely (dict-of-columns per row).  Both elimination
engines work fraction-free over the integers: rows are cleared of
denominators (integer rows skip this) and divided by the gcd of their
entries after every update, which keeps intermediate growth tame on the
structured matrices this package produces.  The rank engine pivots
Markowitz-style; the reduced echelon form behind `rref`, `row_basis` and
`kernel_basis` is one Gauss-Jordan elimination per matrix, kept on it.

All values are immutable after construction (the memoized rank and echelon
form are idempotent writes) and safe to share across threads; individual
computations are sequential, but callers may run many of them in parallel.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "RatMatrix",
    "binom",
    "exact_rational",
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


def exact_rational(value) -> int | Fraction:
    """`value` as an exact rational: `int` when integral, else `Fraction`."""
    if type(value) is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


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


def _to_int_rows(rows: Iterable[dict[int, int | Fraction]]) -> list[dict[int, int]]:
    """Clear denominators per row and gcd-normalize; drops zero rows.

    Rows whose entries are all `int` skip the denominator pass.
    """
    out = []
    for row in rows:
        if not row:
            continue
        denominators = [v.denominator for v in row.values() if type(v) is not int]
        if denominators:
            scale = lcm(*denominators)
            row = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
        out.append(_normalize_int_row(row))
    return out


def _int_echelon(rows: list[dict[int, int]]) -> tuple[list[int], list[dict[int, int]]]:
    """Reduced echelon form of a nonzero integer matrix, fraction-free.

    Gauss-Jordan elimination over the integers: the sparsest remaining row
    supplies the next pivot (its leftmost entry, made positive), and every
    other row, reduced or not, is replaced by the integer combination
    a*row - b*pivot_row that cancels the pivot column, then divided by its
    gcd.  Returns (pivot_columns, rows) in increasing pivot order; each row
    is primitive, has a positive pivot entry and is zero in every other
    pivot column.  Any order of pivot rows yields the same pivot columns
    (the leading columns of the row space), so these rows are the unique
    reduced rows scaled to primitive integers.
    """
    rows = [r for r in rows if r]
    pivots: list[int] = []
    reduced: list[dict[int, int]] = []
    while rows:
        # sparsest row first keeps the reduction cheap
        rows.sort(key=len)
        row = rows.pop(0)
        pc = min(row)
        pv = row[pc]
        if pv < 0:
            row = {c: -v for c, v in row.items()}
            pv = -pv
        for other_list in (reduced, rows):
            for k, other in enumerate(other_list):
                ov = other.get(pc)
                if ov is None:
                    continue
                g = gcd(pv, ov)
                a = pv // g
                b = ov // g
                new = {c: a * v for c, v in other.items()} if a != 1 else dict(other)
                for c, w in row.items():
                    nv = new.get(c, 0) - b * w
                    if nv:
                        new[c] = nv
                    else:
                        del new[c]
                other_list[k] = _normalize_int_row(new) if new else new
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
        pv = piv[pc]

        touched = list(colmap.pop(pc, ()))
        for rid in touched:
            row = live[rid]
            rv = row[pc]
            g = gcd(pv, rv)
            a = pv // g
            b = rv // g
            # new_row = a*row - b*piv  (pivot column cancels exactly)
            new_row: dict[int, int] = {}
            if a == 1:
                for c, v in row.items():
                    w = piv.get(c)
                    nv = v - b * w if w is not None else v
                    if nv:
                        new_row[c] = nv
            else:
                for c, v in row.items():
                    w = piv.get(c)
                    nv = a * v - b * w if w is not None else a * v
                    if nv:
                        new_row[c] = nv
            for c, w in piv.items():
                if c not in row:
                    new_row[c] = -b * w
            new_row.pop(pc, None)
            if new_row:
                new_row = _normalize_int_row(new_row)
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
    """An immutable exact rational matrix.

    Rows are stored as sparse column->value dicts whose values are `int`
    where integral and `Fraction` only where a denominator remains; dense
    row lists are accepted at construction.  Arithmetic never rounds.
    """

    __slots__ = ("_rows", "_ncols", "_rank", "_echelon")

    def __init__(self, rows: Sequence[dict[int, int | Fraction]], ncols: int):
        cleaned = []
        for row in rows:
            r = {}
            for c, v in row.items():
                if not 0 <= c < ncols:
                    raise IndexError(f"column {c} out of range for {ncols} columns")
                if type(v) is not int:
                    v = exact_rational(v)
                if v:
                    r[c] = v
            cleaned.append(r)
        self._rows: tuple[dict[int, int | Fraction], ...] = tuple(cleaned)
        self._ncols = ncols
        self._rank: int | None = None
        self._echelon: tuple[list[int], list[dict[int, int]]] | None = None

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        """Build from dense row lists of ints/Fractions/strings."""
        ncols = len(rows[0]) if rows else 0
        sparse = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            sparse.append(dict(enumerate(row)))
        return cls(sparse, ncols)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def row_dicts(self) -> tuple[dict[int, int | Fraction], ...]:
        return self._rows

    def rank(self) -> int:
        """Exact rank over the rationals."""
        if self._rank is None:
            self._rank = _sparse_int_rank(_to_int_rows(self._rows))
        return self._rank

    def kernel_dim(self) -> int:
        """Dimension of the (right) null space: ncols - rank."""
        return self._ncols - self.rank()

    def rref(self) -> tuple[list[int], list[dict[int, Fraction]]]:
        """Reduced row echelon form.

        Returns (pivot_columns, rows): pivot columns in increasing order and
        the corresponding unit-pivot reduced rows, as `Fraction`s.  The
        elimination itself runs once per matrix, over the integers
        (`_int_echelon`); later calls only rebuild the rows from it.  Meant
        for the small matrices (graded pieces of single ideals) where an
        explicit basis is needed; rank of large systems should go through
        rank().
        """
        if self._echelon is None:
            self._echelon = _int_echelon(_to_int_rows(self._rows))
        pivots, rows = self._echelon
        reduced = []
        for pc, row in zip(pivots, rows):
            pv = row[pc]
            reduced.append({c: Fraction(v, pv) for c, v in row.items()})
        return list(pivots), reduced

    def row_basis(self) -> list[dict[int, int]]:
        """A basis of the row space: the reduced rows as primitive integer rows.

        Row i is the i-th reduced row of rref() times the least common
        denominator of its entries, so its pivot entry is positive.
        """
        return _to_int_rows(self.rref()[1])

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
            # e_c - sum(row[c] * e_pc), times the common denominator
            entries = [(pc, row[c]) for pc, row in zip(pivots, reduced) if c in row]
            scale = lcm(*(v.denominator for _, v in entries))
            vec = {c: scale}
            for pc, v in entries:
                vec[pc] = -v.numerator * (scale // v.denominator)
            basis.append(vec)
        return basis

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"
