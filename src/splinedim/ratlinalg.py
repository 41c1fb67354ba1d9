"""Exact linear algebra over the integers, with ranks over the rationals.

Every matrix this package builds is integral: its rows are coefficient
vectors of products of powers of integer-normalized linear forms.  Entries
are therefore Python `int`s (anything else raises `TypeError`), over
Python's arbitrary-precision integers, and rank decisions are exact-zero
decisions; ranks are ranks over Q.  No floating point is ever used; a
single rounding error would flip a dimension count downstream.

Matrices are stored sparsely (dict-of-columns per row).  One elimination
serves every matrix, fraction-free: each step replaces a row by the integer
combination that cancels the pivot column (`_eliminate`), and a row is
divided by its content, the gcd of its entries, once, when it is kept
(`_primitive`).  `leading_columns` runs the forward pass (`_echelon_rows`)
and `rank` counts the columns it keeps; `rref` adds the back-substitution.
`rank_mod` runs the pass mod a prime, which can only understate the rank,
so it serves only to prove full row rank.  Nothing is kept on the matrix:
each call eliminates afresh and returns new lists, which belong to the
caller.  `extend_echelon` is the one pass that starts from earlier work: it
takes a seed, a dict of kept rows by pivot column that the caller owns and
hands over, adds the matrix's rows to it in place and returns it.  It never
writes a row it is given: the seed's rows and the rows it keeps, which may
be the matrix's own, are read-only.  A row's first elimination step builds
a new dict, and its later steps update that dict.

Matrices are immutable after construction and safe to share across
threads; individual computations are sequential, but callers may run many
of them in parallel.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "RatMatrix",
    "binom",
    "primitive_int_vector",
    "reduced_kernel",
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
    return comb(a, b) if a >= b else 0


def primitive_int_vector(values: Sequence[int]) -> tuple[int, ...]:
    """`int`s (else TypeError), not all zero, over their gcd, first nonzero positive."""
    if any(type(v) is not int for v in values):
        raise TypeError(f"{values!r} is not an int vector")
    g = gcd(*values)
    if next(v for v in values if v) < 0:
        g = -g
    return tuple(v // g for v in values)


def _primitive(row: dict[int, int], pc: int) -> dict[int, int]:
    """A kept row over its content, the gcd of its entries, signed positive at
    its pivot column `pc`: `row` itself when that changes nothing."""
    g = gcd(*row.values())
    if row[pc] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict[int, int], piv: dict[int, int], pc: int, owned: bool) -> dict[int, int]:
    """One fraction-free step, `row` with pivot column `pc` cancelled by `piv`:
    a*row - b*piv, content and all, where a and b are piv[pc] and row[pc]
    over their gcd; an empty dict when that is zero.  It is `row`, updated in
    place, if the caller `owned` it, else a new dict."""
    pv, rv = piv[pc], row[pc]
    g = gcd(pv, rv)
    a, b = pv // g, rv // g
    if not owned:
        row = dict(row) if a == 1 else {c: a * v for c, v in row.items()}
    elif a != 1:
        for c in row:
            row[c] *= a
    for c, w in piv.items():
        if nv := row.get(c, 0) - b * w:
            row[c] = nv
        else:
            del row[c]
    return row


def _echelon_rows(
    rows: Iterable[dict[int, int]], kept: dict[int, dict[int, int]], limit: int | None = None
) -> dict[int, dict[int, int]]:
    """Forward elimination onto `kept`, primitive rows by pivot column in
    echelon form: shortest first, each nonzero row is cancelled at its
    leftmost column by the row kept there (`_eliminate`) until it vanishes
    or is kept, made primitive (`_primitive`), at a new column, stopping once
    `limit` rows are kept.  Returns `kept`, extended in place.  Columns are
    eliminated in index order, so large systems list their sparsest first.
    """
    for row in sorted(rows, key=len):
        if limit is not None and len(kept) >= limit:
            break
        owned = False
        while row and (pc := min(row)) in kept:
            row = _eliminate(row, kept[pc], pc, owned)
            owned = True
        if row:
            kept[pc] = _primitive(row, pc)
    return kept


def reduced_kernel(rows: Sequence[dict[int, int]], columns: range) -> list[dict[int, int]]:
    """A basis of the null space of `rows`, which lie in `columns` and are in
    reduced echelon form (each row is zero at every other row's leading
    column), read off them with no elimination: one primitive integer
    vector per column c of `columns` that leads no row, positive at c and
    zero at every other such column.  `RatMatrix.kernel_basis` reads its
    reduced form through this, and the kernel oracle its edge bases."""
    # each column's (pivot column, pivot, entry) triples, in one pass
    entries: dict[int, list[tuple[int, int, int]]] = {c: [] for c in columns}
    pivots = {min(row): row for row in rows}
    for pc, row in sorted(pivots.items()):
        for c, v in row.items():
            entries[c].append((pc, row[pc], v))
    basis = []
    for c in sorted(entries.keys() - pivots.keys()):
        # e_c - sum(row[c] / row[pc] * e_pc), times the common denominator
        scale = lcm(*(pv // gcd(v, pv) for _, pv, v in entries[c]))
        vec = {c: scale}
        for pc, pv, v in entries[c]:
            vec[pc] = -v * scale // pv
        basis.append(vec)
    return basis


class RatMatrix:
    """An immutable exact integer matrix; its rank is the rank over Q.

    Rows are stored as sparse column->value dicts of nonzero `int`s; an
    entry of any other type (`Fraction`, `float`, `bool`, ...) raises
    `TypeError`.  Arithmetic never rounds.
    """

    __slots__ = ("_rows", "_ncols")

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

    @classmethod
    def _of_kept_rows(cls, rows: Sequence[dict[int, int]], ncols: int) -> RatMatrix:
        """A matrix of rows that a pass of this module kept, so already
        nonzero `int`s in range: taken as they are, unchecked and uncopied,
        and read-only from then on."""
        matrix = cls.__new__(cls)
        matrix._rows, matrix._ncols = tuple(rows), ncols
        return matrix

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
        return len(self.leading_columns())

    def leading_columns(self, limit: int | None = None) -> list[int]:
        """The `rref` pivots, by the forward pass alone, or the first `limit` it keeps."""
        return sorted(_echelon_rows(self._rows, {}, limit))

    def extend_echelon(self, seed: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
        """The forward pass over these rows started from `seed`, kept rows by
        pivot column in echelon form: the seed, extended in place to an
        echelon basis of its span plus the row space, and returned.  Its
        keys are the leading columns of that sum."""
        return _echelon_rows(self._rows, seed)

    def rank_mod(self, p: int = 32749) -> int:
        """Rank mod a prime p (default: the largest below 2**15), each kept row
        stored with its pivot's inverse.  A minor that vanishes over Q vanishes
        mod p, so it is at most rank(): equal to nrows, it proves full row
        rank; less, nothing."""
        kept: dict[int, tuple[dict[int, int], int]] = {}
        for row in sorted(self._rows, key=len):
            row = {c: r for c, v in row.items() if (r := v % p)}
            while row and (pc := min(row)) in kept:
                piv, inv = kept[pc]
                f = row[pc] * inv % p
                for c, w in piv.items():
                    if nv := (row.get(c, 0) - f * w) % p:
                        row[c] = nv
                    else:
                        del row[c]
            if row:
                kept[pc] = (row, pow(row[pc], -1, p))
        return len(kept)

    def rref(self) -> tuple[list[int], list[dict[int, int]]]:
        """Reduced row echelon form, as primitive integer rows.

        Returns (pivot_columns, rows): pivot columns in increasing order and
        the reduced rows scaled to primitive integers with positive pivots,
        so rows[i] / rows[i][pivot_columns[i]] is the unit-pivot row.  Each
        call runs the forward pass on copies of the rows, so the result is the
        caller's, then clears each kept row at the later pivot columns it holds
        and divides it by its content, last row first.  Meant for local pieces
        that need a basis (an edge's graded piece, whose reduced rows give
        its kernel through `reduced_kernel`).
        """
        kept = _echelon_rows(map(dict, self._rows), {})
        pivots = sorted(kept)
        for qc in reversed(pivots):
            # kept[pc] is zero at every other pivot column, so no step adds one
            if later := [pc for pc in kept[qc] if pc != qc and pc in kept]:
                for pc in later:
                    kept[qc] = _eliminate(kept[qc], kept[pc], pc, True)
                kept[qc] = _primitive(kept[qc], qc)
        return pivots, [kept[c] for c in pivots]

    def kernel_basis(self) -> list[dict[int, int]]:
        """A basis of the null space {w : M w = 0}, as sparse vectors.

        Equivalently, a basis of the linear functionals vanishing on the
        row space; read off the reduced form (`reduced_kernel`).
        """
        return reduced_kernel(self.rref()[1], range(self._ncols))

    def __repr__(self) -> str:
        return f"RatMatrix({self.nrows}x{self.ncols})"
