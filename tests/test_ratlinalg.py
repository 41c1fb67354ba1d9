"""Tests for exact integer linear algebra with ranks over the rationals.

The references are plain Fraction eliminations.  Random rational matrices
are fed to RatMatrix with each row's denominators cleared here (a row
scaling, so rank, pivots and kernel are unchanged), and to the references
as they are.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinedim.ratlinalg import (
    RatMatrix,
    binom,
    rational_from_str,
    rational_to_str,
)


def _cleared(rows):
    """Each row times the lcm of its entries' denominators, as ints."""
    out = []
    for row in rows:
        row = [Fraction(v) for v in row]
        scale = math.lcm(*(v.denominator for v in row))
        out.append([int(v * scale) for v in row])
    return out


def _matrix(rows):
    """RatMatrix of dense rows, rational rows cleared to integers first."""
    ncols = len(rows[0]) if rows else 0
    return RatMatrix([dict(enumerate(row)) for row in _cleared(rows)], ncols)


def test_rank_identity():
    m = _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.rank() == 3
    assert m.kernel_basis() == []


def test_rank_zero_matrix():
    m = _matrix([[0, 0, 0, 0], [0, 0, 0, 0]])
    assert m.rank() == 0
    assert m.kernel_basis() == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


def test_rank_proportional_rows():
    m = _matrix([[1, 2], [2, 4], [3, 6]])
    assert m.rank() == 1


def test_kernel_dim_examples():
    assert _matrix([[1, 1, 0], [0, 1, 1]]).kernel_basis() == [{2: 1, 0: 1, 1: -1}]
    assert len(RatMatrix(({}, {}), 5).kernel_basis()) == 5


def test_rank_rational_entries():
    m = _matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert m.rank() == 1


def test_non_integral_entries_are_cleared_to_integers():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 2)]]
    m = _matrix(rows)
    # each row is scaled by its denominators' lcm and stored as plain ints
    assert m.row_dicts() == ({0: 3, 1: 2}, {0: 3, 1: 2})
    assert all(type(v) is int for row in m.row_dicts() for v in row.values())
    assert m.rank() == 1 == _rank_by_fraction_elimination(rows)
    assert m.rref() == ([0], [{0: 3, 1: 2}])
    assert m.kernel_basis() == [{1: 3, 0: -2}]
    _check_against_reference(m)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2, 1), 1.0, True, "1"])
def test_non_int_entries_raise_type_error(entry):
    with pytest.raises(TypeError, match="not an int"):
        RatMatrix([{0: 1, 1: entry}], 2)


def _random_matrix(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        rows.append(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        )
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_rank_equals_rank_of_transpose(seed):
    rng = random.Random(seed)
    rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    m = _matrix(rows)
    transpose = [list(col) for col in zip(*rows)]
    assert m.rank() == _matrix(transpose).rank()


@pytest.mark.parametrize("seed", range(8))
def test_rank_invariant_under_scaling_and_permutation(seed):
    rng = random.Random(100 + seed)
    rows = _random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6))
    m = _matrix(rows)
    scaled = [
        [v * Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2])) for v in row]
        for row in rows
    ]
    rng.shuffle(scaled)
    assert _matrix(scaled).rank() == m.rank()


@pytest.mark.parametrize("seed", range(12))
def test_kernel_dim_plus_rank_is_cols(seed):
    rng = random.Random(200 + seed)
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    m = _matrix(_random_matrix(rng, nrows, ncols))
    assert m.rank() + len(m.kernel_basis()) == ncols


def _rank_by_fraction_elimination(rows):
    """Plain dense Gaussian elimination over Fraction, the slow oracle."""
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    prow = 0
    for c in range(ncols):
        pr = None
        for i in range(prow, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[prow], mat[pr] = mat[pr], mat[prow]
        pv = mat[prow][c]
        for i in range(prow + 1, len(mat)):
            f = mat[i][c] / pv
            if f:
                for j in range(c, ncols):
                    mat[i][j] -= f * mat[prow][j]
        prow += 1
        rank += 1
    return rank


@pytest.mark.parametrize("seed", range(15))
def test_rank_matches_dense_elimination_oracle(seed):
    rng = random.Random(300 + seed)
    rows = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
    assert _matrix(rows).rank() == _rank_by_fraction_elimination(rows)


def _rref_by_fraction_loop(matrix):
    """Gauss-Jordan elimination over Fraction, the reference for rref().

    This is the loop RatMatrix.rref ran before it moved to fraction-free
    integer elimination; its unit-pivot rows must be rref()'s primitive
    integer rows divided by their pivots.
    """
    rows = [{c: Fraction(v) for c, v in r.items()} for r in matrix.row_dicts() if r]
    pivots: list[int] = []
    reduced: list[dict[int, Fraction]] = []
    while rows:
        # sparsest row first keeps the reduction cheap
        rows.sort(key=len)
        row = rows.pop(0)
        if not row:
            continue
        pc = min(row)
        pv = row[pc]
        if pv != 1:
            row = {c: v / pv for c, v in row.items()}
        # reduce previously found rows and the remaining ones
        for other_list in (reduced, rows):
            for k, other in enumerate(other_list):
                ov = other.get(pc)
                if ov:
                    new = dict(other)
                    for c, v in row.items():
                        nv = new.get(c, Fraction(0)) - ov * v
                        if nv:
                            new[c] = nv
                        else:
                            new.pop(c, None)
                    other_list[k] = new
        pivots.append(pc)
        reduced.append(row)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [pivots[k] for k in order], [reduced[k] for k in order]


def _check_against_reference(m):
    """rref() equals the Fraction loop; kernel_basis() is a primitive integer basis."""
    pivots, rows = m.rref()
    unit_rows = [
        {c: Fraction(v, row[pc]) for c, v in row.items()} for pc, row in zip(pivots, rows)
    ]
    assert (pivots, unit_rows) == _rref_by_fraction_loop(m)
    assert len(pivots) == m.rank()
    for pc, row in zip(pivots, rows):
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1 and row[pc] > 0
    kernel = m.kernel_basis()
    assert len(kernel) == m.ncols - m.rank()
    for w in kernel:
        assert w and all(type(v) is int and v for v in w.values())
        assert math.gcd(*w.values()) == 1
        for row in m.row_dicts():
            assert sum(Fraction(v) * w.get(c, 0) for c, v in row.items()) == 0
    # one vector per non-pivot column, so they are independent
    free = [c for c in range(m.ncols) if c not in set(pivots)]
    assert [sorted(set(w) - set(pivots)) for w in kernel] == [[c] for c in free]


@pytest.mark.parametrize("seed", range(15))
def test_rref_and_kernel_match_fraction_loop_on_random_matrices(seed):
    rng = random.Random(300 + seed)
    rows = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
    _check_against_reference(_matrix(rows))


_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@given(
    st.integers(1, 7).flatmap(
        lambda ncols: st.lists(
            st.lists(_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=8
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_rref_and_kernel_match_fraction_loop_property(rows):
    _check_against_reference(_matrix(rows))


def test_rref_gives_unit_pivot_basis():
    m = _matrix([[2, 4, 6], [1, 1, 1], [3, 5, 7]])
    pivots, rows = m.rref()
    assert len(pivots) == m.rank() == 2
    assert rows == [{0: 1, 2: -1}, {1: 1, 2: 2}]
    for pc, row in zip(pivots, rows):
        assert row[pc] == 1
        for other in rows:
            if other is not row:
                assert pc not in other


def test_row_space_membership():
    # a vector lies in the row space exactly when appending it keeps the rank
    rows = [[1, 0, 1], [0, 1, 1]]
    assert _matrix([*rows, [2, 3, 5]]).rank() == 2
    assert _matrix([*rows, [1, 0, 0]]).rank() == 3


def test_binom_small_values():
    assert binom(5, 2) == 10
    assert binom(0, 0) == 1
    assert binom(1, 2) == 0


def test_binom_matches_factorial_definition():
    for a in range(0, 31):
        for b in range(0, a + 1):
            expected = math.factorial(a) // (math.factorial(b) * math.factorial(a - b))
            assert binom(a, b) == expected


def test_binom_zero_convention_below_diagonal():
    for a in range(-10, 11):
        for b in range(max(a + 1, 0), 11):
            assert binom(a, b) == 0


def test_binom_rejects_negative_b():
    with pytest.raises(ValueError):
        binom(3, -1)


@given(st.fractions(max_denominator=10**6))
@settings(max_examples=200)
def test_rational_string_round_trip(q):
    assert rational_from_str(rational_to_str(q)) == q


def test_rational_string_format():
    assert rational_to_str(Fraction(3, 1)) == "3"
    assert rational_to_str(Fraction(-7, 2)) == "-7/2"
    assert rational_from_str("-7/2") == Fraction(-7, 2)
    assert rational_from_str("5") == Fraction(5)
