"""Tests for exact integer linear algebra with ranks over the rationals.

The references are plain Fraction eliminations.  Random rational matrices
are fed to RatMatrix with each row's denominators cleared here (a row
scaling, so rank, pivots and kernel are unchanged), and to the references
as they are.  The engine that divided each working row by its content
after every step is kept here too, as the reference for what the one
elimination keeps and how many steps it takes.
"""

import copy
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinedim import ratlinalg
from splinedim.cli import builtin_mesh
from splinedim.dimension import EdgePieces, euler_assembly
from splinedim.ideals import edge_ideal_for, graded_piece_matrix, vertex_ideal_edges
from splinedim.mesh import rational_from_str, rational_to_str
from splinedim.ratlinalg import RatMatrix, binom
from splinedim.refine import powell_sabin_6split


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


@pytest.mark.parametrize("column", [-1, 2])
def test_out_of_range_columns_raise_index_error(column):
    with pytest.raises(IndexError, match="out of range"):
        RatMatrix([{0: 1, column: 1}], 2)


def test_the_grown_stacks_check_no_row_again(monkeypatch):
    """The vertex stacks are fed the edge pieces' top `rref` rows, which are
    checked `int`s in range already, so growing them builds no checked
    matrix; a matrix built from outside input is still checked (above)."""
    split = powell_sabin_6split(builtin_mesh("morgan-scott"), 2, 3)
    pieces = EdgePieces(split.refined, split.spec, 6)
    sys = pieces.system(6)
    sys.bases
    init, checked = RatMatrix.__init__, []
    monkeypatch.setattr(RatMatrix, "__init__", lambda self, rows, ncols: checked.append(ncols) or init(self, rows, ncols))
    assert sys.full_pivots and sys.tilde_pivots
    assert checked == []


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


def _check_pivot_columns(rows):
    """rref()'s pivot columns are rank()-many distinct columns whose
    submatrix has rank rank() by the dense oracle.  The forward pass alone
    gives the same leading columns; a limit at the rank changes nothing,
    and a lower one keeps that many of them."""
    m = _matrix(rows)
    pivots, rank = m.rref()[0], m.rank()
    assert len(set(pivots)) == len(pivots) == rank
    assert all(0 <= c < m.ncols for c in pivots)
    assert _rank_by_fraction_elimination([[row[c] for c in pivots] for row in rows]) == rank
    assert m.leading_columns() == m.leading_columns(rank) == m.leading_columns(rank + 1) == pivots
    for k in range(-1, rank):
        cols = m.leading_columns(k)
        assert len(cols) == max(k, 0) and set(cols) <= set(pivots), k


@pytest.mark.parametrize("seed", range(15))
def test_pivot_columns_are_independent_and_rank_many(seed):
    rng = random.Random(300 + seed)
    _check_pivot_columns(_random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)))


@given(
    st.integers(0, 7).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=8
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_pivot_columns_property(rows):
    _check_pivot_columns(rows)


def test_pivot_columns_of_zero_deficient_and_zero_column_matrices():
    assert _matrix([[0, 0, 0], [0, 0, 0]]).rref() == ([], [])
    assert RatMatrix([{}, {}], 0).rref() == ([], [])
    assert RatMatrix([], 4).rref() == ([], [])
    assert _matrix([[0, 3], [0, -6]]).rref() == ([1], [{1: 1}])
    for rows in ([[1, 2], [2, 4], [3, 6]], [[2, 4, 6], [1, 1, 1], [3, 5, 7]], [[0, 0, 0]] * 2 + [[0, 5, 1]]):
        _check_pivot_columns(rows)


def test_rref_and_kernel_basis_results_belong_to_the_caller():
    """Nothing is kept on a matrix: a caller that modifies what rref() or
    kernel_basis() returned leaves the next call's result unchanged.  The
    second matrix is already in reduced form, so its rows come out of the
    elimination untouched, and only a copy keeps them apart from the
    matrix's own."""
    for m in (_matrix([[2, 4, 6], [1, 1, 1], [3, 5, 7]]), _matrix([[1, 0, 2], [0, 1, 3]])):
        pivots, rows = m.rref()
        kernel = m.kernel_basis()
        expected = (list(pivots), [dict(row) for row in rows]), [dict(w) for w in kernel]
        pivots.append(2)
        rows[0][0] = 5
        rows.append({2: 1})
        kernel[0][2] = 9
        kernel.append({0: 1})
        assert (m.rref(), m.kernel_basis()) == expected
        assert m.rank() == 2


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


def _reference_primitive(row):
    """`row` over the gcd of its entries."""
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()}


def _reference_eliminate(row, piv, pc):
    """The step that divided the working row by its content after every
    elimination, the engine before kept rows were the only ones divided."""
    pv, rv = piv[pc], row[pc]
    g = math.gcd(pv, rv)
    a, b = pv // g, rv // g
    new = {c: a * v for c, v in row.items()}
    for c, w in piv.items():
        nv = new.get(c, 0) - b * w
        if nv:
            new[c] = nv
        else:
            del new[c]
    return _reference_primitive(new) if new else new


def _reference_echelon(rows, kept, limit=None):
    """That engine's forward pass over the primitive nonzero rows, onto
    `kept`: (kept, number of elimination steps)."""
    steps = 0
    for row in sorted((_reference_primitive(r) for r in rows if r), key=len):
        if limit is not None and len(kept) >= limit:
            break
        while row and (pc := min(row)) in kept:
            row = _reference_eliminate(row, kept[pc], pc)
            steps += 1
        if row:
            kept[pc] = row if row[pc] > 0 else {c: -v for c, v in row.items()}
    return kept, steps


def _reference_rref(rows):
    """That engine's rref: ((pivots, rows), number of elimination steps)."""
    kept, steps = _reference_echelon(rows, {})
    pivots = sorted(kept)
    for k, pc in reversed(list(enumerate(pivots))):
        for qc in pivots[:k]:
            if pc in kept[qc]:
                kept[qc] = _reference_eliminate(kept[qc], kept[pc], pc)
                steps += 1
    return (pivots, [kept[c] for c in pivots]), steps


_SCALES = (1, 1, -1, 12, -30, 7**25, -(2**70) * 3)


def _dependent_rows(rng, nrows, ncols):
    """Sparse integer rows, most of them combinations of a few random ones,
    each times a common factor that is often large."""
    base = [
        {c: rng.choice([-9, -4, -1, 1, 2, 5, 8]) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        for _ in range(rng.randint(1, 4))
    ]
    rows = []
    for _ in range(nrows):
        row = {}
        for b in base if rng.random() < 0.7 else [dict(rng.choice(base))]:
            f = rng.randint(-2, 2)
            for c, v in b.items():
                row[c] = row.get(c, 0) + f * v
        scale = rng.choice(_SCALES)
        rows.append({c: scale * v for c, v in row.items() if v})
    return rows


@st.composite
def _scaled_dependent_rows(draw, ncols):
    """Integer combinations of at most four dense rows, each times a common
    factor from _SCALES."""
    base = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
        scale = draw(st.sampled_from(_SCALES))
        combined = (scale * sum(f * b[c] for f, b in zip(coeffs, base)) for c in range(ncols))
        rows.append({c: v for c, v in enumerate(combined) if v})
    return rows


def _check_against_reference_engine(rows, ncols, seed_rows):
    """The engine keeps what the one that divided after every step kept,
    in as many `_eliminate` calls: the forward pass at every limit up to
    the rank, the pass from an echelon seed, and rref."""
    m = RatMatrix(rows, ncols)
    steps = []
    eliminate = ratlinalg._eliminate

    def counted(*args):
        steps.append(args)
        return eliminate(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratlinalg, "_eliminate", counted)
        rank = m.rank()
        for limit in (None, *range(rank + 1)):
            expected, expected_steps = _reference_echelon(rows, {}, limit)
            steps.clear()
            assert ratlinalg._echelon_rows(m.row_dicts(), {}, limit) == expected, limit
            assert len(steps) == expected_steps, limit
            assert m.leading_columns(limit) == sorted(expected), limit
        seed, _ = _reference_echelon(seed_rows, {})
        expected, expected_steps = _reference_echelon(rows, dict(seed))
        steps.clear()
        assert (m.extend_echelon(dict(seed)), len(steps)) == (expected, expected_steps)
        expected, expected_steps = _reference_rref(rows)
        steps.clear()
        assert (m.rref(), len(steps)) == (expected, expected_steps)


@pytest.mark.parametrize("seed", range(20))
def test_the_engine_keeps_what_dividing_after_every_step_kept(seed):
    rng = random.Random(400 + seed)
    ncols = rng.randint(1, 9)
    _check_against_reference_engine(
        _dependent_rows(rng, rng.randint(0, 12), ncols), ncols, _dependent_rows(rng, rng.randint(0, 5), ncols)
    )


@given(
    st.integers(1, 7).flatmap(
        lambda ncols: st.tuples(_scaled_dependent_rows(ncols), st.just(ncols), _scaled_dependent_rows(ncols))
    )
)
@settings(max_examples=150, deadline=None)
def test_the_engine_keeps_what_dividing_after_every_step_kept_property(case):
    _check_against_reference_engine(*case)


@pytest.mark.parametrize("seed", range(12))
def test_no_elimination_writes_a_matrix_row_or_a_seed_row(seed):
    """A pass owns a working row only from that row's first step on, so
    the matrix's rows and the seed's rows read the same after every call,
    also where a row is kept untouched or cancelled with a factor of 1."""
    rng = random.Random(500 + seed)
    ncols = rng.randint(2, 8)
    rows = [{0: 1, 1: 1}, {0: 1, 1: 2}] + _dependent_rows(rng, rng.randint(2, 10), ncols)
    m = RatMatrix(rows, ncols)
    seed_rows, _ = _reference_echelon(_dependent_rows(rng, 4, ncols), {})
    before = copy.deepcopy((m.row_dicts(), seed_rows))
    m.rank()
    for limit in (None, *range(m.rank() + 1)):
        m.leading_columns(limit)
    grown = m.extend_echelon(dict(seed_rows))
    m.rref()
    m.kernel_basis()
    assert (m.row_dicts(), seed_rows) == before
    assert all(grown[pc] is row for pc, row in seed_rows.items())


def test_a_report_divides_each_kept_row_by_its_content_once(monkeypatch):
    """At ps6-ms (2,3) d=5 the content is divided out once per row a
    forward pass keeps, plus once per row the back-substitution changes,
    and the elimination takes 1418 steps.  It took 2625, the same count as
    when every step divided, before each vertex stack stopped at dim
    (m_v^(t+1))_d."""
    counts = Counter()
    primitive, eliminate = ratlinalg._primitive, ratlinalg._eliminate
    forward, rref = ratlinalg._echelon_rows, RatMatrix.rref

    def counted_primitive(*args):
        counts["divided"] += 1
        return primitive(*args)

    def counted_eliminate(*args):
        counts["steps"] += 1
        return eliminate(*args)

    def counted_forward(rows, kept, *args):
        before = len(kept)
        kept = forward(rows, kept, *args)
        counts["kept"] += len(kept) - before
        return kept

    def counted_rref(self):
        pivots, rows = rref(self)
        kept, _ = _reference_echelon(self.row_dicts(), {})
        counts["changed"] += sum(kept[pc] != row for pc, row in zip(pivots, rows))
        return pivots, rows

    monkeypatch.setattr(ratlinalg, "_primitive", counted_primitive)
    monkeypatch.setattr(ratlinalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(ratlinalg, "_echelon_rows", counted_forward)
    monkeypatch.setattr(RatMatrix, "rref", counted_rref)
    split = powell_sabin_6split(builtin_mesh("morgan-scott"), 2, 3)
    euler_assembly(split.refined, split.spec, 5)
    assert counts["changed"] > 0
    assert counts["divided"] == counts["kept"] + counts["changed"]
    assert counts["steps"] == 1418


@pytest.mark.parametrize(
    "base, r, s, d", [("morgan-scott", 2, 3, 4), ("morgan-scott", 3, 4, 5), ("two-triangles", 1, 2, 3)]
)
def test_vertex_pivots_are_the_leading_monomials_of_the_stacked_edge_pieces(base, r, s, d):
    """Each vertex's full pivots are the leading columns of its ideal's
    degree-d piece, whatever elimination found them: the forward pass
    alone, the stack's rref, and the Fraction loop on the stacked
    generator-times-monomial rows of v's edges.  At ps6-ms (3,4) d=5 five
    of the 19 vertices have full < bar.  The tilde stacks are read only as
    counts, so their count is that loop's pivot count."""
    split = powell_sabin_6split(builtin_mesh(base), r, s)
    mesh, spec = split.refined, split.spec
    sys = EdgePieces(mesh, spec, d).system(d)
    assert sorted(sys.full_pivots) == sorted(sys.tilde) == sorted(mesh.interior_vertices)

    def reference_pivots(v, variant):
        pieces = (
            graded_piece_matrix(edge_ideal_for(mesh, spec, e).generators, d)
            for e in vertex_ideal_edges(mesh, v, variant)
        )
        stacked = RatMatrix([row for m in pieces for row in m.row_dicts()], sys.ncoef)
        return _rref_by_fraction_loop(stacked)[0]

    for v, cols in sys.full_pivots.items():
        stacked = RatMatrix([row for e in vertex_ideal_edges(mesh, v, "full") for row in sys.bases[e]], sys.ncoef)
        assert cols == reference_pivots(v, "full") == stacked.rref()[0], v
        assert len(cols) == sys.full[v]
        assert sys.tilde[v] == len(reference_pivots(v, "tilde")), v


def _rank_mod_by_dense_elimination(rows, p):
    """Reference rank mod p: dense Gaussian elimination over the integers mod p."""
    mat = [[v % p for v in row] for row in _cleared(rows)]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv
            mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


PRIMES = (3, 5, 7, 32749)


@given(
    st.integers(0, 7).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-30, 30), min_size=ncols, max_size=ncols), max_size=8
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_rank_mod_p_is_the_dense_mod_p_rank_and_at_most_the_rank(rows):
    """The modular pass can only understate the rank over Q, so a modular
    rank equal to the row count proves full row rank."""
    m = _matrix(rows)
    for p in PRIMES:
        low = m.rank_mod(p)
        assert low == _rank_mod_by_dense_elimination(rows, p) <= m.rank() <= m.nrows, p
        assert low < m.nrows or m.rank() == m.nrows
    assert m.rank_mod() == m.rank_mod(32749)


@given(st.integers(1, 6), st.integers(0, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rank_mod_p_is_full_on_full_row_rank_matrices_with_unit_minors(nrows, extra, rng):
    """[I | A], mixed by unimodular row operations and a column shuffle, has
    an invertible minor of determinant 1, so it has full row rank mod every
    prime; entries stay large, so the modular reduction does real work."""
    ncols = nrows + extra
    rows = [[int(i == j) for j in range(nrows)] + [rng.randint(-9, 9) for _ in range(extra)] for i in range(nrows)]
    for _ in range(3 * nrows):
        i, j = rng.sample(range(nrows), 2) if nrows > 1 else (0, 0)
        if i != j:
            k = rng.randint(-40000, 40000)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    order = rng.sample(range(ncols), ncols)
    m = RatMatrix([{c: row[order[c]] for c in range(ncols) if row[order[c]]} for row in rows], ncols)
    for p in PRIMES:
        assert m.rank_mod(p) == m.rank() == nrows, p


def test_rank_mod_p_understates_a_rank_only_the_prime_divides():
    m = _matrix([[3, 6], [1, 5]])  # determinant 9
    assert m.rank() == 2
    assert [m.rank_mod(p) for p in PRIMES] == [1, 2, 2, 2]
    assert _matrix([[0, 0], [0, 0]]).rank_mod(3) == RatMatrix([], 3).rank_mod() == 0


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
    assert rational_from_str("1.00000000000000001") == Fraction(10**17 + 1, 10**17)
    assert rational_from_str("1E-400") == Fraction(1, 10**400)
    assert rational_from_str("-25e-0_0002") == Fraction(-1, 4)


@pytest.mark.parametrize("text", ["1e10000", "1E+99999", "2.5e-1_0000", "1e0000012345"])
def test_a_decimal_exponent_of_five_digits_is_refused(text):
    # Fraction would first build 10**exponent, a hang for large exponents
    with pytest.raises(ValueError, match="decimal exponent out of range"):
        rational_from_str(text)
