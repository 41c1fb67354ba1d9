"""A definition-level reference for the superspline dimension.

The space is built from its definition alone: one bivariate polynomial of
degree <= d per triangle, and across each interior edge e the difference h
of its two triangles' polynomials vanishes to order r_e + 1 along the edge
and to order s_v + 1 at each end point v.  h vanishes to order k + 1 at a
point exactly when all its partials of order <= k vanish there.  A partial
of order i <= r_e has degree <= d - i, so it vanishes on the edge's line
exactly when it vanishes at d + 1 distinct points of it, and all of them
vanish on the line exactly when the line's form to the power r_e + 1
divides h.  The raw s_v is used: where s_v <= r_e the vertex rows follow
from the edge rows.

Nothing here reads the package's edge ideals, frame forms, exponents,
clamped orders or edge pieces, so a fault there that moves the kernel
oracle and the Euler assembly together still shows.  The rows are values
of the monomials' partials at rational points, scaled to integers and
ranked exactly with `RatMatrix.rank`.  A few cases are also ranked by a
plain elimination over `Fraction` written here, so that one check shares
no elimination code with the package either.
"""

import random
from fractions import Fraction
from math import lcm, perm

import pytest

from splinedim.cli import builtin_mesh
from splinedim.dimension import exact_dimension
from splinedim.mesh import SmoothnessSpec
from splinedim.ratlinalg import RatMatrix
from splinedim.refine import powell_sabin_6split


def _partials_at(monomials, order, point):
    """Each partial of order <= `order`, as its values at `point` on the
    monomials x^i y^j, scaled to integers."""
    x, y = point
    for k in range(order + 1):
        for a in range(k + 1):
            b = k - a
            values = [
                perm(i, a) * perm(j, b) * x ** (i - a) * y ** (j - b) if i >= a and j >= b else 0
                for i, j in monomials
            ]
            scale = lcm(*(Fraction(v).denominator for v in values))
            yield [int(v * scale) for v in values]


def _package_rank(rows, ncols):
    return RatMatrix(rows, ncols).rank()


def _fraction_rank(rows, ncols):
    """Rank by Gaussian elimination over `Fraction`: each row is reduced at
    its least column by the kept row with 1 there until it vanishes or is
    kept, scaled to 1 at that column."""
    kept = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items()}
        while row:
            c = min(row)
            if c not in kept:
                kept[c] = {k: v / row[c] for k, v in row.items()}
                break
            f = row[c]
            for k, v in kept[c].items():
                if w := row.get(k, 0) - f * v:
                    row[k] = w
                else:
                    row.pop(k, None)
    assert all(0 <= c < ncols for c in kept)
    return len(kept)


def definition_dimension(mesh, spec, d, rank=_package_rank):
    """The superspline dimension, as the number of unknowns minus the rank
    of the edge and vertex conditions on the triangles' differences."""
    monomials = [(i, k - i) for k in range(d + 1) for i in range(k + 1)]
    n = len(monomials)
    rows = []
    for e in sorted(mesh.interior_edges):
        ta, tb = mesh.edge_triangles[e]
        p1, p2 = ([Fraction(c) for c in mesh.vertices[v]] for v in e)
        line = [[q + t * (p - q) for p, q in zip(p1, p2)] for t in range(d + 1)]
        conditions = [(point, spec.r[e]) for point in line]
        conditions += [(p1, spec.s[e[0]]), (p2, spec.s[e[1]])]
        for point, order in conditions:
            for values in _partials_at(monomials, order, point):
                row = {}
                for c, v in enumerate(values):
                    if v:
                        row[ta * n + c], row[tb * n + c] = v, -v
                rows.append(row)
    unknowns = mesh.num_triangles * n
    return unknowns - rank(rows, unknowns)


def _configs():
    """(name, mesh, spec, degrees): uniform and seeded mixed specs on
    Morgan-Scott, two stars, and the 6-split with its induced spec."""
    mesh = builtin_mesh("morgan-scott")
    for r, s in ((0, 0), (1, 1), (1, 2)):
        yield f"morgan-scott ({r},{s})", mesh, SmoothnessSpec.uniform(mesh, r, s), range(6)
    for name in ("star:cross", "star:3-generic"):
        star = builtin_mesh(name)
        yield f"{name} (1,2)", star, SmoothnessSpec.uniform(star, 1, 2), range(7)
    rng = random.Random(5)
    for k in range(3):
        r = {e: rng.randint(0, 2) for e in mesh.interior_edges}
        s = {v: rng.randint(0, 3) for v in range(mesh.num_vertices)}
        yield f"morgan-scott mixed {k}", mesh, SmoothnessSpec(mesh, r, s), range(6)
    split = powell_sabin_6split(mesh, 1, 2)
    yield "ps6:morgan-scott (1,2)", split.refined, split.spec, range(5)


CONFIGS = list(_configs())


@pytest.mark.parametrize("name, mesh, spec, degrees", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_the_kernel_oracle_equals_the_definition(name, mesh, spec, degrees):
    for d in degrees:
        assert exact_dimension(mesh, spec, d) == definition_dimension(mesh, spec, d), (name, d)


def test_the_mixed_specs_have_vertex_orders_below_and_above_their_edges():
    """The raw s_v meets both cases: implied by an edge's order, and beyond it."""
    below = above = 0
    for name, _, spec, _ in CONFIGS:
        if "mixed" in name:
            below += any(spec.s[v] < k for e, k in spec.r.items() for v in e)
            above += any(spec.s[v] > k for e, k in spec.r.items() for v in e)
    assert below == above == 3


@pytest.mark.parametrize(
    "name, r, s, d, expected",
    [("morgan-scott", 1, 1, 2, 7), ("two-triangles", 1, 2, 5, 29), ("star:3-generic", 1, 2, 4, 18)],
)
def test_a_plain_fraction_elimination_gives_the_same_dimension(name, r, s, d, expected):
    """Morgan-Scott (1,1) d=2 has one spline more than LB5.2 gives, at its
    symmetric position; the two triangles at (1,2) d=5 are Argyris's."""
    mesh = builtin_mesh(name)
    spec = SmoothnessSpec.uniform(mesh, r, s)
    assert definition_dimension(mesh, spec, d, _fraction_rank) == exact_dimension(mesh, spec, d) == expected
