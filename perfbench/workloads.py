"""Workload definitions for the splinedim benchmark.

This module imports nothing from splinedim, so the harness (run.py) can load
it without importing the program it measures.  It defines:

* the seeded integer affine map applied to every benchmark mesh,
* the meshes each workload writes during set-up,
* the CLI jobs each workload runs, one fresh process per job,
* the golden rows every job must print.

Affine maps leave every dimension, bound and homology value unchanged, so
the golden rows hold for every seed while the rational arithmetic changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COLUMNS = ("d", "h0", "lb52", "lb51", "ub53", "exact", "method")


def affine_map(seed: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) for the linear map p -> [[a, b], [c, d]] p.

    Seed 0 is the identity, so seed-0 meshes carry the canonical
    coordinates.  Any other seed draws one of the three sign flips
    (x -> -x, y -> -y, or both): integer entries of size 1, determinant +-1.
    A flip changes the signs of the matrices' entries but not their sizes or
    sparsity, so every seed does the same amount of work and the run-to-run
    spread is the machine's, not the input's (the traced counts of seed 0
    and seed 5 are identical).  Wider maps change the work itself: entries
    up to 2 give other entry sizes and pivot orders, and a translation moves
    a star's center off the origin, which makes every linear form dense and
    a star job more than five times slower (2-core machine, Python 3.11).
    """
    if seed == 0:
        return (1, 0, 0, 1)
    return random.Random(seed).choice(((-1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, -1)))


@dataclass(frozen=True)
class Job:
    """One CLI process on one mesh JSON written at set-up.

    The job runs `splinedim <command> --mesh <name>.json <args> --format json`
    and must print `golden`, rows in COLUMNS order.  Its mesh is the builtin
    mesh `base` under the seed's map, then, by `kind`:

    * "ps6": its 6-split with orders (r, s) and the induced spec;
    * "ps6x2": the 6-split of its 6-split, both with (r, s), and the second
      split's induced spec;
    * "star": the star itself with order r on every edge and supersmoothness
      s at the center only.
    """

    name: str
    kind: str
    base: str
    r: int
    s: int
    command: str
    args: tuple[str, ...]
    golden: tuple[tuple, ...]

    def argv(self, mesh_path: str) -> list[str]:
        return [self.command, "--mesh", mesh_path, *self.args, "--format", "json"]

    def degrees(self) -> list[int]:
        return [row[0] for row in self.golden]


def _rows(*rows) -> tuple[tuple, ...]:
    return tuple(tuple(row) + ("exact",) for row in rows)


# Stars at these degrees have no homology and all bounds are tight.
STAR8_3_6 = (340, 420, 508, 604, 708, 820, 940, 1068, 1204)
STAR5_2_4 = (390, 455, 525, 600, 680)

# Golden rows (d, h0, lb52, lb51, ub53, exact), pinned from the program at
# seed 0.  h0, lb52, lb51 and exact of table2 are the reference table's values
# (with the documented H0 = 14 at (3,4,5)); perfbench/tests checks them
# against tests/test_acceptance.py and against the closed forms.
WORKLOADS = {
    "table2": (
        Job(
            "ps6-ms-2-3", "ps6", "morgan-scott", 2, 3,
            "table", ("--degrees", "4:6", "--check"),
            _rows((4, 9, 15, 15, 22, 16), (5, 0, 67, 67, 76, 67), (6, 0, 160, 160, 166, 160)),
        ),
        Job(
            "ps6-ms-3-4", "ps6", "morgan-scott", 3, 4,
            "table", ("--degrees", "5:7", "--check"),
            _rows((5, 14, 21, 21, 28, 22), (6, 0, 54, 54, 75, 54), (7, 0, 138, 138, 156, 138)),
        ),
        Job(
            "ps6-ms-3-5", "ps6", "morgan-scott", 3, 5,
            "table", ("--degrees", "7:9", "--check"),
            _rows((7, 1, 42, 42, 75, 43), (8, 0, 147, 147, 165, 147), (9, 0, 285, 285, 297, 285)),
        ),
    ),
    "ps6x2": (
        Job(
            "ps6x2-ms-1-2", "ps6x2", "morgan-scott", 1, 2,
            "dim", ("-d", "5", "--method", "all", "--check"),
            _rows((5, 0, 1050, 1050, 1050, 1050)),
        ),
    ),
    "star_hd": (
        Job(
            "star8-3-6", "star", "star:8-generic", 3, 6,
            "table", ("--degrees", "12:20", "--check"),
            _rows(*((d, 0, v, v, v, v) for d, v in zip(range(12, 21), STAR8_3_6))),
        ),
        Job(
            "star5-2-4", "star", "star:5-generic", 2, 4,
            "table", ("--degrees", "14:18", "--check"),
            _rows(*((d, 0, v, v, v, v) for d, v in zip(range(14, 19), STAR5_2_4))),
        ),
    ),
}
