"""A fixed pure-Python kernel that measures the machine's speed during a run.

On a shared machine the CPU speed one process sees drifts by 15-30% over
tens of seconds, so raw job times from two runs differ by more than any
change worth detecting.  run.py times this kernel in the harness process
before every job and after the last one, and divides each job's time by the
mean of the kernel's times just before and just after it (`wall_ref`,
`cpu_ref`).  The kernel does the same kind of work as splinedim, exact
sparse elimination over Python integers and `Fraction` arithmetic, but
shares no code with it, so a change to splinedim leaves it unchanged while
the machine's drift moves both.  Alternating star_hd's star5-2-4 job with
this kernel, each in a fresh process, for seven minutes cut the
interquartile spread of 17-second windows from 0.21 of the median (raw job
time) to 0.09 (job time over kernel time).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

RANK = 160  # rank of the kernel's matrix; run.py checks it on every call


def kernel() -> int:
    """Rank of a fixed sparse 160 x 160 integer matrix, plus a Fraction sum.

    0.8-1.3 s on a shared 2-core x86-64 machine with Python 3.11.
    """
    rng = random.Random(1)
    live = []
    for _ in range(160):
        row = {}
        for _ in range(12):
            row[rng.randrange(160)] = rng.randint(-9, 9) or 1
        live.append(row)
    rank = 0
    while live:
        live.sort(key=len)
        piv = live.pop(0)
        pc = min(piv)
        pv = piv[pc]
        rank += 1
        rest = []
        for row in live:
            rv = row.get(pc)
            if rv is None:
                rest.append(row)
                continue
            g = gcd(pv, rv)
            a, b = pv // g, rv // g
            new = {}
            for c, v in row.items():
                w = piv.get(c)
                nv = a * v - b * w if w is not None else a * v
                if nv:
                    new[c] = nv
            for c, w in piv.items():
                if c not in row:
                    new[c] = -b * w
            new.pop(pc, None)
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                rest.append({c: v // g for c, v in new.items()})
        live = rest
    total = Fraction(0)
    for i in range(1, 20000):
        total += Fraction(1, i) * Fraction(i % 7, 3)
    return rank
