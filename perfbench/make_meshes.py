"""Benchmark set-up: build, transform, validate and write a workload's meshes.

usage: python3 perfbench/make_meshes.py --workload NAME --seed N --out DIR

Writes DIR/<job>.json for every job of the workload, in the CLI's mesh JSON
schema with the smoothness block, and DIR/oracle.json with the exact
dimensions the closed forms give at each job's degrees.  The closed forms
(ps_dim_general on the unsplit mesh, vertex_star_dim on a star) share no
code with the kernel oracle the jobs run, so they cross-check its answers.
Needs the package on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from splinedim.cli import builtin_mesh
from splinedim.dimension import (
    OutOfRangeError,
    ps_dim_general,
    star_smoothness_spec,
    vertex_star_dim,
)
from splinedim.mesh import Mesh, mesh_to_json, validate_disk
from splinedim.refine import powell_sabin_6split

from workloads import WORKLOADS, affine_map


def transform(mesh: Mesh, seed: int) -> Mesh:
    a, b, c, d = affine_map(seed)
    points = [(a * x + b * y, c * x + d * y) for x, y in mesh.vertices]
    return Mesh(points, mesh.triangles)


def build(job, seed: int):
    """(mesh, smoothness spec, closed form d -> exact dimension) of a job."""
    base = transform(builtin_mesh(job.base), seed)
    r, s = job.r, job.s
    if job.kind == "ps6":
        res = powell_sabin_6split(base, r, s)
        return res.refined, res.spec, lambda d: ps_dim_general(base, r, s, d)
    if job.kind == "ps6x2":
        first = powell_sabin_6split(base, r, s).refined
        res = powell_sabin_6split(first, r, s)
        return res.refined, res.spec, lambda d: ps_dim_general(first, r, s, d)
    if job.kind == "star":
        return base, star_smoothness_spec(base, r, s), lambda d: vertex_star_dim(base, r, s, d)
    raise ValueError(f"unknown mesh kind {job.kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    oracle: dict[str, dict[int, int]] = {}
    for job in WORKLOADS[args.workload]:
        mesh, smooth, closed_form = build(job, args.seed)
        report = validate_disk(mesh)
        if not report.ok:
            print(f"mesh {job.name} is not a disk: {report.failures}", file=sys.stderr)
            return 1
        doc = json.dumps(mesh_to_json(mesh, smooth), sort_keys=True)
        (out / f"{job.name}.json").write_text(doc + "\n")
        values = oracle[job.name] = {}
        for d in job.degrees():
            try:
                values[d] = closed_form(d)
            except OutOfRangeError:
                pass
    (out / "oracle.json").write_text(json.dumps(oracle, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
