"""Tests of the benchmark itself: golden rows, oracles, seeds and tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
(about a minute; the seed-0 byte check runs the three table2 jobs twice).
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import make_meshes  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, affine_map  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _acceptance_module():
    spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "splinedim.cli", *args], env=ENV, capture_output=True, check=True
    )


def test_table2_golden_rows_match_the_reference_table():
    acc = _acceptance_module()
    seen = set()
    for job in WORKLOADS["table2"]:
        for d, h0, lb52, lb51, _ub53, exact, _method in job.golden:
            key = (job.r, job.s, d)
            expected = acc.GEOMETRY_SENSITIVE_OVERRIDES.get(key, acc.TABLE2[key])
            assert (h0, lb52, lb51, exact) == expected, key
            seen.add(key)
    assert seen == set(acc.TABLE2)


@pytest.mark.parametrize("seed", [0, 7])
def test_closed_forms_agree_with_golden_rows(tmp_path, seed):
    covered = {}
    for name, jobs in WORKLOADS.items():
        out = tmp_path / name
        assert make_meshes.main(["--workload", name, "--seed", str(seed), "--out", str(out)]) == 0
        oracle = json.loads((out / "oracle.json").read_text())
        for job in jobs:
            exact = {row[0]: row[5] for row in job.golden}
            values = {int(d): v for d, v in oracle[job.name].items()}
            assert all(exact[d] == v for d, v in values.items()), job.name
            covered[job.name] = sorted(values)
    # ps_dim_general covers the stable rows (none at (3,4): it needs s >= 2r-1)
    assert covered["ps6-ms-2-3"] == [5, 6]
    assert covered["ps6-ms-3-4"] == []
    assert covered["ps6-ms-3-5"] == [8, 9]
    assert covered["ps6x2-ms-1-2"] == [5]
    assert WORKLOADS["ps6x2"][0].golden[0][5] == 1050
    assert covered["star8-3-6"] == list(range(12, 21))
    assert covered["star5-2-4"] == list(range(14, 19))


def test_affine_maps_are_sign_flips_and_seed_zero_is_the_identity():
    assert affine_map(0) == (1, 0, 0, 1)
    for seed in range(1, 50):
        a, b, c, d = affine_map(seed)
        assert (b, c) == (0, 0) and {a, d} <= {1, -1} and (a, d) != (1, 1)
        assert affine_map(seed) == (a, b, c, d)


def test_transformed_meshes_differ_from_canonical_ones(tmp_path):
    make_meshes.main(["--workload", "star_hd", "--seed", "0", "--out", str(tmp_path / "a")])
    make_meshes.main(["--workload", "star_hd", "--seed", "7", "--out", str(tmp_path / "b")])
    first = (tmp_path / "a" / "star8-3-6.json").read_text()
    assert first != (tmp_path / "b" / "star8-3-6.json").read_text()


def test_seed_zero_table2_jobs_print_the_bytes_of_the_generator_command(tmp_path):
    make_meshes.main(["--workload", "table2", "--seed", "0", "--out", str(tmp_path)])
    for job in WORKLOADS["table2"]:
        from_file = _cli(*job.argv(str(tmp_path / f"{job.name}.json"))).stdout
        literal = _cli(
            "table", "--gen", "ps6:morgan-scott", "-r", str(job.r), "-s", str(job.s),
            *job.args, "--format", "json",
        ).stdout
        assert from_file == literal, job.name


def _traced(tmp_path, name, *cli_args):
    out = tmp_path / f"{name}.json"
    subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(out), "cli", *cli_args],
        env=ENV, capture_output=True, check=True,
    )
    return json.loads(out.read_text())


def test_two_traced_runs_give_identical_counts(tmp_path):
    args = ("table", "--gen", "ps6:morgan-scott", "-r", "1", "-s", "2", "--degrees", "3:4", "--check")
    first = _traced(tmp_path, "first", *args)
    second = _traced(tmp_path, "second", *args)
    calls = lambda dump: {name: calls for name, (calls, _ns) in dump["spans"].items()}
    assert calls(first) == calls(second)
    for key in ("rank", "rref_distinct", "edge_ideal_distinct", "matrix_entries"):
        assert first[key] == second[key]


def test_wrappers_see_calls_made_through_every_importing_module(tmp_path):
    dump = _traced(tmp_path, "table", "table", "--gen", "ps6:morgan-scott", "-r", "1", "-s", "2", "-d", "3")
    calls = {name: calls for name, (calls, _ns) in dump["spans"].items()}
    # bound by name in dimension.py and cli.py, or called through self
    for name in (
        "ideals.edge_ideal_for", "ideals.vertex_ideal", "dimension.euler_assembly",
        "dimension.h0_dimension", "mesh.validate_disk", "mesh.vertex_ordering",
        "refine.powell_sabin_6split", "ratlinalg.rank", "ratlinalg.rref",
        "ratlinalg.kernel_basis", "ratlinalg.matrix_init", "ideals.graded_dim",
        "ideals.graded_piece_matrix", "polyring.power", "polyring.mul",
        "polyring.times_monomial", "cli.main",
    ):
        assert calls[name] > 0, name
    # _EdgeData calls rref, then kernel_basis calls it again through self
    assert calls["ratlinalg.rref"] == 2 * calls["ratlinalg.kernel_basis"]
    assert dump["rref_distinct"] <= calls["ratlinalg.kernel_basis"]
    for method in ("exact", "lb51", "lb52", "ub53"):
        dump = _traced(tmp_path, method, "dim", "--gen", "morgan-scott", "-r", "1", "-s", "2",
                       "-d", "4", "--method", method)
        name = {"exact": "exact_dimension", "lb51": "lower_bound_51",
                "lb52": "lower_bound_52", "ub53": "upper_bound_53"}[method]
        assert dump["spans"][f"dimension.{name}"][0] == 1


def test_per_layer_metrics_cover_the_benchmark_file(tmp_path):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracer.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    dump = _traced(tmp_path, "small", "dim", "--gen", "morgan-scott", "-r", "1", "-d", "3")
    metrics = tracer.per_layer_metrics(tracer.merge([dump, dump]), 0, 1.0)
    assert list(metrics) == [name for name, _, _ in tracer.PER_LAYER]
    assert metrics["ratlinalg.rank.calls"] == 2 * dump["spans"]["ratlinalg.rank"][0]


def test_reference_kernel_is_deterministic():
    assert reference.kernel() == reference.kernel() == reference.RANK


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
