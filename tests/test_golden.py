"""Byte-for-byte golden output of the command line.

Each command's standard output is pinned in `tests/golden/<name>.out`.  The
files change only when an output is meant to change; regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.  The meshes are small so the whole set runs in seconds.
"""

import io
import sys
from pathlib import Path

import pytest

from splinedim.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_DIM_SOURCE = ["--gen", "ps6:triangle", "-r", "1", "-s", "2", "--degrees", "2:4"]
_MS = ["--gen", "morgan-scott", "-r", "1", "-s", "2"]

COMMANDS: dict[str, list[str]] = {}
for _method in ("exact", "lb51", "lb52", "ub53", "formula", "all"):
    for _fmt in ("text", "csv", "json"):
        COMMANDS[f"dim_{_method}_{_fmt}"] = (
            ["dim", *_DIM_SOURCE, "--method", _method, "--format", _fmt]
        )
COMMANDS["dim_formula_star_csv"] = [
    "dim", "--gen", "star:4-generic", "-r", "1", "--degrees", "1:4",
    "--method", "formula", "--format", "csv",
]
COMMANDS["dim_all_morgan_scott_check"] = [
    "dim", *_MS, "--degrees", "3:5", "--check",
]
# uniform specs: LB5.2 across the whole range, below and above s+1
COMMANDS["dim_lb52_morgan_scott"] = ["dim", *_MS, "--degrees", "0:8", "--method", "lb52"]
COMMANDS["dim_lb52_star_cross"] = [
    "dim", "--gen", "star:cross", "-r", "1", "-s", "3", "--degrees", "0:8", "--method", "lb52",
]
for _fmt in ("text", "csv", "json"):
    COMMANDS[f"table_{_fmt}"] = [
        "table", "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3", "--degrees", "4:5",
        "--check", "--format", _fmt,
    ]
for _fmt in ("text", "json"):
    COMMANDS[f"ideal_canonical_{_fmt}"] = [
        "ideal", "--canonical", "-r", "1", "-s", "2", "--s2", "3", "--degrees", "3:6",
        "--format", _fmt,
    ]
    COMMANDS[f"ideal_edge_{_fmt}"] = [
        "ideal", *_MS, "--edge", "3,4", "--degrees", "3:5", "--format", _fmt,
    ]
    for _variant in ("full", "bar", "tilde"):
        COMMANDS[f"ideal_vertex_{_variant}_{_fmt}"] = [
            "ideal", *_MS, "--vertex", "3", "--variant", _variant, "--degrees", "4:6",
            "--format", _fmt,
        ]
COMMANDS["gen_morgan_scott"] = ["gen", "--gen", "morgan-scott"]
COMMANDS["gen_ps6_two_triangles"] = ["gen", "--gen", "ps6:two-triangles", "-r", "1", "-s", "2"]
COMMANDS["refine_morgan_scott"] = ["refine", "--gen", "morgan-scott", "-r", "2", "-s", "3"]
COMMANDS["validate_text"] = ["validate", "--gen", "ps6:morgan-scott", "-r", "1", "-s", "2"]
COMMANDS["validate_json"] = ["validate", "--gen", "star:5-generic", "--format", "json"]


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0, f"exit code {code} for {argv}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert _run(COMMANDS[name]) == expected


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.out")) == sorted(COMMANDS)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(COMMANDS.items()):
        (GOLDEN_DIR / f"{name}.out").write_text(_run(argv), encoding="utf-8")
        print(f"wrote {name}.out", file=sys.stderr)
