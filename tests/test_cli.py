"""Tests for the command-line interface."""

import io
import json

import pytest

import splinedim.cli
import splinedim.dimension
from splinedim.cli import builtin_mesh, main
from splinedim.dimension import (
    EdgePieces,
    InternalInconsistencyError,
    _DegreeSystem,
    euler_assembly,
    h0_dimension,
    star_smoothness_spec,
)
from splinedim.mesh import SmoothnessSpec, mesh_to_json
from splinedim.refine import morgan_scott_mesh, powell_sabin_6split


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_dim_single_triangle_exact():
    code, text = run(["dim", "--gen", "triangle", "-r", "1", "-s", "2", "-d", "4",
                      "--method", "exact"])
    assert code == 0
    assert "15" in text.split()


def test_dim_two_triangles_argyris():
    code, text = run(["dim", "--gen", "two-triangles", "-r", "1", "-s", "2", "-d", "5",
                      "--method", "exact", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "d,h0,lb52,lb51,ub53,exact,method"
    assert lines[1].split(",")[5] == "29"


def test_dim_ps6_morgan_scott_all():
    code, text = run(["dim", "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3",
                      "-d", "5", "--method", "all", "--format", "csv", "--check"])
    assert code == 0
    row = text.strip().splitlines()[1].split(",")
    assert row[:5] == ["5", "0", "67", "67", "76"]
    assert row[5] == "67"


def test_dim_star_formula():
    code, text = run(["dim", "--gen", "star:4-generic", "-r", "1", "-d", "2",
                      "--method", "formula", "--format", "csv"])
    assert code == 0
    row = text.strip().splitlines()[1].split(",")
    assert row[5] == "7"
    assert row[6] == "formula"


def test_dim_formula_fallback_to_oracle():
    # d below the closed-form range: the CLI falls back and labels it
    code, text = run(["dim", "--gen", "ps6:triangle", "-r", "1", "-s", "2", "-d", "2",
                      "--method", "formula", "--format", "csv"])
    assert code == 0
    row = text.strip().splitlines()[1].split(",")
    assert row[6] == "oracle"


def test_dim_formula_star_with_s_at_every_vertex_uses_the_oracle():
    # -s applies at every vertex here, outside the star closed form
    args = ["dim", "--gen", "star:5-generic", "-r", "2", "-s", "4", "-d", "14", "--format", "csv"]
    code, text = run([*args, "--method", "formula"])
    assert code == 0
    assert text.strip().splitlines()[1].split(",")[5:] == ["375", "oracle"]
    code, text = run([*args, "--method", "exact"])
    assert text.strip().splitlines()[1].split(",")[5:] == ["375", "exact"]


def test_dim_formula_star_with_s_at_the_center_only(tmp_path):
    star = builtin_mesh("star:5-generic")
    path = tmp_path / "star.json"
    path.write_text(json.dumps(mesh_to_json(star, star_smoothness_spec(star, 2, 4))))
    args = ["dim", "--mesh", str(path), "-d", "14", "--format", "csv"]
    code, text = run([*args, "--method", "formula"])
    assert code == 0
    assert text.strip().splitlines()[1].split(",")[5:] == ["390", "formula"]
    code, text = run([*args, "--method", "exact"])
    assert text.strip().splitlines()[1].split(",")[5:] == ["390", "exact"]


@pytest.mark.parametrize("r, s, label", [(2, 4, "formula"), (2, 1, "oracle")])
def test_dim_formula_on_a_center_only_star_labels_every_degree(tmp_path, r, s, label):
    """The star closed form answers every degree of a center-only spec,
    below s + 1 too; a center order below r is outside it, so the kernel
    oracle answers.  Both agree with `--method exact` and pass `--check`."""
    star = builtin_mesh("star:5-generic")
    path = tmp_path / "star.json"
    path.write_text(json.dumps(mesh_to_json(star, star_smoothness_spec(star, r, s))))
    args = ["dim", "--mesh", str(path), "--degrees", "0:6", "--format", "json"]
    code, text = run([*args, "--method", "formula", "--check"])
    assert code == 0
    rows = json.loads(text)["rows"]
    assert [row["method"] for row in rows] == [label] * 7
    code, text = run([*args, "--method", "exact"])
    assert [row["exact"] for row in rows] == [row["exact"] for row in json.loads(text)["rows"]]


def test_dim_formula_refuses_a_mesh_with_no_closed_form(capsys):
    argv = ["dim", "--gen", "morgan-scott", "-r", "1", "-s", "2", "-d", "4", "--method", "formula"]
    assert run(argv) == (1, "")
    assert capsys.readouterr().err.strip() == "error: no closed formula applies to this configuration"


def test_dim_formula_refuses_a_star_that_winds_twice_around_its_center(tmp_path, capsys):
    """One interior vertex whose five triangles wind twice around it: not a
    disk, so the star closed form refuses it as the kernel oracle does."""
    vertices = [[0, 0], [4, 0], [-4, 3], [1, -3], [1, 3], [-4, -3]]
    triangles = [[0, k, k % 5 + 1] for k in range(1, 6)]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"vertices": vertices, "triangles": triangles}))
    errors = []
    for method in ("exact", "formula"):
        assert run(["dim", "--mesh", str(path), "-r", "1", "-d", "3", "--method", method]) == (1, "")
        errors.append(capsys.readouterr().err)
    assert errors == ["error: mesh is not a valid disk: simple boundary\n"] * 2


def test_table_rows_and_check():
    code, text = run(["table", "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3",
                      "--degrees", "4:6", "--format", "csv", "--check"])
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    got = [(int(r[1]), int(r[2]), int(r[3]), int(r[5])) for r in rows]
    assert got == [(9, 15, 15, 16), (0, 67, 67, 67), (0, 160, 160, 160)]


def test_table_json_is_sorted_and_stable():
    code, text = run(["table", "--gen", "triangle", "-r", "0", "--degrees", "0:2",
                      "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert [row["exact"] for row in data["rows"]] == [1, 3, 6]
    assert text == json.dumps(data, sort_keys=True) + "\n"


def test_table_json_rows_carry_the_euler_terms_and_text_does_not():
    source = ["--gen", "ps6:morgan-scott", "-r", "2", "-s", "3", "--degrees", "4:5"]
    code, text = run(["table", *source, "--format", "json"])
    assert code == 0
    for row in json.loads(text)["rows"]:
        n = (row["d"] + 2) * (row["d"] + 1) // 2
        assert row["term_polys"] == 42 * n
        assert row["exact"] == n + row["term_edges"] - row["term_vertices_full"] + row["h0"]
        assert row["lb51"] == max(n + row["term_edges"] - row["term_vertices_full"], n)
        assert row["lb52"] == max(n + row["term_edges"] - row["term_vertices_bar"], n)
        assert row["ub53"] == n + row["term_edges"] - row["term_vertices_tilde"]
    for fmt in ("text", "csv"):
        code, text = run(["table", *source, "--format", fmt])
        assert "term" not in text
    code, text = run(["dim", *source, "--method", "lb51", "--format", "json"])
    assert "term" not in text


def test_ideal_canonical_dump():
    code, text = run(["ideal", "--canonical", "-r", "1", "-s", "2",
                      "--degrees", "3:5", "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert data["dims"] == {"3": 1, "4": 4, "5": 8}
    exps = [t["exp"] for g in data["ideal"]["generators"] for t in g["terms"]]
    assert [3, 0, 0] in exps and [2, 1, 1] in exps


def test_ideal_vertex_variants():
    for variant in ("full", "bar", "tilde"):
        code, text = run(["ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2",
                          "--vertex", "3", "--variant", variant, "-d", "6"])
        assert code == 0
        assert "vertex ideal" in text


def test_ideal_edge_selector():
    code, text = run(["ideal", "--gen", "morgan-scott", "-r", "1", "-s", "1",
                      "--edge", "3,4", "-d", "3"])
    assert code == 0
    assert "dim at degree 3" in text


def test_gen_round_trip(tmp_path):
    code, text = run(["gen", "--gen", "ps6:two-triangles", "-r", "1", "-s", "2"])
    assert code == 0
    path = tmp_path / "mesh.json"
    path.write_text(text)
    code1, t1 = run(["dim", "--mesh", str(path), "-d", "4", "-r", "1",
                     "--method", "all", "--format", "csv"])
    code2, t2 = run(["dim", "--gen", "ps6:two-triangles", "-r", "1", "-s", "2",
                     "-d", "4", "--method", "all", "--format", "csv"])
    assert code1 == code2 == 0
    assert t1 == t2


def test_refine_emits_split_mesh():
    code, text = run(["refine", "--gen", "triangle", "-r", "1", "-s", "2"])
    assert code == 0
    data = json.loads(text)
    assert len(data["triangles"]) == 6
    assert "smoothness" in data


def test_validate_builtin():
    code, text = run(["validate", "--gen", "morgan-scott"])
    assert code == 0
    assert "valid disk" in text
    assert "f1°=9" in text


def test_validate_bad_mesh(tmp_path):
    doc = {
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
        "triangles": [[0, 1, 2], [0, 3, 4]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, text = run(["validate", "--mesh", str(path)])
    assert code == 1


def test_validate_rejects_a_zero_denominator_coordinate(tmp_path, capsys):
    doc = mesh_to_json(builtin_mesh("triangle"))
    doc["vertices"][1] = ["1/0", "0"]
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", "--mesh", str(path)]) == (1, "")
    assert capsys.readouterr().err.startswith("error: malformed mesh document: ")


def test_validate_rejects_an_integer_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"vertices": [[0, 0], [1, 0], [%s, 1]], "triangles": [[0, 1, 2]]}' % ("1" * 5000))
    assert run(["validate", "--mesh", str(path)]) == (1, "")
    assert capsys.readouterr().err.startswith("error: malformed mesh document: ")


_TWO_TRIANGLES_AT = '{"vertices": [[0, 0], [1, 0], [0, 1], [%s, 1]], "triangles": [[0, 1, 2], [1, 3, 2]]}'


def test_json_numbers_with_a_fraction_or_exponent_are_read_exactly(tmp_path, capsys):
    # a binary float would read the first as 1 and the second as 0, a duplicate of (0, 1)
    path = tmp_path / "m.json"
    path.write_text(_TWO_TRIANGLES_AT % "1.00000000000000001")
    code, text = run(["gen", "--mesh", str(path)])
    assert code == 0
    assert json.loads(text)["vertices"][3] == ["100000000000000001/100000000000000000", "1"]
    path.write_text(_TWO_TRIANGLES_AT % "1e-400")
    code, text = run(["validate", "--mesh", str(path)])
    assert (code, text.split(" (")[0]) == (0, "valid disk")
    assert json.loads(run(["gen", "--mesh", str(path)])[1])["vertices"][3][0] == f"1/{10**400}"
    # an exponent too large to expand is a malformed document, not a hang
    for number in ("1e99999", '"1E+99999"'):
        path.write_text(_TWO_TRIANGLES_AT % number)
        assert run(["validate", "--mesh", str(path)]) == (1, "")
        assert "decimal exponent out of range" in capsys.readouterr().err


def test_exit_code_one_on_bad_args():
    assert run(["dim", "--gen", "nope", "-r", "1", "-d", "2"])[0] == 1
    assert run(["dim", "--gen", "triangle", "-d", "2"])[0] == 1  # missing -r
    assert run(["dim", "--gen", "triangle", "-r", "1"])[0] == 1  # missing degree
    assert run(["dim"])[0] == 1


def test_degree_guard():
    code, _ = run(["dim", "--gen", "triangle", "-r", "0", "-d", "40"])
    assert code == 1
    code, _ = run(["dim", "--gen", "triangle", "-r", "0", "-d", "40", "--allow-large",
                   "--method", "exact"])
    assert code == 0


def test_degree_guard_rejects_a_huge_range_before_building_it(capsys):
    """The guard reads the range's bounds: a list of 10**18 + 1 degrees would
    fail its allocation (MemoryError) before any check on the list."""
    code, text = run(["dim", "--gen", "morgan-scott", "-r", "1", "--degrees", f"0:{10**18}"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == (
        f"error: degree {10**18} exceeds the guard (30); pass --allow-large to proceed\n"
    )


def test_methods_lb_ub():
    for method, col in [("lb51", 3), ("lb52", 2), ("ub53", 4)]:
        code, text = run(["dim", "--gen", "star:3-generic", "-r", "1", "-s", "2",
                          "-d", "4", "--method", method, "--format", "csv"])
        assert code == 0
        row = text.strip().splitlines()[1].split(",")
        assert row[col] != ""


def test_empty_degree_range_is_rejected_by_name(capsys):
    code, text = run(["dim", "--gen", "triangle", "-r", "1", "--degrees", "5:3"])
    assert code == 1
    assert text == ""
    assert "error: degree range 5:3 is empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dim", "--gen", "triangle", "-r", "1", "--degrees", "3:x"],
         "error: --degrees expects A or A:B, got '3:x'"),
        (["dim", "--gen", "triangle", "-r", "1", "--degrees", "x"],
         "error: --degrees expects A or A:B, got 'x'"),
        (["dim", "--gen", "triangle", "-r", "1", "--degrees", "2:3:4"],
         "error: --degrees expects A or A:B, got '2:3:4'"),
        (["ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2", "--edge", "0", "-d", "3"],
         "error: --edge expects I,J (two vertex indices), got '0'"),
        (["ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2", "--edge", "a,b", "-d", "3"],
         "error: --edge expects I,J (two vertex indices), got 'a,b'"),
        (["ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2", "--edge", "0,1,2", "-d", "3"],
         "error: --edge expects I,J (two vertex indices), got '0,1,2'"),
    ],
)
def test_parse_errors_name_the_flag_and_its_form(capsys, argv, message):
    code, text = run(argv)
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("command", ["dim", "ideal"])
def test_d_and_degrees_together_are_rejected(capsys, command):
    code, text = run([command, "--gen", "triangle", "-r", "1", "-d", "3", "--degrees", "2:4"])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.strip() == "error: give either -d or --degrees, not both"


# the sources of the golden `dim` commands, with the methods each accepts
_CHECK_SOURCES = {
    "ps6-triangle": (["--gen", "ps6:triangle", "-r", "1", "-s", "2", "--degrees", "2:4"],
                     ["exact", "lb51", "lb52", "ub53", "formula", "all"]),
    "star4": (["--gen", "star:4-generic", "-r", "1", "--degrees", "1:4"],
              ["exact", "lb51", "lb52", "ub53", "formula", "all"]),
    "morgan-scott": (["--gen", "morgan-scott", "-r", "1", "-s", "2", "--degrees", "3:5"],
                     ["exact", "lb51", "lb52", "ub53", "all"]),
}


@pytest.mark.parametrize(
    "source, method",
    [(name, method) for name, (_, methods) in _CHECK_SOURCES.items() for method in methods],
)
def test_check_passes_for_every_method_and_prints_the_same_bytes(source, method):
    argv = ["dim", *_CHECK_SOURCES[source][0], "--method", method, "--format", "csv"]
    code, text = run(argv)
    assert code == 0
    assert run([*argv, "--check"]) == (0, text)


def test_check_catches_a_single_method_that_disagrees_with_the_euler_assembly(
    monkeypatch, capsys
):
    real = splinedim.cli.lower_bound_52
    monkeypatch.setattr(splinedim.cli, "lower_bound_52", lambda *args: real(*args) + 1)
    argv = ["dim", *_CHECK_SOURCES["ps6-triangle"][0], "--method", "lb52"]
    assert run(argv)[0] == 0  # without --check the wrong value is printed
    code, text = run([*argv, "--check"])
    assert (code, text) == (2, "")
    assert "but the Euler assembly gives" in capsys.readouterr().err


@pytest.mark.parametrize("method, oracle_rows", [("exact", [4, 5, 6]), ("formula", [4])])
def test_check_runs_the_kernel_oracle_once_per_degree(monkeypatch, method, oracle_rows):
    """An oracle row (`exact`, or a `formula` row that fell back to `oracle`)
    is checked against the Euler side alone, not through a second oracle
    run; the closed-form rows still run the full assembly.  ps6-ms (2,3)
    is in the 6-split formula's range from d = 5."""
    oracle = splinedim.dimension._exact_dim_reduced
    runs = []
    monkeypatch.setattr(
        splinedim.dimension, "_exact_dim_reduced", lambda sys: runs.append(sys.d) or oracle(sys)
    )
    argv = ["dim", "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3", "--degrees", "4:6",
            "--method", method, "--format", "json", "--check"]
    code, text = run(argv)
    assert code == 0
    assert [row["method"] == "formula" for row in json.loads(text)["rows"]] == [
        d not in oracle_rows for d in (4, 5, 6)
    ]
    assert sorted(runs) == [4, 5, 6]


@pytest.mark.parametrize("command, method", [("dim", ["--method", "exact"]), ("table", [])])
def test_check_counts_each_bar_dimension_once_per_degree(monkeypatch, command, method):
    """A degree's oracle row and its check read one system of the command's
    edge pieces, so each interior vertex's bar dimension is counted once per
    degree: 19 vertices times 3 degrees."""
    count, calls = splinedim.dimension.dim_bar_vertex_ideal_count, []
    monkeypatch.setattr(
        splinedim.dimension, "dim_bar_vertex_ideal_count", lambda *args: calls.append(args) or count(*args)
    )
    argv = [command, "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3", "--degrees", "4:6", *method, "--check"]
    assert run(argv)[0] == 0
    assert len(calls) == len(set(calls)) == 57


@pytest.mark.parametrize("r, s, d, exact", [(1, 2, 3, 10), (2, 3, 4, 15)])
def test_a_tilde_count_raised_below_full_is_caught_by_every_report(monkeypatch, capsys, r, s, d, exact):
    """On Morgan-Scott at these orders h0 = 3 = sum over v of (full_v -
    tilde_v), split 2, 1, 0 over the interior vertices, so h0's
    block-triangular bound is tight.  One more tilde dimension at the vertex
    with the gap of 2 keeps tilde <= full there, and h0 still comes from the
    boundary matrix, so the Euler identity holds; only the bound breaks,
    which puts ub53 one below the exact dimension.  Every report refuses it,
    and with it every command: an oracle or ub53 row under --check, and a
    table without --check."""
    mesh = morgan_scott_mesh()
    spec = SmoothnessSpec.uniform(mesh, r, s)
    sys = EdgePieces(mesh, spec, d).system(d)
    gaps = {v: sys.full[v] - sys.tilde[v] for v in sys.interior}
    assert h0_dimension(mesh, spec, d, sys.pieces) == sum(gaps.values()) == 3
    assert sorted(gaps.values()) == [0, 1, 2]
    assert euler_assembly(mesh, spec, d).ub53 == exact

    top = max(gaps, key=gaps.get)
    raised = property(lambda self: {v: len(cols) + (v == top) for v, cols in self.tilde_pivots.items()})
    monkeypatch.setattr(_DegreeSystem, "tilde", raised)
    message = rf"kernel oracle {exact} vs Euler assembly {exact},.* h0 3 vs its bound sum of full - tilde 2,.*: \[\]$"
    with pytest.raises(InternalInconsistencyError, match=message):
        euler_assembly(mesh, spec, d)
    source = ["--gen", "morgan-scott", "-r", str(r), "-s", str(s), "-d", str(d)]
    for argv in (
        ["dim", *source, "--method", "ub53", "--check"],
        ["dim", *source, "--method", "exact", "--check"],
        ["table", *source],
    ):
        assert run(argv) == (2, ""), argv
        assert "h0 3 vs its bound sum of full - tilde 2," in capsys.readouterr().err


def test_check_catches_an_oracle_row_that_disagrees_with_the_euler_side(monkeypatch, capsys):
    real = splinedim.cli.exact_dimension
    monkeypatch.setattr(splinedim.cli, "exact_dimension", lambda *args, **kw: real(*args, **kw) + 1)
    argv = ["dim", "--gen", "ps6:morgan-scott", "-r", "2", "-s", "3", "--degrees", "4:6"]
    for method in ("exact", "formula"):
        assert run([*argv, "--method", method])[0] == 0  # without --check the wrong value is printed
        assert run([*argv, "--method", method, "--check"]) == (2, "")
        assert "at degree 4: kernel oracle 17 vs Euler assembly 16," in capsys.readouterr().err


@pytest.mark.parametrize(
    "smoothness, message",
    [
        ({"default_r": 1.5, "default_s": 2.9}, "default_r must hold JSON integers, got 1.5"),
        ({"default_r": 1, "default_s": 2.9}, "default_s must hold JSON integers, got 2.9"),
        ({"default_r": True}, "default_r must hold JSON integers, got True"),
    ],
)
def test_mesh_json_rejects_non_integer_orders(tmp_path, capsys, smoothness, message):
    _assert_smoothness_rejected(tmp_path, capsys, smoothness, message)


@pytest.mark.parametrize(
    "smoothness, message",
    [
        ([1], "smoothness must be a JSON object, got [1]"),
        ("x", "smoothness must be a JSON object, got 'x'"),
        ({"default_r": 1, "edge_r": 5}, "edge_r must be a list of [i, j, r] entries, got 5"),
        ({"default_r": 1, "vertex_s": [5]}, "vertex_s must be a list of [v, s] entries, got [5]"),
        ({"default_r": 1, "edge_r": [[0, 2]]}, "edge_r entries must be [i, j, r], got [0, 2]"),
        ({"default_r": 1, "vertex_s": [[0, 1, 2]]}, "vertex_s entries must be [v, s], got [0, 1, 2]"),
        # these printed a row: a falsy block read as no block, a string or
        # an object read as an empty list, or its keys read as entries
        (0, "smoothness must be a JSON object, got 0"),
        (False, "smoothness must be a JSON object, got False"),
        ([], "smoothness must be a JSON object, got []"),
        ({"default_r": 1, "edge_r": ""}, "edge_r must be a list of [i, j, r] entries, got ''"),
        ({"default_r": 1, "edge_r": {}}, "edge_r must be a list of [i, j, r] entries, got {}"),
        ({"default_r": 1, "vertex_s": {"01": 1}}, "vertex_s must be a list of [v, s] entries, got {'01': 1}"),
        ({"default_r": 1, "vertex_s": ["01"]}, "vertex_s must be a list of [v, s] entries, got ['01']"),
        # these printed a row: the last of two entries for one edge or vertex won
        ({"default_r": 1, "edge_r": [[0, 3, 1], [3, 0, 2]]}, "edge_r entry (0, 3) is given twice"),
        ({"default_r": 1, "edge_r": [[0, 3, 1], [0, 3, 1]]}, "edge_r entry (0, 3) is given twice"),
        ({"default_r": 1, "vertex_s": [[3, 2], [3, 5]]}, "vertex_s entry 3 is given twice"),
    ],
)
def test_a_malformed_smoothness_block_is_a_mesh_error_naming_the_field(
    tmp_path, capsys, smoothness, message
):
    # these used to end in a traceback or in Python's unpacking message
    _assert_smoothness_rejected(tmp_path, capsys, smoothness, message)


def _assert_smoothness_rejected(tmp_path, capsys, smoothness, message):
    doc = mesh_to_json(builtin_mesh("morgan-scott"))
    doc["smoothness"] = smoothness
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    for argv in (["gen", "--mesh", str(path)], ["dim", "--mesh", str(path), "-d", "3"]):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize(
    "selectors",
    [
        ["--edge", "3,4", "--vertex", "3"],
        ["--canonical", "--vertex", "3"],
        ["--canonical", "--edge", "3,4"],
        ["--canonical", "--edge", "3,4", "--vertex", "0"],
    ],
)
def test_ideal_rejects_more_than_one_selector(capsys, selectors):
    # the first selector used to win silently
    code, text = run(["ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2", *selectors, "-d", "4"])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err.strip()
    assert err == "error: give only one of --edge, --vertex and --canonical"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--edge", "3,4", "--variant", "tilde"], "--variant applies only to --vertex"),
        (["--canonical", "--variant", "full"], "--variant applies only to --vertex"),
        (["--vertex", "3", "--s2", "5"], "--s2 applies only to --canonical"),
        (["--edge", "3,4", "--s2", "5"], "--s2 applies only to --canonical"),
    ],
)
def test_ideal_rejects_a_flag_that_does_not_apply_to_its_selector(capsys, flags, message):
    # these flags used to be ignored silently
    code, text = run(["ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2", *flags, "-d", "3"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_ideal_vertex_without_variant_is_the_full_ideal():
    argv = ["ideal", "--gen", "morgan-scott", "-r", "1", "-s", "2", "--vertex", "3", "-d", "5"]
    assert run(argv) == run([*argv, "--variant", "full"])


def _twice_split_ms_1_2():
    first = powell_sabin_6split(morgan_scott_mesh(), 1, 2).refined
    split = powell_sabin_6split(first, 1, 2)
    return split.refined, split.spec


def _star(name, r, s):
    star = builtin_mesh(name)
    return star, star_smoothness_spec(star, r, s)


@pytest.mark.parametrize(
    "source, argv, rows",
    [
        (_twice_split_ms_1_2, ["dim", "-d", "5", "--method", "all"], {5: 1050}),
        (
            lambda: _star("star:8-generic", 3, 6),
            ["table", "--degrees", "12:20"],
            dict(zip(range(12, 21), (340, 420, 508, 604, 708, 820, 940, 1068, 1204))),
        ),
        (
            lambda: _star("star:5-generic", 2, 4),
            ["table", "--degrees", "14:18"],
            dict(zip(range(14, 19), (390, 455, 525, 600, 680))),
        ),
    ],
    ids=["ps6x2-ms-1-2", "star8-3-6", "star5-2-4"],
)
def test_the_benchmark_jobs_print_their_golden_rows(tmp_path, source, argv, rows):
    """The larger benchmark jobs, on the builtins' canonical coordinates,
    through `main` with `--check`: h0 = 0 and every bound equals the exact
    dimension at each degree.  The 6-split twice of Morgan-Scott at (1,2)
    takes the second split's induced spec, a star s at its center only."""
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(mesh_to_json(*source())))
    code, text = run([argv[0], "--mesh", str(path), *argv[1:], "--check", "--format", "json"])
    assert code == 0
    got = {row["d"]: tuple(row[k] for k in ("h0", "lb52", "lb51", "ub53", "exact")) for row in json.loads(text)["rows"]}
    assert got == {d: (0, dim, dim, dim, dim) for d, dim in rows.items()}
