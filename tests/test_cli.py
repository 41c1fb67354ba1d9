"""Tests for the command-line interface."""

import io
import json

import pytest

import splinedim.cli
from splinedim.cli import builtin_mesh, main
from splinedim.dimension import star_smoothness_spec
from splinedim.mesh import mesh_to_json


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
