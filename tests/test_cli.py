"""The command-line surface: flags, exit codes, output bytes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from fanoenum.cli import _CHERN_FORMULAS, run
from fanoenum.table_oracle import emit, ground_truth


def test_verify_both_ranks(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "rho=2: all 36 rows match" in out
    assert "rho=3: all 4 rows match" in out


def test_verify_single_rank(capsys):
    assert run(["verify", "--rho", "3"]) == 0
    assert capsys.readouterr().out == "rho=3: all 4 rows match\n"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["chern", "antican-cube-p1-bundle", "2", "0", "8"], "52"),
        (["chern", "antican-cube-divisor-p2-bundle", "9", "2", "9", "0", "-9", "0", "0"], "14"),
        (["chern", "genus-from-blowup", "16", "64", "4", "7"], "5"),
        (["chern", "conic-ksq-pullback", "-3", "5"], "7"),
        (["chern", "xi-square", "-3"], "-3"),
        (["chern", "exceptional-cube", "2"], "2"),
        (["chern", "antican-sq-dot-exceptional", "2", "0"], "4"),
    ],
)
def test_chern_evaluations(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_chern_engine_errors_exit_one(capsys):
    # odd cube violates the Riemann-Roch parity precondition
    assert run(["chern", "genus-from-blowup", "15", "64", "4", "7"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["chern", "antican-sq-dot-exceptional", "3", "-1"]) == 1
    assert capsys.readouterr().err == "error: genus must be >= 0, got -1\n"
    assert run(["chern", "genus-from-blowup", "64", "64", "7", "1"]) == 1
    assert capsys.readouterr().err == "error: no smooth Fano threefold has index 7 >= 2\n"
    # a centre of degree 0 and a target curve with -K_Y . C <= 0 do not exist
    assert run(["chern", "genus-from-blowup", "64", "64", "4", "0"]) == 1
    assert capsys.readouterr().err == "error: a blowup centre is a curve, so degB >= 1, got 0\n"
    assert run(["chern", "antican-sq-dot-exceptional", "-5", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: -K_Y . C must be >= 1 on a Fano target, got -5\n"
    )


def test_enumerate_pair_filter(capsys):
    assert run(["enumerate", "--rho", "2", "--pair", "e1,c2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {(row["table_id"], row["kx3"]) for row in rows} == {("2-27", 38), ("2-31", 46)}


def test_pair_filter_spellings(capsys):
    assert run(["enumerate", "--pair", "C1,E3E4", "--format", "csv"]) == 0
    first = capsys.readouterr().out
    assert run(["enumerate", "--pair", "e3e4,c1", "--format", "csv"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[1].startswith("2-8,")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["enumerate", "--rho", "7"],
        ["enumerate", "--pair", "E1"],
        ["enumerate", "--pair", "E1,F7"],
        ["enumerate", "--format", "pdf"],
        ["chern", "antican-cube-p1-bundle", "2", "0"],
        ["chern", "no-such-formula", "1"],
        ["emit", "--source", "guesswork"],
    ],
)
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2


def test_pair_longer_than_the_rank_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["enumerate", "--pair", "E1,E1,E1"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fanoenum enumerate")
    assert "at most 2 ray types" in err
    assert run(["enumerate", "--rho", "3", "--pair", "C1,E1"]) == 0
    assert "| 3-2 |" in capsys.readouterr().out


def test_chern_arity_is_a_usage_error_of_the_chern_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["chern", "xi-square", "1", "2"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fanoenum chern")
    assert err.endswith("error: xi-square takes 1 integers: deg_E\n")


def test_emit_to_file_is_deterministic(tmp_path):
    target = tmp_path / "table.csv"
    assert run(["emit", "--rho", "3", "--format", "csv", "--out", str(target)]) == 0
    first = target.read_bytes()
    assert first == emit(ground_truth(3), "csv")
    assert run(["emit", "--rho", "3", "--format", "csv", "--out", str(target)]) == 0
    assert target.read_bytes() == first


def test_emit_computed_agrees_with_truth(capsysbinary):
    assert run(["emit", "--rho", "2", "--source", "computed", "--format", "json"]) == 0
    computed = capsysbinary.readouterr().out
    assert run(["emit", "--rho", "2", "--source", "truth", "--format", "json"]) == 0
    truth = capsysbinary.readouterr().out
    assert computed == truth
    assert truth.endswith(b"\n")
    assert len(json.loads(truth)) == 36


def test_verify_reports_differences_from_doctored_truth(tmp_path, monkeypatch, capsys):
    rows = json.loads(emit(ground_truth(2), "json"))
    rows[0]["kx3"] += 2
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(rows))
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert run(["verify", "--rho", "2"]) == 1
    out = capsys.readouterr().out
    assert "rho=2: differences found" in out
    assert "2-1" in out


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "fanoenum", "enumerate", "--rho", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    lines = [line for line in proc.stdout.splitlines() if line]
    assert len(lines) == 2 + 4  # header, separator, four families
    assert lines[0] == "| no. | (-K)^3 | description | extremal rays |"


def _modules_loaded_by(statement):
    """The modules a fresh interpreter holds after running ``statement``."""
    script = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return set(proc.stdout.split())


def test_cli_start_imports_no_heavy_stdlib_module():
    # dataclasses brings inspect, ast, dis and tokenize; fractions brings decimal;
    # csv is needed only by emit --format csv
    added = _modules_loaded_by("import fanoenum.cli") - _modules_loaded_by("pass")
    assert "fanoenum.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "fractions", "decimal", "csv", "_csv"}
    assert sorted(added & heavy) == []


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _rows_without_table_id():
    rows = json.loads(emit(ground_truth(2), "json"))
    del rows[3]["table_id"]
    return json.dumps(rows)


def _rows_with_a_scalar_degree():
    rows = json.loads(emit(ground_truth(2), "json"))
    rows[3]["invariants"]["degB"] = 5
    return json.dumps(rows)


def _rows_with_a_list_of_invariants():
    rows = json.loads(emit(ground_truth(2), "json"))
    rows[2]["invariants"] = []
    return json.dumps(rows)


def _rows_with(field, value):
    """Rows of the rank-2 truth with ``field`` of row 3 set to ``value``."""

    def content():
        rows = json.loads(emit(ground_truth(2), "json"))
        rows[3][field] = value
        return json.dumps(rows)

    return content


def _one_ray_row_with_a_dict_degree():
    row = dict(json.loads(emit(ground_truth(2), "json"))[0], ray_types=["C1"])
    row["invariants"] = {"degB": [{"a": 1}]}
    return json.dumps([row])


def _rows_with_degB_of_row_8(value):
    """Rows of the rank-2 truth with invariants.degB of row 8 (2-9) set to ``value``."""

    def content():
        rows = json.loads(emit(ground_truth(2), "json"))
        rows[8]["invariants"]["degB"] = value
        return json.dumps(rows)

    return content


# Ill-typed or ill-sized degB lists of row 8, whose rays are C1 and E1.
BAD_DEGREE_LISTS = [[None, "7"], [None, True], [None], [None, 7.0]]

# A wrong-typed field of row 3 and the requirement its error line states.
WRONG_TYPED_FIELDS = [
    ("kx3", 4.9, "an integer"),
    ("primitive", "false", "a boolean"),
    ("ray_types", "D1", "a list of strings"),
    ("invariants", [["degB", 5]], "an object whose values are lists"),
]


@pytest.mark.parametrize(
    "content",
    [
        None,
        lambda: "not json",
        _rows_without_table_id,
        _rows_with_a_scalar_degree,
        lambda: json.dumps({"rows": []}),
        _rows_with_a_list_of_invariants,
        *(_rows_with(field, value) for field, value, _ in WRONG_TYPED_FIELDS),
        _one_ray_row_with_a_dict_degree,
        *(_rows_with_degB_of_row_8(value) for value in BAD_DEGREE_LISTS),
    ],
    ids=[
        "missing",
        "not-json",
        "row-without-table-id",
        "row-with-a-scalar-degree",
        "top-level-object",
        "row-with-a-list-of-invariants",
        *(f"row-with-wrong-typed-{field}" for field, _, _ in WRONG_TYPED_FIELDS),
        "one-ray-row-with-a-dict-degree",
        "degree-as-a-string",
        "degree-as-a-boolean",
        "degree-list-too-short",
        "degree-as-a-float",
    ],
)
def test_bad_truth_file_is_one_error_line(tmp_path, monkeypatch, capsys, content):
    path = tmp_path / "truth.json"
    if content is not None:
        path.write_text(content())
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert run(["verify", "--rho", "2"]) == 1
    _assert_one_error_line(capsys)


def test_bad_truth_row_is_named(tmp_path, monkeypatch, capsys):
    path = tmp_path / "truth.json"
    path.write_text(_rows_without_table_id())
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert run(["emit"]) == 1
    assert capsys.readouterr().err == (
        "error: ground truth row 3 lacks the field 'table_id'\n"
    )


@pytest.mark.parametrize(
    "field,value,kind", WRONG_TYPED_FIELDS, ids=[case[0] for case in WRONG_TYPED_FIELDS]
)
def test_wrong_typed_truth_field_is_named(tmp_path, monkeypatch, capsys, field, value, kind):
    path = tmp_path / "truth.json"
    path.write_text(_rows_with(field, value)())
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert run(["verify", "--rho", "2"]) == 1
    assert capsys.readouterr().err == f"error: ground truth row 3: {field} must be {kind}\n"


@pytest.mark.parametrize("value", BAD_DEGREE_LISTS, ids=repr)
def test_wrong_typed_invariant_is_named(tmp_path, monkeypatch, capsys, value):
    path = tmp_path / "truth.json"
    path.write_text(_rows_with_degB_of_row_8(value)())
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert run(["verify", "--rho", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: ground truth row 8: invariants.degB must be a list of integers or nulls,"
        " one per ray\n"
    )


def test_emit_into_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "absent" / "table.json"
    assert run(["emit", "--out", str(target)]) == 1
    _assert_one_error_line(capsys)


# Tokens of real argvs: subcommands, options, their values and formula names.
ARGV_TOKENS = (
    "enumerate", "verify", "chern", "emit",
    "--rho", "--pair", "--primitive", "--format", "--source", "--out", "-h",
    "2", "3", "1", "0", "-1", "7", "64", "json", "csv", "markdown", "pdf",
    "truth", "computed", "E1,C2", "c1,e3e4", "E1,E1,E1", "E1", "E1,F7", ",",
    "table.json", "absent/table.json", ".", "",
    *_CHERN_FORMULAS,
)
# Junk holds no path separator, so that a path it names stays in the working
# directory, which the test makes a temporary one.
JUNK_TOKENS = st.text(st.characters(exclude_characters="/\\"), max_size=6)


@settings(max_examples=200, deadline=None)
@example(["emit", "--out", "table\0.json"])  # a NUL byte, which no path can hold
@example(["emit", "--out", "table\ud800.json"])  # a lone surrogate, which no path can hold
@given(st.lists(st.sampled_from(ARGV_TOKENS) | JUNK_TOKENS, max_size=8))
def test_any_argv_exits_zero_one_or_two_without_a_traceback(argv):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
