"""The command-line surface: flags, exit codes, output bytes."""

import contextlib
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fanoenum import cli, table_oracle
from fanoenum.cli import _CHERN_FORMULAS, _GRAMMAR, run
from fanoenum.table_oracle import emit, ground_truth
from test_engine import (
    BENCH_GOLDEN, _assert_one_error_line_into_a_full_stdout, _other_interpreters, _package_env,
    _runs_into,
)


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
    # int() takes 4300 digits, and 2 * (10**4300 - 1) has one more
    assert run(["chern", "antican-cube-p1-bundle", "9" * 4300, "0", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: the result has more than 4300 digits, the most Python prints\n"
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


@pytest.mark.parametrize("pair", ["", ","], ids=repr)
def test_an_empty_pair_is_a_usage_error(capsys, pair):
    # an empty --pair names no ray type: it does not mean every pairing
    with pytest.raises(SystemExit) as excinfo:
        run(["enumerate", "--format", "csv", "--pair", pair])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fanoenum enumerate")
    assert captured.err.endswith("error: unknown extremal-ray type ''\n")


def test_chern_arity_is_a_usage_error_of_the_chern_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["chern", "xi-square", "1", "2"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fanoenum chern")
    assert err.endswith("error: xi-square takes 1 integer: deg_E\n")
    with pytest.raises(SystemExit):
        run(["chern", "conic-ksq-pullback", "1"])
    assert capsys.readouterr().err.endswith(
        "error: conic-ksq-pullback takes 2 integers: Ks.D Delta.D\n"
    )


def test_emit_to_file_is_deterministic(tmp_path):
    # --format offers emit's formats, listed apart so that reading argv loads no table_oracle
    assert set(cli._EMIT_CHOICES) == set(table_oracle._WRITERS)
    target = tmp_path / "table.csv"
    assert run(["emit", "--rho", "3", "--format", "csv", "--out", str(target)]) == 0
    first = target.read_bytes()
    assert first == emit(ground_truth(3), "csv")
    assert run(["emit", "--rho", "3", "--format", "csv", "--out", str(target)]) == 0
    assert target.read_bytes() == first


def test_emit_to_a_dash_writes_stdout(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    assert run(["emit", "--rho", "3"]) == 0
    plain = capsysbinary.readouterr().out
    assert run(["emit", "--rho", "3", "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == plain
    assert list(tmp_path.iterdir()) == []


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


# The user-facing texts argparse prints: every --help and the usage errors of
# three bad argvs, pinned as stdout, stderr and exit code of a fresh process
# at 80 columns.  The layout is argparse's own and changes between CPython
# minor versions, so the golden holds for the version it was captured on.
# Rewrite it only from a commit whose texts are known to be right:
#     PYTHONPATH=src python3 tests/test_cli.py
CLI_TEXT_GOLDEN = Path(__file__).with_name("data") / "cli_text_golden.json"
CLI_TEXT_ARGVS = (
    ["--help"],
    ["enumerate", "--help"],
    ["verify", "--help"],
    ["chern", "--help"],
    ["emit", "--help"],
    ["frobnicate"],
    ["enumerate", "--rho", "4"],
    ["chern", "xi-square", "1.5"],
)


def _cli_text(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fanoenum", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "COLUMNS": "80"},
    )
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


@pytest.mark.skipif(
    sys.version_info[:2] != tuple(json.loads(CLI_TEXT_GOLDEN.read_text())["python"]),
    reason="argparse lays help out differently on another CPython minor version",
)
@pytest.mark.parametrize("argv", CLI_TEXT_ARGVS, ids=" ".join)
def test_help_and_usage_texts_match_the_golden(argv):
    expected = json.loads(CLI_TEXT_GOLDEN.read_text())["texts"][" ".join(argv)]
    assert _cli_text(argv) == expected


def _modules_loaded_by(statement, *options):
    """The modules a fresh interpreter started with ``options`` holds after ``statement``."""
    script = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, *options, "-c", script], capture_output=True, text=True, check=True
    )
    return set(proc.stdout.split())


def test_cli_start_imports_no_heavy_stdlib_module():
    # dataclasses brings inspect, ast, dis and tokenize; fractions brings decimal;
    # csv is needed only by emit --format csv
    added = _modules_loaded_by("import fanoenum.cli") - _modules_loaded_by("pass")
    assert "fanoenum.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "fractions", "decimal", "csv", "_csv"}
    # argparse brings gettext, whose first translation lookup imports locale
    heavy |= {"argparse", "gettext", "locale"}
    assert sorted(added & heavy) == []


def test_the_package_and_its_engine_load_neither_fractions_nor_decimal():
    # every module of the package and the rank-2 engine run in integers
    statement = (
        "import fanoenum.cli\n"
        "from fanoenum import *\n"
        "assert len(enumerate_all(2)) == 36"
    )
    assert sorted(_modules_loaded_by(statement) & {"fractions", "decimal"}) == []


def _package_modules(modules):
    return sorted(name for name in modules if name.startswith("fanoenum."))


def test_importing_the_package_loads_no_submodule():
    assert _package_modules(_modules_loaded_by("import fanoenum")) == []


ENGINE_MODULES = {
    "fanoenum.enumerator",
    "fanoenum.table_oracle",
    "fanoenum.ray_constraints",
    "fanoenum.picard_lattice",
    "json",
}


@pytest.mark.parametrize(
    "statement",
    [
        "import fanoenum.cli",
        "import runpy, sys\n"
        "sys.argv = ['fanoenum', 'chern', 'xi-square', '-3']\n"
        "try:\n"
        "    runpy.run_module('fanoenum', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code",
    ],
    ids=["import-cli", "chern-process"],
)
def test_cli_start_and_chern_load_no_engine_module(statement):
    added = _modules_loaded_by(statement) - _modules_loaded_by("pass")
    assert "fanoenum.chern_calculus" in added
    assert sorted(added & ENGINE_MODULES) == []


def _modules_added_by_a_run(argv):
    """The modules a fresh ``python -m fanoenum *argv`` adds to a bare interpreter's."""
    statement = (
        "import runpy, sys\n"
        f"sys.argv = ['fanoenum', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('fanoenum', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )
    added = _modules_loaded_by(statement) - _modules_loaded_by("pass")
    assert "fanoenum.cli" in added
    return added


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--rho", "3"],
        ["enumerate", "--rho", "3", "--format", "csv"],
        ["emit", "--rho", "3", "--source", "computed", "--format", "json"],
        ["emit", "--rho", "3", "--format", "csv", "--out", "-"],
        ["chern", "conic-ksq-pullback", "-3", "5"],
    ],
    ids=" ".join,
)
def test_a_well_formed_run_loads_no_argparse(argv):
    added = _modules_added_by_a_run(argv)
    assert sorted(added & {"argparse", "gettext", "locale", "__future__"}) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["enumerate", "--rho", "2"],
        ["emit", "--rho", "2", "--source", "truth"],
        ["emit", "--rho", "3", "--source", "computed"],
    ],
    ids=" ".join,
)
def test_a_run_that_reads_the_truth_loads_no_json(argv):
    # the C scanner of _json reads the truth; json compiles six patterns at import
    added = _modules_added_by_a_run(argv)
    assert "fanoenum.table_oracle" in added
    assert sorted(added & {"json", "json.decoder", "json.scanner", "json.encoder"}) == []


def test_importing_one_submodule_loads_only_its_imports():
    loaded = _modules_loaded_by("from fanoenum import chern_calculus")
    assert _package_modules(loaded) == ["fanoenum.chern_calculus", "fanoenum.errors"]


def test_importing_the_engine_loads_neither_the_table_nor_json():
    loaded = _modules_loaded_by("from fanoenum import enumerator")
    assert _package_modules(loaded) == [
        "fanoenum.chern_calculus",
        "fanoenum.enumerator",
        "fanoenum.errors",
        "fanoenum.picard_lattice",
        "fanoenum.ray_constraints",
    ]
    assert "json" not in loaded


@pytest.mark.parametrize(
    "statement",
    [
        "import fanoenum.cli, fanoenum.enumerator, fanoenum.table_oracle",
        "import runpy, sys\n"
        "sys.argv = ['fanoenum', 'verify']\n"
        "try:\n"
        "    runpy.run_module('fanoenum', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code",
    ],
    ids=["import", "verify-process"],
)
def test_the_package_loads_neither_typing_nor_pathlib(statement):
    # -S: without site, which may import both before the package does
    loaded = _modules_loaded_by(statement, "-S")
    assert "fanoenum.table_oracle" in loaded
    assert sorted(loaded & {"typing", "pathlib"}) == []


def test_a_submodule_is_an_attribute_before_any_public_name():
    script = (
        "import sys, fanoenum\n"
        "emit = fanoenum.table_oracle.emit\n"
        "assert emit is sys.modules['fanoenum.table_oracle'].emit\n"
        "assert 'fanoenum.enumerator' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", script], check=True)


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
        lambda: "[" * 100_000 + "]" * 100_000,
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
        "deeply-nested",
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
    "argv",
    [["verify"], ["enumerate", "--rho", "2"], ["emit", "--source", "computed"]],
    ids=" ".join,
)
def test_a_repeated_table_id_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    rows = json.loads(Path(table_oracle._PACKAGED_TRUTH).read_bytes())
    assert rows[0]["table_id"] == "2-1"
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(rows + [rows[0]]))
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: ground truth rows 0 and {len(rows)} share the table_id '2-1'\n"
    )
    # a copy of a row under a new id repeats its record key: the id of a
    # computed record would be the copy's, and the original row missing
    assert rows[35]["table_id"] == "2-36"
    path.write_text(json.dumps(rows + [dict(rows[35], table_id="2-99")]))
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: ground truth rows 35 and {len(rows)} ('2-36' and '2-99') share the rank,"
        " cube and ray degree data\n"
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


@pytest.mark.parametrize(
    "argv",
    [
        ["emit", "--format", "markdown"],
        ["emit", "--format", "json"],
        ["emit", "--format", "csv"],
        ["verify", "--rho", "2"],
    ],
    ids=" ".join,
)
def test_unknown_ray_type_in_the_truth_is_named(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "truth.json"
    path.write_text(_rows_with("ray_types", ["X9", "E1"])())
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "error: ground truth row 3: ray_types holds 'X9', which is not a ray type;"
        " expected one of C1, C2, D1, D2, D3, E1, E2, E34, E5\n"
    )


def test_emit_into_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "absent" / "table.json"
    assert run(["emit", "--out", str(target)]) == 1
    _assert_one_error_line(capsys)


# Runs that have something for stdout: help or output.
STDOUT_ARGVS = (
    ["--help"],
    ["emit", "--help"],
    ["enumerate", "--rho", "3"],
    ["verify", "--rho", "3"],
    ["emit", "--rho", "3", "--out", "-"],
    ["chern", "xi-square", "-3"],
)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write into")
@pytest.mark.parametrize("argv", STDOUT_ARGVS, ids=" ".join)
def test_a_run_into_a_full_stdout_is_one_error_line(argv):
    # buffered or not: a failed write of help or output is an error, not exit 0 or 120
    _assert_one_error_line_into_a_full_stdout(sys.executable, argv)


@pytest.mark.parametrize("argv", STDOUT_ARGVS, ids=" ".join)
def test_a_run_with_stdout_closed_is_one_error_line(argv):
    # the interpreter sets sys.stdout to None: a write is an error, not an AttributeError
    _assert_one_error_line_into_a_full_stdout(sys.executable, argv, stdout=None)


def test_emit_to_a_file_with_stdout_closed_writes_it(tmp_path):
    argv = ["emit", "--rho", "3", "--format", "csv", "--out", "table.csv"]
    for proc in _runs_into(None, sys.executable, argv, cwd=tmp_path):
        assert (proc.returncode, proc.stderr) == (0, "")
        table = tmp_path / "table.csv"
        assert table.read_bytes() == emit(ground_truth(3, primitive_only=True), "csv")
        table.unlink()


@pytest.mark.parametrize(
    "argv", [["enumerate", "--pair", "E1"], ["verify", "--rho", "4"]], ids=" ".join
)
def test_a_usage_error_with_stdout_closed_exits_two(argv):
    for proc in _runs_into(None, sys.executable, argv):
        assert proc.returncode == 2 and proc.stderr.startswith("usage: fanoenum "), proc.stderr


# ``python -m fanoenum``, run as ``-m`` runs it, writes at exit whether the
# collector froze more objects than it held frozen at start.  A fresh 3.12.1
# interpreter already holds some frozen; other versions start with none.
_FREEZE_PROBE = """
import atexit, gc, runpy, sys
frozen = gc.get_freeze_count()
atexit.register(lambda: print(gc.get_freeze_count() > frozen, file=sys.stderr))
runpy.run_module("fanoenum", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "--rho", "3"], 0),
        (["chern", "genus-from-blowup", "15", "64", "4", "7"], 1),  # an engine error
        (["enumerate", "--pair", "E1,F7"], 2),  # a usage error a handler finds
        (["--help"], 0),
    ],
    ids=["verify --rho 3", "chern engine error", "bad --pair", "--help"],
)
def test_a_process_run_reaches_its_exit_with_the_collector_frozen(argv, code):
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE, *argv],
        capture_output=True, text=True, env=_package_env(),
    )
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == "True", proc.stderr


def test_run_leaves_the_collector_as_it_finds_it(capsys):
    # only main(), the process entry point, freezes it
    found = gc.get_freeze_count(), gc.isenabled()
    assert run(["verify", "--rho", "3"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == found


def test_emit_to_a_path_ending_in_a_slash_writes_nothing(tmp_path, capsys):
    # the trailing slash names a directory: it is not dropped
    target = f"{tmp_path / 'table.json'}/"
    assert run(["emit", "--out", target]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {target!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_emit_to_an_empty_path_is_a_usage_error(capsys):
    # an empty --out names no file; it does not mean stdout
    with pytest.raises(SystemExit) as excinfo:
        run(["emit", "--rho", "3", "--format", "csv", "--out", ""])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fanoenum emit")
    assert captured.err.endswith(
        "error: argument --out: '' is not a path this system can open\n"
    )


# Integers of as many digits as int() converts, and of one more.
BIG_INTEGERS = ("9" * 4300, "-" + "9" * 4300, "1" * 4301)
# Tokens of real argvs: subcommands, options, their values and formula names.
ARGV_TOKENS = (
    "enumerate", "verify", "chern", "emit",
    "--rho", "--pair", "--primitive", "--format", "--source", "--out", "-h",
    "2", "3", "1", "0", "-1", "7", "64", *BIG_INTEGERS,
    "json", "csv", "markdown", "pdf", "truth", "computed",
    "E1,C2", "c1,e3e4", "E1,E1,E1", "E1", "E1,F7", ",",
    "table.json", "absent/table.json", ".", "", "-",
    *_CHERN_FORMULAS,
)
# Junk holds no path separator, so that a path it names stays in the working
# directory, which each run makes a fresh temporary one.
JUNK_TOKENS = st.text(st.characters(exclude_characters="/\\"), max_size=6)


def _assert_the_run_ends_in_an_exit_code(argv):
    """``run(argv)`` returns 0 or 1 or exits 0 or 2, and an exit 1 is one ``error:`` line."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    codes, code = (0, 1), run(argv)
                except SystemExit as exc:
                    codes, code = (0, 2), exc.code
        finally:
            os.chdir(cwd)
    assert code in codes
    assert "Traceback" not in stderr.getvalue()
    if code == 1:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@settings(max_examples=200, deadline=None)
@example(["emit", "--out", "table\0.json"])  # a NUL byte, which no path can hold
@example(["emit", "--out", "table\ud800.json"])  # a lone surrogate, which no path can hold
@given(st.lists(st.sampled_from(ARGV_TOKENS) | JUNK_TOKENS, max_size=8))
def test_any_argv_exits_zero_one_or_two_without_a_traceback(argv):
    _assert_the_run_ends_in_an_exit_code(argv)


def _parsed(argv):
    """The arguments argparse parses from ``argv``, or the exit code of its error."""
    import contextlib
    import io

    from fanoenum.cli import _parsers

    parser = _parsers()[0]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _verdict(argv):
    """None where the reader of ``run`` leaves ``argv`` to argparse, else whether they agree.

    This and ``_parsed`` import what they use, so that a probe of another
    interpreter can run their source.
    """
    from fanoenum.cli import _read

    read = _read(argv)
    return None if read is None else vars(read) == _parsed(argv)


# Every argv of the benchmark's cli_mix workload: the reader must take each.
BENCH_ARGVS = [key.split(" ") for key in BENCH_GOLDEN["cli_stdout_sha256"]]

# Argvs at the edge of the reader's shapes, each with the reader's verdict.
EDGE_ARGVS = [
    (["verify", "--rho", "2", "--rho", "3"], True),  # the last one counts
    (["verify", "--rho", "02"], True),
    (["enumerate", "--primitive", "--primitive"], True),
    (["chern", "xi-square", "-9"], True),
    (["chern", "xi-square", "-0"], True),
    (["chern", "xi-square", "1", "2"], True),  # the handler rejects the arity
    (["enumerate", "--pair", "E1,E1,E1"], True),  # and the handler the pair
    (["emit", "--out", "table.json"], True),
    (["enumerate", "--rho=2"], None),
    (["enumerate", "--prim"], None),
    (["verify", "--"], None),
    (["chern", "xi-square", "--", "-3"], None),
    (["verify", "--rho", " 2"], None),
    (["verify", "--rho", "٢"], None),  # ARABIC-INDIC DIGIT TWO
    (["chern", "xi-square", "٢"], None),
    (["verify", "--rho", "+2"], None),
    (["chern", "xi-square", "+2"], None),
    (["verify", "--rho", "-2"], None),
    (["verify", "--rho"], None),
    (["chern", "xi-square"], None),
    (["chern", "xi-square", "1" * 5000], None),  # more digits than int() converts
    (["enumerate", "--pair", ""], None),
    (["enumerate", "--pair", "-x"], None),
    (["emit", "--out", "-"], True),  # a lone "-" is a value, as to argparse
    (["emit", "--out", "table\0.json"], None),
    (["enumerate", "-h"], None),
    (["enumerate", "--pair", "E1,C2", "E1"], None),
    (["verify", "--pair", "E1,C2"], None),
    (["verify", "--rho", "4"], None),
    (["emit", "--format", "pdf"], None),
    (["chern", "no-such-formula", "1"], None),
    (["frobnicate"], None),
    ([], None),
    (["enumerate", "--pair", "-"], True),  # the handler rejects the pair
    (["verify", "--rho", "-"], None),
    (["enumerate", "--format", "-"], None),
    (["chern", "-"], None),
]


@pytest.mark.parametrize("argv", BENCH_ARGVS, ids=" ".join)
def test_the_reader_takes_every_benchmarked_argv(argv):
    assert _verdict(argv) is True


@pytest.mark.parametrize("argv,verdict", EDGE_ARGVS)
def test_the_reader_at_the_edge_of_its_shapes(argv, verdict):
    assert _verdict(argv) is verdict


INTEGERS = st.integers(-99, 99).map(str) | st.sampled_from(BIG_INTEGERS)
ARGV_VALUES = st.sampled_from(ARGV_TOKENS) | JUNK_TOKENS | INTEGERS


def _values(type_, choices):
    """Tokens for one value: often one that its type and choices take."""
    if choices:
        fitting = st.sampled_from([str(choice) for choice in choices])
    else:
        fitting = INTEGERS if type_ is int else st.sampled_from(ARGV_TOKENS)
    return st.one_of(fitting, ARGV_VALUES)


def _near_well_formed(command):
    """``command``, its options in any order, then its positionals, valued by ``_values``."""
    _, _, options, positionals = _GRAMMAR[command]
    option = st.one_of([
        st.tuples(st.just(flag), *([] if type_ is bool else [_values(type_, choices)]))
        for flag, _, type_, choices, _, _ in options
    ])
    return st.tuples(
        st.lists(option, max_size=4) if options else st.just([]),
        st.tuples(*(
            st.lists(_values(type_, choices), min_size=1, max_size=1 if nargs is None else 7)
            for _, type_, choices, nargs in positionals
        )),
    ).map(lambda parts: [command, *(token for group in parts for part in group for token in part)])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(ARGV_TOKENS) | JUNK_TOKENS, max_size=8)
    | st.sampled_from(list(_GRAMMAR)).flatmap(_near_well_formed)
)
def test_the_reader_reads_what_argparse_parses_or_defers(argv):
    assert _verdict(argv) is not False


@settings(max_examples=150, deadline=None)
@example(["chern", "antican-cube-p1-bundle", "9" * 4300, "0", "0"])  # a result too long to print
@given(st.sampled_from(list(_GRAMMAR)).flatmap(_near_well_formed))
def test_a_run_of_a_grammar_built_argv_ends_in_an_exit_code(argv):
    # the handler runs: a reader-vs-argparse check only parses
    _assert_the_run_ends_in_an_exit_code(argv)


@pytest.mark.parametrize("python", _other_interpreters())
def test_the_reader_and_argparse_agree_under_every_other_installed_cpython(python):
    # argparse's rules for negative numbers and abbreviations differ by version
    probe = inspect.getsource(_parsed) + inspect.getsource(_verdict) + (
        "import json, sys\n"
        "print(json.dumps([_verdict(argv) for argv in json.load(sys.stdin)]))\n"
    )
    proc = subprocess.run(
        [str(python), "-c", probe],
        input=json.dumps(BENCH_ARGVS + [argv for argv, _ in EDGE_ARGVS]),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    verdicts = [True] * len(BENCH_ARGVS) + [verdict for _, verdict in EDGE_ARGVS]
    assert json.loads(proc.stdout) == verdicts


if __name__ == "__main__":
    CLI_TEXT_GOLDEN.write_text(json.dumps({
        "python": list(sys.version_info[:2]),
        "texts": {" ".join(argv): _cli_text(argv) for argv in CLI_TEXT_ARGVS},
    }, indent=2) + "\n")
