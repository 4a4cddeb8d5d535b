"""The side-table engine behind every rank-2 pairing.

The byte goldens pin what ``emit --source computed`` prints; they were
captured from the hand-eliminated solvers the engine replaced, and are read
from the ``computed:2`` and ``computed:3`` emit hashes of ``bench/golden.json``.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanoenum
from fanoenum import enumerator
from fanoenum.chern_calculus import (
    antican_cube_by_index,
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
    genus_from_blowup,
)
from fanoenum.cli import run
from fanoenum.enumerator import enumerate_all, solve_C_E_primitive
from fanoenum.errors import (
    ConstraintError, FanoEngineError, InconsistencyError, ParityError
)
from fanoenum.picard_lattice import DivisorClass, TrilinearForm, anticanonical_class
from fanoenum.ray_constraints import C_TYPES, TWIST, RaySpec, RayType
from fanoenum.table_oracle import emit, label, record_to_row

BENCH_GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)
EMIT_SHA256 = {
    (rho, fmt): sha256
    for rho in (2, 3)
    for fmt, sha256 in BENCH_GOLDEN["emit_sha256"][f"computed:{rho}"].items()
}


@pytest.mark.parametrize("rho,fmt", sorted(EMIT_SHA256))
def test_computed_tables_emit_the_golden_bytes(rho, fmt):
    rows = [record_to_row(rec) for rec in enumerate_all(rho, primitive_only=rho == 3)]
    assert hashlib.sha256(emit(rows, fmt)).hexdigest() == EMIT_SHA256[rho, fmt]


# The goldens above and the verify text, from one fresh process of another
# interpreter, which prints them as one JSON object.
_BYTES_PROBE = """
import contextlib, hashlib, io, json
import fanoenum
from fanoenum.cli import run
from fanoenum.enumerator import enumerate_all
from fanoenum.table_oracle import emit, record_to_row
hashes = {}
for rho in (2, 3):
    rows = [record_to_row(rec) for rec in enumerate_all(rho, primitive_only=rho == 3)]
    for fmt in ("json", "csv", "markdown"):
        hashes[f"{rho} {fmt}"] = hashlib.sha256(emit(rows, fmt)).hexdigest()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run(["verify"])
# __all__ loads every module of the package, which evaluates its annotations
names = len(fanoenum.__all__)
print(json.dumps({"emit": hashes, "verify": [code, out.getvalue()], "names": names}))
"""


def _other_interpreters():
    """Each CPython >= 3.10 of another minor version installed beside this one.

    Side-by-side installs (pyenv's, for one) keep each version in a sibling
    directory named by it, with its own bin/python3.
    """
    found = []
    for path in sorted(Path(sys.executable).resolve().parents[2].glob("*/bin/python3")):
        version = re.fullmatch(r"3\.(\d+)\.\d+", path.parent.parent.name)
        if version and 10 <= int(version[1]) != sys.version_info.minor:
            found.append(pytest.param(path, id=f"3.{version[1]}"))
    no_other = pytest.mark.skip(reason="no other CPython >= 3.10 is installed beside this one")
    return found or [pytest.param(None, marks=no_other)]


def _package_env(**variables):
    """This environment with the package's source on the path and ``variables`` set."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": str(src), **variables}


def _runs_into(stdout, python, argv, cwd=None):
    """``python -m fanoenum *argv`` unbuffered, then buffered, with fd 1 on the file ``stdout``.

    With ``stdout`` None fd 1 is closed, so the interpreter sets ``sys.stdout`` to None.
    """
    for unbuffered in ("1", ""):
        with open(stdout or os.devnull, "w") as out:
            yield subprocess.run(
                [str(python), "-m", "fanoenum", *argv], stdout=out, stderr=subprocess.PIPE,
                text=True, env=_package_env(PYTHONUNBUFFERED=unbuffered), cwd=cwd,
                preexec_fn=None if stdout else lambda: os.close(1),
            )


def _assert_one_error_line_into_a_full_stdout(python, argv, stdout="/dev/full"):
    """``python -m fanoenum *argv`` into ``stdout``: one error line and exit 1, buffered or not."""
    for proc in _runs_into(stdout, python, argv):
        err = proc.stderr
        assert proc.returncode == 1 and err.startswith("error: ") and err.count("\n") == 1, err


def _assert_the_goldens_hold_in(python, capsys, prelude=""):
    """``_BYTES_PROBE``, after ``prelude``, prints the goldens in a fresh ``python``.

    Where /dev/full exists, ``--help`` into it must end in one error line:
    argparse raises a failed write in Python 3.10 and ignores it since 3.11.
    """
    proc = subprocess.run(
        [str(python), "-c", prelude + _BYTES_PROBE],
        capture_output=True, text=True, env=_package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert run(["verify"]) == 0
    assert json.loads(proc.stdout) == {
        "emit": {f"{rho} {fmt}": sha256 for (rho, fmt), sha256 in EMIT_SHA256.items()},
        "verify": [0, capsys.readouterr().out],
        "names": len(fanoenum.__all__),
    }
    if os.path.exists("/dev/full"):
        _assert_one_error_line_into_a_full_stdout(python, ["--help"])


@pytest.mark.parametrize("python", _other_interpreters())
def test_the_goldens_hold_under_every_other_installed_cpython(python, capsys):
    _assert_the_goldens_hold_in(python, capsys)


@pytest.mark.parametrize("python", _other_interpreters())
def test_the_process_entry_point_holds_the_goldens_under_every_other_installed_cpython(
    python, tmp_path, capsys
):
    # _BYTES_PROBE calls run(); a process run goes through main() and its frozen exit
    verify = subprocess.run(
        [str(python), "-m", "fanoenum", "verify"],
        capture_output=True, text=True, env=_package_env(),
    )
    assert run(["verify"]) == 0
    assert (verify.returncode, verify.stdout, verify.stderr) == (0, capsys.readouterr().out, "")
    table = tmp_path / "table.json"
    export = subprocess.run(
        [str(python), "-m", "fanoenum", "emit", "--rho", "2", "--source", "computed",
         "--format", "json", "--out", str(table)],
        capture_output=True, text=True, env=_package_env(),
    )
    assert (export.returncode, export.stdout, export.stderr) == (0, "", "")
    assert hashlib.sha256(table.read_bytes()).hexdigest() == EMIT_SHA256[2, "json"]


def test_the_goldens_hold_without_the_c_json_accelerator(capsys):
    # as in an interpreter built without _json: table_oracle falls back to json
    prelude = (
        "import sys\n"
        "sys.modules['_json'] = None\n"
        "from json import encoder, loads\n"
        "from fanoenum import table_oracle\n"
        "assert table_oracle._loads is loads\n"
        "assert table_oracle.encode_basestring_ascii is encoder.py_encode_basestring_ascii\n"
    )
    _assert_the_goldens_hold_in(sys.executable, capsys, prelude)


def test_engine_finds_the_36_families_and_nothing_off_the_24_pairings():
    visited = label(enumerator._solve(enumerator._RANK2_PAIRINGS))
    assert [(row.ray_types, row.kx3) for row in visited if not row.table_id] == []
    assert sorted(row.table_id for row in visited) == sorted(
        "2-%d" % i for i in range(1, 37)
    )
    pairings = list(combinations_with_replacement(RayType, 2))
    others = [pair for pair in pairings if pair not in enumerator._RANK2_PAIRINGS]
    assert len(pairings) == 45 and len(others) == 21
    assert [pair for pair in others if enumerator._solve((pair,))] == []


def test_bundle_formulas_agree_with_the_primitive_records():
    records = solve_C_E_primitive()
    by_id = {row.table_id: rec for rec, row in zip(records, label(records))}
    relative_quadric = antican_cube_divisor_in_p2_bundle(
        c1_sq=9, c2=2, Ky_sq=9, c1_dot_F=0, c1_dot_Ky=-9, F_dot_Ky=0, F_sq=0
    )
    assert by_id["2-8"].kx3 == relative_quadric
    for table_id in ("2-35", "2-36"):
        e = by_id[table_id].rays[1].e
        bundle = antican_cube_p1_bundle_over_surface(c1_sq=e * e, c2=0, Ky_sq=9)
        assert by_id[table_id].kx3 == bundle


# Every side pair, over all 45 pairings of ray types, that gives a record:
# (type, side index, type, side index) -> the table row that labels it.
RECORD_SIDE_PAIRS = {
    ("D1", 0, "E1", 0): "2-1", ("C1", 0, "D1", 0): "2-2", ("D1", 0, "E1", 1): "2-3",
    ("D1", 0, "E1", 6): "2-4", ("D1", 0, "E1", 2): "2-5", ("C1", 0, "C1", 0): "2-6",
    ("D1", 0, "E1", 5): "2-7", ("C1", 0, "E34", 1): "2-8", ("C1", 0, "E1", 6): "2-9",
    ("D1", 0, "E1", 3): "2-10", ("C1", 0, "E1", 2): "2-11", ("E1", 6, "E1", 6): "2-12",
    ("C1", 0, "E1", 5): "2-13", ("D1", 0, "E1", 4): "2-14", ("E1", 6, "E34", 1): "2-15",
    ("C1", 0, "E1", 3): "2-16", ("E1", 6, "E1", 5): "2-17", ("C1", 0, "D2", 0): "2-18",
    ("E1", 6, "E1", 3): "2-19", ("C1", 0, "E1", 4): "2-20", ("E1", 5, "E1", 5): "2-21",
    ("E1", 6, "E1", 4): "2-22", ("E1", 5, "E34", 1): "2-23", ("C1", 0, "C2", 0): "2-24",
    ("D2", 0, "E1", 6): "2-25", ("E1", 5, "E1", 4): "2-26", ("C2", 0, "E1", 6): "2-27",
    ("E1", 6, "E5", 1): "2-28", ("D2", 0, "E1", 5): "2-29", ("E1", 6, "E2", 2): "2-30",
    ("C2", 0, "E1", 5): "2-31", ("C2", 0, "C2", 0): "2-32", ("D3", 0, "E1", 6): "2-33",
    ("C2", 0, "D3", 0): "2-34", ("C2", 0, "E2", 3): "2-35", ("C2", 0, "E5", 2): "2-36",
}


def _side_pairs(pairings):
    """(type, index, type, index, side, side) for each side pair ``_solve`` visits.

    A pairing of a type with itself visits each unordered pair once, the
    side of higher index first.
    """
    for type1, type2 in pairings:
        sides1, sides2 = enumerator._SIDES[type1], enumerator._SIDES[type2]
        for i, side1 in enumerate(sides1):
            for j, side2 in enumerate(sides2[: i + 1] if type1 is type2 else sides2):
                yield type1, i, type2, j, side1, side2


def _side_pair_outcomes(pairings):
    """How many side pairs ``_solve`` visits, and the labels of their records.

    A side pair that raises fails the test that calls this.
    """
    visited, records = 0, {}
    for type1, i, type2, j, side1, side2 in _side_pairs(pairings):
        visited += 1
        record = enumerator._solve_sides(side1, side2)
        if record is not None:
            records[type1.value, i, type2.value, j] = record
    return visited, dict(zip(records, (row.table_id for row in label(records.values()))))


@pytest.mark.parametrize(
    "pairings,side_pairs",
    [
        (tuple(combinations_with_replacement(RayType, 2)), 351),
        (enumerator._RANK2_PAIRINGS, 198),
    ],
    ids=["all-45-pairings", "rank2-pairings"],
)
def test_exactly_the_36_known_side_pairs_give_records(pairings, side_pairs):
    assert _side_pair_outcomes(pairings) == (side_pairs, RECORD_SIDE_PAIRS)
    assert enumerator._solve(pairings) == tuple(
        record
        for *_, side1, side2 in _side_pairs(pairings)
        if (record := enumerator._solve_sides(side1, side2)) is not None
    )


def _system(side1, side2):
    """The rows (a, b, c), a u1 + b u2 + c = 0, of a side pair, re-derived.

    ``_solve_sides`` writes the two (-K)^2.H_i rows P1 + P2 + Q_i = 0 and,
    for a contracted side, M_i - q^3 (K1 + K2) - w = 0; here each term is an
    affine function of (u1, u2), and the rows are their sums.
    """
    n1, n2 = side2.mu, side1.mu
    _, P1, Q1, K1, M1 = ((k, 0, c) for c, k in side1.terms[n1])
    _, P2, Q2, K2, M2 = ((0, k, c) for c, k in side2.terms[n2])

    def add(*terms):
        return tuple(map(sum, zip(*terms)))

    rows = [add(P1, P2, Q1), add(P1, P2, Q2)]
    for contracted, M in ((side1.contracted, M1), (side2.contracted, M2)):
        if contracted:
            q3, w = contracted
            rows.append(add(M, [-q3 * x for x in add(K1, K2)], (0, 0, -w)))
    return rows


def _in_domain(side, u):
    return side.low <= u and (side.high is None or u <= side.high)


def _exit(side1, side2):
    """Which exit of ``_solve_sides`` a side pair takes, checked against its rows."""
    record = enumerator._solve_sides(side1, side2)
    solution = _fraction_solution(_system(side1, side2))
    if record is not None:
        assert solution == (record.rays[0][side1.slot], record.rays[1][side2.slot])
        return "record"
    if solution is None:
        return "no integer solution"
    assert not (_in_domain(side1, solution[0]) and _in_domain(side2, solution[1]))
    return "unknown outside its domain"


@pytest.mark.parametrize(
    "pairings,exits",
    [
        (tuple(combinations_with_replacement(RayType, 2)), (36, 262, 53)),
        (enumerator._RANK2_PAIRINGS, (36, 118, 44)),
    ],
    ids=["all-45-pairings", "rank2-pairings"],
)
def test_every_side_pair_exits_by_a_record_no_solution_or_its_domain(pairings, exits):
    # Every side pair's system pins both unknowns (the reference raises on
    # one that leaves an unknown free), and the engine takes the exit its
    # rows imply: a record at the integer solution, None without one, and
    # None when the solution lies outside a side's domain.
    counts = Counter(_exit(side1, side2) for *_, side1, side2 in _side_pairs(pairings))
    assert counts == dict(
        zip(("record", "no integer solution", "unknown outside its domain"), exits)
    )


def _pins(row1, row2):
    """Whether two rows (a, b, c) are independent, and so pin both unknowns."""
    return row1[0] * row2[1] != row1[1] * row2[0]


def _route(side1, side2):
    """Which rows settle a side pair, read off the rows of its system.

    The two (-K)^2.H rows when they are independent, else another
    independent pair of rows.  Without one, the rows either contradict or
    are multiples of one equation.
    """
    rows = _system(side1, side2)
    if _pins(*rows[:2]):
        return "the (-K)^2.H rows"
    pairs = list(combinations(rows, 2))
    if any(_pins(*pair) for pair in pairs):
        return "another pair of rows"
    if any(a * f != c * d or b * f != c * e for (a, b, c), (d, e, f) in pairs):
        return "rows that contradict"
    return "one equation"


@pytest.mark.parametrize(
    "pairings,routes",
    [
        (tuple(combinations_with_replacement(RayType, 2)), (36, 259, 27, 29)),
        (enumerator._RANK2_PAIRINGS, (36, 144, 0, 18)),
    ],
    ids=["all-45-pairings", "rank2-pairings"],
)
def test_every_side_pair_is_settled_by_the_rows_its_system_allows(pairings, routes):
    # The counts the _solve_sides docstring, README and ROADMAP quote: no
    # system leaves one equation, and only the two (-K)^2.H rows give records.
    counts = Counter(
        (_route(side1, side2), enumerator._solve_sides(side1, side2) is not None)
        for *_, side1, side2 in _side_pairs(pairings)
    )
    expected = {
        ("the (-K)^2.H rows", True): routes[0],
        ("the (-K)^2.H rows", False): routes[1],
        ("another pair of rows", False): routes[2],
        ("rows that contradict", False): routes[3],
    }
    assert counts == {route: count for route, count in expected.items() if count}


def _moved(side, term, part, quarters):
    """``side`` with the constant (part 0) or slope (part 1) of a term moved."""
    terms = {}
    for n, parts in side.terms.items():
        parts = list(parts)
        moved = list(parts[term])
        moved[part] += quarters
        parts[term] = tuple(moved)
        terms[n] = tuple(parts)
    return side._replace(terms=terms)


def _solve_or_error(side1, side2):
    try:
        return enumerator._solve_sides(side1, side2)
    except FanoEngineError as exc:
        return type(exc)


def _mirror(record):
    """The record of the same family with its two rays, and so its basis, swapped."""
    return enumerator.SolutionRecord(
        record.rays[::-1],
        TrilinearForm.rank2(*reversed(record.form.entries.values())),
        DivisorClass(record.minus_k.coords[::-1]),
        record.kx3,
    )


def _same_type_side_pairs():
    """(side i, side j) for every two sides i > j of one ray type."""
    for ray_type in RayType:
        for low, high in combinations(enumerator._SIDES[ray_type], 2):
            yield high, low


@pytest.mark.parametrize("mutants", [False, True], ids=["as-compiled", "mutated"])
def test_the_other_order_of_two_sides_of_one_type_gives_the_mirror_record(mutants):
    # Why _solve visits each unordered pair of sides of one type once: the
    # order it skips gives the mirror record or nothing.  The same holds
    # when any term of either side moves by 4 quarters, so the symmetry is
    # the system's, not the facts'; both orders may then raise alike.
    cases = records = 0
    for high, low in _same_type_side_pairs():
        variants = [(high, low)]
        if mutants:
            variants = [
                (_moved(high, term, part, quarters), low) if which else
                (high, _moved(low, term, part, quarters))
                for which in (0, 1) for term in range(5) for part in (0, 1)
                for quarters in (-4, 4)
            ]
        for side_high, side_low in variants:
            kept = _solve_or_error(side_high, side_low)
            skipped = _solve_or_error(side_low, side_high)
            if isinstance(kept, enumerator.SolutionRecord):
                assert skipped == _mirror(kept)
                records += 1
            else:
                assert skipped == kept
            cases += 1
    # 48 side pairs, 4 of them records; 40 mutants of each, by side, term,
    # constant or slope, and sign
    assert cases == 48 * (40 if mutants else 1)
    assert records == 4 or mutants and records > 4


def _fraction_solution(rows):
    """Integers (u1, u2) with a u1 + b u2 + c = 0 on every row (a, b, c), solved in Fractions.

    Rows of rank 2 have one rational solution: eliminate u1 with a row that
    holds it, take u2 from a reduced row that holds it, then check that both
    are integers and satisfy every row.  Rows of rank 1 or 0 are multiples
    of one equation a u1 + b u2 + c = 0, or contradict: None when some row is
    not a multiple of it or gcd(a, b) does not divide c, else
    InconsistencyError, for an unknown left free.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    pivot = next((row for row in rows if row[0]), None)
    if pivot is not None:
        a1, b1, c1 = pivot
        reduced = [(e - d / a1 * b1, f - d / a1 * c1) for d, e, f in rows]
        pivot2 = next((row for row in reduced if row[0]), None)
        if pivot2 is not None:
            u2 = -pivot2[1] / pivot2[0]
            u1 = -(b1 * u2 + c1) / a1
            if u1.denominator != 1 or u2.denominator != 1:
                return None
            if any(a * u1 + b * u2 + c for a, b, c in rows):
                return None
            return int(u1), int(u2)
    base = next((row for row in rows if any(row)), None)
    if base is None:
        raise InconsistencyError("0 = 0 leaves both unknowns free")
    i = next(i for i, x in enumerate(base) if x)
    if any(row != [row[i] / base[i] * x for x in base] for row in rows):
        return None
    a, b, c = map(int, base)
    if not (a or b) or c % gcd(a, b):
        return None
    raise InconsistencyError("one equation in two unknowns leaves one free")


def _row_outcome(rows):
    """``rows`` as ``_solve_sides`` settles them: a solution, None or InconsistencyError.

    ``_independent_rows`` picks the pair of rows to solve, or decides
    without one; the pair's one solution must then satisfy every row.
    """
    try:
        pair = enumerator._independent_rows(rows)
    except InconsistencyError:
        return InconsistencyError
    if pair is None:
        return None
    *pair, det = pair
    assert det == pair[0][0] * pair[1][1] - pair[0][1] * pair[1][0] != 0
    assert set(pair) <= set(rows)
    solution = _fraction_solution(pair)
    if solution is None or any(a * solution[0] + b * solution[1] + c for a, b, c in rows):
        return None
    return solution


def _reference_outcome(rows):
    try:
        return _fraction_solution(rows)
    except InconsistencyError:
        return InconsistencyError


# Row systems and what they give: a solution, None, or an unknown left free.
_ROW_CASES = [
    # u1 + u2 = 5, u1 - u2 = 1
    ([(1, 1, -5), (1, -1, -1)], (3, 2)),
    # 2 u1 = 3 has no integer solution; u1 = 1 and u1 = 2 contradict
    ([(2, 0, -3), (0, 1, 0)], None),
    ([(1, 0, -1), (1, 0, -2), (0, 1, 0)], None),
    # rows that leave an unknown free would need a sweep
    ([(1, 1, -5), (2, 2, -10)], InconsistencyError),
    ([(0, 1, -2)], InconsistencyError),
    # one row: 0 = 1 has no solution, u1 + u2 = 5 leaves an unknown free
    ([(0, 0, 1)], None),
    ([(1, 1, -5)], InconsistencyError),
    # the first two rows are dependent, and the third decides: a solution,
    # none (u1 = u2 = 5/2; u1 + u2 = 4 contradicts), or an unknown free
    ([(1, 1, -5), (2, 2, -10), (1, -1, -1)], (3, 2)),
    ([(1, 1, -5), (2, 2, -10), (2, 0, -5)], None),
    ([(1, 1, -5), (2, 2, -10), (1, 1, -4)], None),
    ([(1, 1, -5), (2, 2, -10), (3, 3, -15)], InconsistencyError),
    # 0 = 0 pins nothing, and the other two rows pin both unknowns
    ([(0, 0, 0), (1, 0, -1), (0, 1, -2)], (1, 2)),
    # 2 u = 3 has no integer solution, whichever unknown u is
    ([(0, 2, -3)], None),
    ([(2, 0, -3)], None),
    ([(0, 2, -3), (0, 4, -6)], None),
    ([(2, 0, -3), (4, 0, -6)], None),
]


def test_integer_solution_is_exact():
    for rows, outcome in _ROW_CASES:
        assert (_row_outcome(rows), _reference_outcome(rows)) == (outcome, outcome), rows


_ENTRY = st.integers(-6, 6)


@settings(max_examples=500)
@given(st.lists(st.tuples(_ENTRY, _ENTRY, _ENTRY), min_size=1, max_size=4))
def test_the_rows_get_the_verdict_of_their_fraction_solve(rows):
    assert _row_outcome(rows) == _reference_outcome(rows)


def _fraction_outcome(side1, side2):
    """A side pair's record, None or exception type, from its rows solved in Fractions.

    It builds the record from the terms at the solution of
    :func:`_fraction_solution` with the public constructors.
    """
    solution = _reference_outcome(_system(side1, side2))
    if solution is None or solution is InconsistencyError:
        return solution
    u1, u2 = solution
    if not (_in_domain(side1, u1) and _in_domain(side2, u2)):
        return None
    n1, n2 = side2.mu, side1.mu
    (C1, P1, _, K1, _), (C2, P2, _, K2, _) = side1.terms[n1], side2.terms[n2]

    def at(term, u, quarters):
        return Fraction(term[0] + term[1] * u, quarters)

    entries = (
        at(C1, u1, 4), at(P1, u1, 4 * n1 * n1 * n2), at(P2, u2, 4 * n2 * n2 * n1), at(C2, u2, 4)
    )
    kx3 = at(K1, u1, 4) + at(K2, u2, 4)
    if any(value.denominator != 1 for value in (*entries, kx3)):
        return InconsistencyError
    entries, kx3 = tuple(map(int, entries)), int(kx3)
    fields = [dict(zip(RaySpec._fields, side.template)) for side in (side1, side2)]
    for ray, side, u in zip(fields, (side1, side2), (u1, u2)):
        ray[RaySpec._fields[side.slot]] = u
    try:
        for ray in fields:
            if ray["ray_type"] is RayType.E1:
                cube = antican_cube_by_index(ray["r"], ray["L3"])
                ray["genus"] = genus_from_blowup(kx3, cube, ray["r"], ray["degB"])
        if side2.ray_type in TWIST and side1.ray_type in C_TYPES:  # X is P(O + O(e))
            fields[1]["e"] = entries[2]
        return enumerator.SolutionRecord(
            tuple(RaySpec(**ray) for ray in fields),
            TrilinearForm.rank2(*entries),
            anticanonical_class(side1.mu, side2.mu),
            kx3,
        )
    except FanoEngineError as exc:
        return type(exc)


_SIDE_PAIRS = list(_side_pairs(combinations_with_replacement(RayType, 2)))
# Every side pair, and again those that give a record, so that about one
# example in ten is a record.
_SOME_SIDE_PAIRS = st.sampled_from([pair[4:] for pair in _SIDE_PAIRS]) | st.sampled_from([
    (side1, side2)
    for type1, i, type2, j, side1, side2 in _SIDE_PAIRS
    if (type1.value, i, type2.value, j) in RECORD_SIDE_PAIRS
])


@st.composite
def moved_side_pairs(draw):
    """A side pair of the 45 pairings with up to three of its terms moved.

    Its two (-K)^2.H rows may be dependent (56 of the 351 as compiled),
    which sends ``_solve_sides`` to ``_independent_rows``.
    """
    sides = list(draw(_SOME_SIDE_PAIRS))
    for _ in range(draw(st.integers(0, 3))):
        which = draw(st.integers(0, 1))
        sides[which] = _moved(
            sides[which], draw(st.integers(0, 4)), draw(st.integers(0, 1)),
            draw(st.integers(-12, 12)),
        )
    return sides


@settings(max_examples=500, deadline=None)
@given(moved_side_pairs())
def test_cramer_rule_agrees_with_a_fraction_solve_of_random_side_terms(sides):
    assert _solve_or_error(*sides) == _fraction_outcome(*sides)


_C, _K = 0, 3  # positions of the H^3 and (-K)^3 terms among a side's C, P, Q, K, M


@pytest.mark.parametrize(
    "type2,index2,table_id,term,quarters,error,message",
    [
        (RayType.C1, 0, "2-6", _K, 4, ParityError, "must be even, got 13"),
        (RayType.C1, 0, "2-6", _C, 1, InconsistencyError, "fractional form entry"),
        (RayType.E1, 2, "2-11", _K, -8, ConstraintError, "genus computed as -1"),
    ],
    ids=["odd-cube", "fractional-entry", "negative-genus"],
)
def test_a_side_pair_raises_on_what_its_system_implies(
    type2, index2, table_id, term, quarters, error, message
):
    # Neither side contracts a divisor, so H^3 and the (-K)^3 term enter no
    # row of the system: a shifted constant changes the entries, not u.
    # 2-11 has a centre of genus 0, so (-K)^3 18 -> 16 makes it -1.
    (conic,) = enumerator._SIDES[RayType.C1]
    other = enumerator._SIDES[type2][index2]
    assert conic.contracted is other.contracted is None
    assert record_to_row(enumerator._solve_sides(conic, other)).table_id == table_id
    with pytest.raises(error, match=message):
        enumerator._solve_sides(_moved(conic, term, 0, quarters), other)
