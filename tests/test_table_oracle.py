"""Embedded classification tables, the diff machinery, and serialization."""

import inspect
import json
import pickle
import re
import subprocess
import types
from collections import Counter
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fanoenum import table_oracle
from fanoenum.enumerator import enumerate_all
from fanoenum.errors import ConstraintError, ParityError, UnsupportedScopeError
from fanoenum.ray_constraints import RayType
from fanoenum.table_oracle import (
    DiffReport,
    TableRow,
    _normalize_description,
    _normalized_multiset,
    _record_label,
    diff,
    emit,
    ground_truth,
    parse_rows,
    record_to_row,
)
from test_engine import EMIT_SHA256, _other_interpreters
from test_enumerator import UNKNOWN_FIELD_ERROR

EXPECTED_CUBES = [
    4, 6, 8, 10, 12, 12, 14, 14, 16, 16, 18, 20, 20, 20, 22, 22, 24, 24,
    26, 26, 28, 30, 30, 30, 32, 34, 38, 40, 40, 46, 46, 48, 54, 54, 56, 62,
]


def test_row_counts():
    assert len(ground_truth(2)) == 36
    assert len(ground_truth(3)) == 4
    assert len(ground_truth(2, primitive_only=True)) == 9
    assert len(ground_truth(3, primitive_only=True)) == 4


def test_scope_is_limited_to_rank_two_and_three():
    with pytest.raises(UnsupportedScopeError):
        ground_truth(1)
    with pytest.raises(UnsupportedScopeError):
        ground_truth(4)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((2.0,), UnsupportedScopeError, "no table for Picard rank 2.0"),
        (("3",), UnsupportedScopeError, "no table for Picard rank '3'"),
        ((True,), UnsupportedScopeError, "no table for Picard rank True"),
        ((2, "yes"), ConstraintError, "primitive_only must be a bool, got 'yes'"),
        ((3, 0), ConstraintError, "primitive_only must be a bool, got 0"),
    ],
)
def test_truth_takes_an_int_rank_and_a_bool_flag(args, error, message):
    with pytest.raises(error) as caught:
        ground_truth(*args)
    assert str(caught.value) == message


def test_cube_multiset_matches_the_table():
    assert sorted(row.kx3 for row in ground_truth(2)) == EXPECTED_CUBES
    assert sorted(row.kx3 for row in ground_truth(3)) == [12, 14, 48, 52]


def test_table_ids_are_unique():
    ids = [row.table_id for row in ground_truth(2) + ground_truth(3)]
    assert len(ids) == len(set(ids)) == 40


def test_spot_rows():
    by_id = {row.table_id: row for row in ground_truth(2) + ground_truth(3)}
    row = by_id["2-9"]
    assert row.ray_types == ("C1", "E1")
    assert row.invariants["degB"] == (None, 7)
    assert row.invariants["deg_delta"] == (5, None)
    assert row.invariants["genus"] == (None, 5)
    row = by_id["2-30"]
    assert row.ray_types == ("E1", "E2")
    assert row.invariants["r"] == (4, 3)
    assert row.invariants["L3"] == (1, 2)
    row = by_id["3-1"]
    assert row.ray_types == ("C1", "C1", "C1")
    assert row.invariants["delta_bidegree"] == ((4, 4),) * 3
    assert by_id["2-34"].primitive and not by_id["2-33"].primitive


def test_computed_tables_match_the_truth():
    assert diff(enumerate_all(2), ground_truth(2)).is_empty
    assert diff(
        enumerate_all(3, primitive_only=True), ground_truth(3, primitive_only=True)
    ).is_empty
    assert diff(
        enumerate_all(2, primitive_only=True), ground_truth(2, primitive_only=True)
    ).is_empty


def computed_rows(rho=2, primitive_only=False):
    return [
        record_to_row(rec) for rec in enumerate_all(rho, primitive_only=primitive_only)
    ]


def test_diff_reports_a_perturbed_cube():
    rows = computed_rows()
    rows[0] = rows[0]._replace(kx3=rows[0].kx3 + 2)
    report = diff(rows, ground_truth(2))
    assert not report.is_empty
    assert report.mismatched == (("2-1", "kx3", 4, 6),)
    assert "mismatch at 2-1.kx3" in report.render()


def test_diff_reports_a_dropped_record():
    rows = computed_rows()
    del rows[4]
    report = diff(rows, ground_truth(2))
    assert report.missing == ("2-5",)
    assert not report.extra and not report.mismatched
    assert "no computed record matches row 2-5" in report.render()


def test_diff_reports_an_alien_record():
    rows = computed_rows()
    rows.append(rows[0]._replace(table_id=""))
    report = diff(rows, ground_truth(2))
    assert len(report.extra) == 1
    assert "matches no row" in report.render()


def test_diff_reports_an_invariant_drift():
    rows = computed_rows()
    genus = dict(rows[8].invariants)
    assert rows[8].table_id == "2-9"
    genus["genus"] = (None, 6)
    rows[8] = rows[8]._replace(invariants=genus)
    report = diff(rows, ground_truth(2))
    assert report.mismatched == (("2-9", "invariants.genus[1]", 5, 6),)


def test_diff_reports_type_primitivity_and_description_drift():
    rows = computed_rows()
    assert rows[8].table_id == "2-9"
    rows[8] = rows[8]._replace(
        ray_types=("C2", "E1"), primitive=True, descriptions=("P^1 x P^2",)
    )
    report = diff(rows, ground_truth(2))
    assert report.mismatched == (
        ("2-9", "ray_types", ("C1", "E1"), ("C2", "E1")),
        ("2-9", "primitive", False, True),
        (
            "2-9",
            "descriptions",
            ("blowup of P^3 along a curve of genus 5 and degree 7",),
            ("P^1 x P^2",),
        ),
    )
    assert report.render().splitlines() == [
        "mismatch at 2-9.ray_types: table has ('C1', 'E1'), computed ('C2', 'E1')",
        "mismatch at 2-9.primitive: table has False, computed True",
        "mismatch at 2-9.descriptions: table has "
        "('blowup of P^3 along a curve of genus 5 and degree 7',), computed ('P^1 x P^2',)",
    ]


def test_diff_normalizes_descriptions():
    rows = computed_rows(3, primitive_only=True)
    shouted = tuple(d.upper() + "." for d in rows[0].descriptions)
    rows[0] = rows[0]._replace(descriptions=shouted)
    assert diff(rows, ground_truth(3)).is_empty


def test_empty_report_renders_quietly():
    report = diff(enumerate_all(2), ground_truth(2))
    assert not report
    assert report.render() == "no differences"


def _record_2_34():
    return next(r for r in enumerate_all(2) if record_to_row(r).table_id == "2-34")


# value, repr, _fields, _field_defaults, a bad _replace and the error it
# raises.  A labelled row holds a dict, a parsed one a read-only mapping.
NAMED_TUPLES = {
    "record": (
        _record_2_34,
        "SolutionRecord(rays=(RaySpec(ray_type=<RayType.C2: 'C2'>, r=None, L3=None,"
        " degB=None, deg_delta=0, d2=None, e=None, genus=None, delta_bidegree=None),"
        " RaySpec(ray_type=<RayType.D3: 'D3'>, r=None, L3=None, degB=None,"
        " deg_delta=None, d2=9, e=None, genus=None, delta_bidegree=None)),"
        " form=TrilinearForm(rho=2, values=(0, 1, 0, 0)), minus_k=DivisorClass(coords=(3, 2)),"
        " kx3=54)",
        ("rays", "form", "minus_k", "kx3"),
        {},
        {"kx3": 55},
        ParityError,
    ),
    "row": (
        lambda: record_to_row(_record_2_34()),
        "TableRow(table_id='2-34', rho=2, kx3=54, primitive=True, ray_types=('C2', 'D3'),"
        " invariants={'deg_delta': (0, None), 'd2': (None, 9)},"
        " descriptions=('P^2 x P^1',))",
        ("table_id", "rho", "kx3", "primitive", "ray_types", "invariants", "descriptions"),
        {},
        {"rank": 2},
        UNKNOWN_FIELD_ERROR,
    ),
    "parsed-row": (
        lambda: next(row for row in ground_truth(2) if row.table_id == "2-34"),
        "TableRow(table_id='2-34', rho=2, kx3=54, primitive=True, ray_types=('C2', 'D3'),"
        " invariants=mappingproxy({'d2': (None, 9), 'deg_delta': (0, None)}),"
        " descriptions=('P^2 x P^1',))",
        ("table_id", "rho", "kx3", "primitive", "ray_types", "invariants", "descriptions"),
        {},
        {"rank": 2},
        UNKNOWN_FIELD_ERROR,
    ),
    "empty-report": (
        DiffReport,
        "DiffReport(missing=(), extra=(), mismatched=())",
        ("missing", "extra", "mismatched"),
        {"missing": (), "extra": (), "mismatched": ()},
        {"missed": ()},
        UNKNOWN_FIELD_ERROR,
    ),
    "report": (
        lambda: DiffReport(("2-1",), ("x",), (("2-2", "kx3", 6, 8),)),
        "DiffReport(missing=('2-1',), extra=('x',), mismatched=(('2-2', 'kx3', 6, 8),))",
        ("missing", "extra", "mismatched"),
        {"missing": (), "extra": (), "mismatched": ()},
        {"missed": ()},
        UNKNOWN_FIELD_ERROR,
    ),
}


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_records_rows_and_reports_keep_their_named_tuple_behaviour(name):
    make, text, fields, defaults, bad, error = NAMED_TUPLES[name]
    value = make()
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)
    assert repr(value) == text
    assert type(value)._fields == fields and type(value)._field_defaults == defaults
    with pytest.raises(error):
        value._replace(**bad)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_parsed_row_pickles_and_copies_with_a_read_only_mapping(protocol):
    row = ground_truth(3)[0]
    for copy in (pickle.loads(pickle.dumps(row, protocol)), deepcopy(row)):
        assert copy == row and type(copy) is TableRow
        assert type(copy.invariants) is types.MappingProxyType
        assert copy.invariants is not row.invariants
        with pytest.raises(TypeError):
            copy.invariants["r"] = (1,)


# The four full tables: truth and computed rows of both ranks.  Rank 3 holds
# the delta_bidegree pairs; record_to_row drops the columns no ray sets.
EMIT_TABLES = {
    "truth-2": lambda: ground_truth(2),
    "truth-3": lambda: ground_truth(3),
    "computed-2": lambda: tuple(map(record_to_row, enumerate_all(2))),
    "computed-3": lambda: tuple(map(record_to_row, enumerate_all(3, True))),
}


@pytest.mark.parametrize("table", EMIT_TABLES)
def test_emit_json_round_trips(table):
    rows = EMIT_TABLES[table]()
    payload = emit(rows, "json")
    assert parse_rows(payload) == rows
    assert emit(rows, "json") == payload  # byte-determinism
    assert emit((), "json") == b"[]"


def _reference_emit_json(rows):
    """The reference for emit(rows, "json"): row objects through the indenting json.dumps."""

    def thaw(value):
        if isinstance(value, tuple):
            return [thaw(v) for v in value]
        return value

    def row_dict(row):
        return {
            "table_id": row.table_id,
            "rho": row.rho,
            "kx3": row.kx3,
            "primitive": row.primitive,
            "ray_types": list(row.ray_types),
            "invariants": {k: thaw(v) for k, v in row.invariants.items()},
            "descriptions": list(row.descriptions),
        }

    return json.dumps([row_dict(r) for r in rows], indent=2, sort_keys=True).encode("utf-8")


# Text with what JSON must escape: quotes, backslashes, control characters,
# non-ASCII and a lone surrogate, among any other characters.
JSON_TEXT = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\U0001f600\ud800 a') | st.characters(),
    max_size=6,
)
JSON_INTEGERS = st.integers() | st.sampled_from((2**64, -(2**100), -1, 0))


def _sequences(elements):
    """Lists of ``elements``, some given as tuples."""
    sequences = st.lists(elements, max_size=3)
    return sequences | sequences.map(tuple)


# One per-ray list per name, of nulls, integers, bools and (pair) lists.
JSON_INVARIANTS = st.dictionaries(
    st.sampled_from(table_oracle._INVARIANT_FIELDS) | JSON_TEXT,
    _sequences(st.none() | st.booleans() | JSON_INTEGERS | _sequences(JSON_INTEGERS)),
    max_size=4,
)

TABLE_ROWS = st.builds(
    TableRow,
    table_id=JSON_TEXT,
    rho=JSON_INTEGERS,
    kx3=JSON_INTEGERS,
    primitive=st.booleans(),
    ray_types=_sequences(JSON_TEXT),
    invariants=JSON_INVARIANTS | JSON_INVARIANTS.map(types.MappingProxyType),
    descriptions=_sequences(JSON_TEXT),
)

SOME_ROW = ground_truth(3)[1]


@settings(max_examples=100, deadline=None)
@example(())
@example((SOME_ROW._replace(descriptions=()),))
@example((SOME_ROW._replace(invariants={}), SOME_ROW._replace(ray_types=[])))
@given(st.lists(TABLE_ROWS, max_size=3))
def test_emit_json_matches_the_indenting_json_dumps(rows):
    assert emit(rows, "json") == _reference_emit_json(rows)


def test_emit_csv_shape():
    lines = emit(ground_truth(2), "csv").decode().splitlines()
    assert len(lines) == 37
    assert lines[0] == "table_id,rho,kx3,rays,primitive,descriptions"
    assert lines[1].startswith("2-1,2,4,")


def test_emit_markdown_shape():
    text = emit(ground_truth(3), "markdown").decode()
    lines = [line for line in text.splitlines() if line]
    assert lines[0] == "| no. | (-K)^3 | description | extremal rays |"
    assert len(lines) == 2 + 4
    assert "| 3-27 | 48 | P^1 x P^1 x P^1 | C2 + C2 + C2 |" in lines


def test_emit_markdown_writes_ray_types_by_display_name():
    row = ground_truth(2)[0]
    rows = (row._replace(ray_types=("E34", "C1")), row._replace(ray_types=("X9",)))
    lines = emit(rows, "markdown").decode().splitlines()
    assert lines[2].endswith("| E3/E4 + C1 |")
    assert lines[3].endswith("| X9 |")  # a tag no parsed row holds, as it is


def test_emit_rejects_unknown_format():
    expected = "unknown output format 'yaml'; expected one of json, csv, markdown"
    with pytest.raises(ConstraintError, match=f"^{re.escape(expected)}$"):
        emit(ground_truth(2), "yaml")
    with pytest.raises(ConstraintError, match=r"^unknown output format \['json'\];"):
        emit(ground_truth(2), ["json"])


def test_truth_source_override(tmp_path, monkeypatch):
    rows = [json.loads(emit((row,), "json"))[0] for row in ground_truth(2)]
    rows[0]["kx3"] += 2
    rows[0]["descriptions"] = ["something else entirely"]
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(rows))
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    doctored = ground_truth(2)
    assert len(doctored) == 36
    assert doctored[0].kx3 == 6
    report = diff(computed_rows(), doctored)
    assert not report.is_empty


def test_truth_rows_are_read_only():
    first = ground_truth(2)
    with pytest.raises(TypeError):
        first[0].invariants["degB"] = (1, 1)
    assert ground_truth(2) == first


def _write_truth(path, kx3_delta=0):
    rows = json.loads(emit(ground_truth(2) + ground_truth(3), "json"))
    rows[0]["kx3"] += kx3_delta
    path.write_text(json.dumps(rows))


def test_truth_is_parsed_once_per_payload(tmp_path, monkeypatch):
    path = tmp_path / "truth.json"
    _write_truth(path)
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    monkeypatch.setattr(table_oracle, "_last_truth", (None, None))
    calls = []
    real_parse = table_oracle.parse_rows

    def counting_parse(data):
        calls.append(data)
        return real_parse(data)

    monkeypatch.setattr(table_oracle, "parse_rows", counting_parse)
    assert len(ground_truth(2)) == 36
    assert len(ground_truth(2, True)) == 9
    assert len(ground_truth(3, True)) == 4
    assert len(calls) == 1
    # the same bytes written again compare equal: nothing more is parsed
    payload = path.read_bytes()
    path.write_bytes(payload)
    assert len(ground_truth(2)) == 36
    assert len(calls) == 1
    # one byte changed: parsed once more, and only once
    changed = payload.replace(b'"kx3": 4,', b'"kx3": 6,', 1)
    assert sum(a != b for a, b in zip(payload, changed)) == 1
    path.write_bytes(changed)
    assert ground_truth(2)[0].kx3 == 6
    assert ground_truth(2)[0].kx3 == 6
    assert calls == [payload, changed]


def test_rewritten_truth_file_is_seen(tmp_path, monkeypatch):
    path = tmp_path / "truth.json"
    _write_truth(path)
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert ground_truth(2)[0].kx3 == 4
    _write_truth(path, kx3_delta=2)
    assert ground_truth(2)[0].kx3 == 6


def test_labels_follow_a_truth_file_rewritten_in_place(tmp_path, monkeypatch):
    path = tmp_path / "truth.json"
    _write_truth(path)
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(path))
    assert record_to_row(enumerate_all(2)[0]).table_id == "2-1"
    rows = json.loads(path.read_text())
    rows[0]["table_id"] = "2-1x"
    path.write_text(json.dumps(rows))
    assert ground_truth(2)[0].table_id == "2-1x"
    assert diff(enumerate_all(2), ground_truth(2)).is_empty


def _reference_table_id(record):
    """The id of the truth row with the record's cube and per-ray degree data.

    The rays compare as multisets of (type tag, degB, d2, deg_delta), with
    None where a field does not apply.
    """
    rays = Counter((s.ray_type.value, s.degB, s.d2, s.deg_delta) for s in record.rays)
    for row in ground_truth(record.rho):
        absent = (None,) * len(row.ray_types)
        columns = [row.invariants.get(name, absent) for name in ("degB", "d2", "deg_delta")]
        if row.kx3 == record.kx3 and Counter(zip(row.ray_types, *columns)) == rays:
            return row.table_id
    return ""


def _reference_record_to_row(record):
    """record_to_row as it was before it read each ray's fields in one call."""
    invariants = {}
    for name in table_oracle._INVARIANT_FIELDS:
        values = tuple(getattr(spec, name) for spec in record.rays)
        if any(v is not None for v in values):
            invariants[name] = values
    primitive = record.rho == 3 or all(t is not RayType.E1 for t in record.ray_types)
    return TableRow(
        table_id=_reference_table_id(record),
        rho=record.rho,
        kx3=record.kx3,
        primitive=primitive,
        ray_types=tuple(t.value for t in record.ray_types),
        invariants=invariants,
        descriptions=tuple(record.descriptions),
    )


@pytest.mark.parametrize("rho,primitive_only", [(2, False), (2, True), (3, True)])
def test_record_to_row_matches_the_reference(rho, primitive_only):
    records = enumerate_all(rho, primitive_only)
    for record in records + (records[0]._replace(rays=()),):
        row, reference = record_to_row(record), _reference_record_to_row(record)
        assert row == reference
        assert list(row.invariants) == list(reference.invariants)  # key order


def _reference_diff(records, rows):
    """diff as it was before it compared raw descriptions first."""
    by_id = {row.table_id: row for row in rows}
    matched = set()
    extra = []
    mismatched = []
    for record in records:
        computed = record if isinstance(record, TableRow) else record_to_row(record)
        table_id = computed.table_id
        if not table_id or table_id not in by_id or table_id in matched:
            extra.append(
                _record_label(table_id, computed.rho, computed.kx3, computed.ray_types)
            )
            continue
        matched.add(table_id)
        row = by_id[table_id]
        if computed.kx3 != row.kx3:
            mismatched.append((table_id, "kx3", row.kx3, computed.kx3))
        if computed.ray_types != row.ray_types:
            mismatched.append((table_id, "ray_types", row.ray_types, computed.ray_types))
        if computed.primitive != row.primitive:
            mismatched.append((table_id, "primitive", row.primitive, computed.primitive))
        for key in sorted(row.invariants):
            expected_values = row.invariants[key]
            actual_values = computed.invariants.get(key)
            for i, expected in enumerate(expected_values):
                if expected is None:
                    continue
                actual = None
                if actual_values is not None and i < len(actual_values):
                    actual = actual_values[i]
                if actual != expected:
                    mismatched.append((table_id, f"invariants.{key}[{i}]", expected, actual))
        if _normalized_multiset(computed.descriptions) != _normalized_multiset(
            row.descriptions
        ):
            mismatched.append((table_id, "descriptions", row.descriptions, computed.descriptions))
    missing = tuple(row.table_id for row in rows if row.table_id not in matched)
    return DiffReport(missing=missing, extra=tuple(extra), mismatched=tuple(mismatched))


def _perturbed(draw, text):
    """``text`` unchanged, in another case, with a punctuation mark, or with a word changed."""
    kind = draw(st.sampled_from(("same", "case", "punctuation", "word")))
    if kind == "case":
        return draw(st.sampled_from((str.upper, str.title, str.swapcase)))(text)
    if kind == "punctuation":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(".,;:-_()!")) + text[at:]
    if kind == "word":
        words = text.split(" ")
        words[draw(st.integers(0, len(words) - 1))] = draw(
            st.sampled_from(("curve", "Conic", "P^3", "quadric", "a", "x"))
        )
        return " ".join(words)
    return text


@st.composite
def rows_with_perturbed_descriptions(draw, rows):
    """``rows`` with the descriptions of a few rows reordered and perturbed."""
    rows = list(rows)
    for index in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4, unique=True)):
        texts = draw(st.permutations(rows[index].descriptions))
        rows[index] = rows[index]._replace(
            descriptions=tuple(_perturbed(draw, text) for text in texts)
        )
    return rows


COMPUTED_ROWS = tuple(record_to_row(record) for record in enumerate_all(2))


@settings(max_examples=100, deadline=None)
@given(
    rows_with_perturbed_descriptions(COMPUTED_ROWS),
    rows_with_perturbed_descriptions(ground_truth(2)),
)
def test_diff_matches_the_always_normalizing_reference(computed, truth):
    assert diff(computed, truth) == _reference_diff(computed, truth)


# The records and truth rows of the three calls a library verify makes.
VERIFY_CALLS = (
    (enumerate_all(2), ground_truth(2)),
    (enumerate_all(2, primitive_only=True), ground_truth(2, primitive_only=True)),
    (enumerate_all(3, primitive_only=True), ground_truth(3, primitive_only=True)),
)
OTHER_RANK_RECORDS = {2: VERIFY_CALLS[2][0], 3: VERIFY_CALLS[0][0]}


def _changed(value):
    """An invariant element other than ``value``: one more, or 1 for None."""
    if value is None:
        return 1
    if type(value) is tuple:
        return (value[0] + 1, value[1])
    return value + 1


def _edited_column(draw, row):
    """A column name and its values after one edit of ``row``'s invariants.

    The values are None when the edit removes the column.
    """
    length = len(row.ray_types)
    kind = draw(st.sampled_from(("change", "none", "remove", "alien", "length")))
    if kind == "alien":  # a name that no RaySpec invariant field carries
        name = draw(st.sampled_from(("ray_type", "rho", "h12")))
        return name, tuple(draw(st.lists(st.none() | st.integers(0, 9), min_size=length,
                                         max_size=length)))
    name = draw(st.sampled_from(sorted(row.invariants) or table_oracle._INVARIANT_FIELDS))
    values = list(row.invariants.get(name, (None,) * length))
    if kind == "remove":
        return name, None
    if kind == "length":  # one element short or one too many
        if draw(st.booleans()) or not values:
            return name, (*values, draw(st.none() | st.integers(0, 9)))
        return name, tuple(values[:-1])
    if values:
        at = draw(st.integers(0, len(values) - 1))
        values[at] = _changed(values[at]) if kind == "change" else None
    return name, tuple(values)


@st.composite
def verify_inputs(draw):
    """The records and rows of one verify call, with records and rows edited.

    Records are dropped, duplicated, reordered and joined by one of the other
    rank; a few rows have an invariant column edited as :func:`_edited_column`
    says, and their descriptions perturbed.
    """
    records, rows = draw(st.sampled_from(VERIFY_CALLS))
    dropped = draw(st.sets(st.integers(0, len(records) - 1), max_size=3))
    records = [record for index, record in enumerate(records) if index not in dropped]
    records += draw(st.lists(st.sampled_from(records), max_size=2))
    records += draw(st.lists(st.sampled_from(OTHER_RANK_RECORDS[rows[0].rho]), max_size=1))
    records = draw(st.permutations(records))
    rows = draw(rows_with_perturbed_descriptions(rows))
    for index in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4, unique=True)):
        invariants = dict(rows[index].invariants)
        name, values = _edited_column(draw, rows[index])
        if values is None:
            invariants.pop(name, None)
        else:
            invariants[name] = values
        rows[index] = rows[index]._replace(invariants=invariants)
    return records, rows


@settings(max_examples=200, deadline=None)
@given(verify_inputs())
def test_diff_of_records_matches_diff_of_their_rows_and_the_reference(inputs):
    records, rows = inputs
    report = diff(records, rows)
    assert report == diff(table_oracle.label(records), rows)
    assert report == _reference_diff(records, rows)


def test_diff_projects_no_record(monkeypatch):
    projected = []
    project = table_oracle._project

    def counting_project(record, ids):
        projected.append(record)
        return project(record, ids)

    monkeypatch.setattr(table_oracle, "_project", counting_project)
    records = enumerate_all(2)
    assert diff(records, ground_truth(2)).is_empty
    assert projected == []
    alien = records[0]._replace(rays=())
    added_and_labels = (
        (alien, "? (rho=2, (-K)^3=4, rays=)"),
        (records[5], "2-6 (rho=2, (-K)^3=12, rays=C1+C1)"),
        (enumerate_all(3, primitive_only=True)[0], "3-1 (rho=3, (-K)^3=12, rays=C1+C1+C1)"),
    )
    for added, extra_label in added_and_labels:
        report = diff(records + (added,), ground_truth(2))
        assert projected == []
        assert report == DiffReport(extra=(extra_label,))


def test_diff_reads_iterators_of_records_and_rows_once():
    records = enumerate_all(2)
    report = diff(iter(records[1:]), iter(ground_truth(2)))
    assert report == DiffReport(missing=("2-1",))


def _reference_normalize(text):
    cleaned = "".join(ch if ch.isalnum() else " " for ch in text.lower())
    return " ".join(cleaned.split())


@given(st.text())
def test_normalize_description_matches_the_isalnum_reference(text):
    assert _normalize_description(text) == _reference_normalize(text)


# Any JSON value, kept small so that a hundred examples parse in well under
# a second.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

PACKAGED_TRUTH = Path(table_oracle._PACKAGED_TRUTH).read_text()


def _outcomes(text):
    """What ``table_oracle._loads`` and ``json.loads`` make of ``text``, in that order.

    Each is a value's repr or the exception's type and message.  This imports
    what it uses, so that a probe of another interpreter can run its source.
    """
    import json

    from fanoenum.table_oracle import _loads

    def outcome(loads):
        try:
            return ["value", repr(loads(text))]
        except (ValueError, RecursionError) as exc:
            return [type(exc).__name__, str(exc)]

    return [outcome(_loads), outcome(json.loads)]


# Texts at the edge of what json.loads takes: no value, a byte order mark,
# extra data, a trailing comma, the three constants, a float out of range, a
# raw tab in a string, a repeated key, the four JSON whitespace characters,
# a form feed (not one of them), too many digits for int(), and nesting
# within and beyond the recursion limit.
EDGE_TEXTS = [
    "", "\ufeff[]", " \ufeff[]", "[] x", "[1] [2]", "[1,]",
    "NaN", "Infinity", "-Infinity", "[NaN, Infinity, -Infinity]", "1e400",
    '"a\tb"', '{"a": 1, "a": 2}', " \t\n\r[1] \t\n\r", "\x0c[]", "[]\x0c",
    "1" * 5000, "[" * 50 + "]" * 50, "[" * 100_000 + "]" * 100_000,
]


@pytest.mark.parametrize(
    "text",
    [
        PACKAGED_TRUTH,
        *(
            emit(map(record_to_row, enumerate_all(rho, primitive_only=rho == 3)), fmt).decode()
            for rho, fmt in sorted(EMIT_SHA256)
        ),
    ],
    ids=["packaged-truth", *(f"emit-{rho}-{fmt}" for rho, fmt in sorted(EMIT_SHA256))],
)
def test_loads_reads_the_truth_and_the_golden_payloads_as_json_does(text):
    loaded, expected = _outcomes(text)
    assert loaded == expected


@pytest.mark.parametrize("text", EDGE_TEXTS, ids=lambda text: repr(text[:12]))
def test_loads_at_the_edge_of_json_is_json(text):
    loaded, expected = _outcomes(text)
    assert loaded == expected


_WHITESPACE = st.text(" \t\n\r\x0c", max_size=3)
# Texts made of JSON's own characters, and JSON values with whitespace
# around them and sometimes a character after them.
JSON_ISH_TEXTS = st.text(' \t\n\r\x0c\ufeff[]{}:,"\\0123456789.-+eEaflnrstuINy', max_size=20) | st.tuples(
    _WHITESPACE, JSON_VALUES.map(json.dumps), _WHITESPACE, st.sampled_from(["", "x", ",", "]"])
).map("".join)


@settings(max_examples=200, deadline=None)
@given(JSON_ISH_TEXTS)
def test_loads_of_any_json_ish_text_is_json(text):
    loaded, expected = _outcomes(text)
    assert loaded == expected


@pytest.mark.parametrize("python", _other_interpreters())
def test_loads_at_the_edge_of_json_is_json_under_every_other_installed_cpython(python):
    # _json is private to CPython: its scanner's context may change by version
    probe = inspect.getsource(_outcomes) + (
        "import json, sys\n"
        "print(json.dumps([_outcomes(text) for text in json.load(sys.stdin)]))\n"
    )
    proc = subprocess.run(
        [str(python), "-c", probe], input=json.dumps(EDGE_TEXTS), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    for text, (loaded, expected) in zip(EDGE_TEXTS, json.loads(proc.stdout), strict=True):
        assert loaded == expected, text[:12]


def test_the_packaged_truth_is_in_the_layout_emit_writes():
    data = Path(table_oracle._PACKAGED_TRUTH).read_bytes()
    assert emit(parse_rows(data), "json") == data

# A one-ray row whose degB list holds an object, which would make its table
# key unhashable.
ROW_WITH_A_DICT_DEGREE = dict(
    json.loads(PACKAGED_TRUTH)[0], ray_types=["C1"], invariants={"degB": [{"a": 1}]}
)


def _parses_or_raises_constraint_error(value):
    try:
        table_oracle._parse_truth(json.dumps(value).encode())
    except ConstraintError:
        pass


@settings(max_examples=100, deadline=None)
@example([ROW_WITH_A_DICT_DEGREE])
@given(JSON_VALUES)
def test_truth_parser_takes_any_json_value(value):
    _parses_or_raises_constraint_error(value)


@st.composite
def packaged_rows_with_one_value_replaced(draw):
    """The packaged rows with a row, field or element replaced by any JSON value."""
    rows = json.loads(PACKAGED_TRUTH)
    container, key = rows, draw(st.integers(0, len(rows) - 1))
    while isinstance(container[key], (list, dict)) and container[key] and draw(st.booleans()):
        container = container[key]
        key = draw(st.sampled_from(sorted(container) if isinstance(container, dict)
                                   else range(len(container))))
    container[key] = draw(JSON_VALUES)
    return rows


@settings(max_examples=100, deadline=None)
@given(packaged_rows_with_one_value_replaced())
def test_truth_parser_takes_a_packaged_row_with_any_value_replaced(rows):
    _parses_or_raises_constraint_error(rows)
