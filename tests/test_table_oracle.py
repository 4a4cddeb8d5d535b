"""Embedded classification tables, the diff machinery, and serialization."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from fanoenum import table_oracle
from fanoenum.enumerator import enumerate_all
from fanoenum.errors import ConstraintError, UnsupportedScopeError
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


def test_emit_json_round_trips():
    rows = ground_truth(2)
    payload = emit(rows, "json")
    assert parse_rows(payload) == rows
    assert emit(rows, "json") == payload  # byte-determinism
    assert emit((), "json") == b"[]"


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


def test_emit_rejects_unknown_format():
    with pytest.raises(ConstraintError):
        emit(ground_truth(2), "yaml")


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
    table_oracle._parse_truth.cache_clear()
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
    assert enumerate_all(2)[0].table_id == "2-1"
    rows = json.loads(path.read_text())
    rows[0]["table_id"] = "2-1x"
    path.write_text(json.dumps(rows))
    assert ground_truth(2)[0].table_id == "2-1x"
    assert diff(enumerate_all(2), ground_truth(2)).is_empty


def _reference_record_to_row(record):
    """record_to_row as it was before it read each ray's fields in one call."""
    invariants = {}
    for name in table_oracle._INVARIANT_FIELDS:
        values = tuple(getattr(spec, name) for spec in record.rays)
        if any(v is not None for v in values):
            invariants[name] = values
    primitive = record.rho == 3 or all(t is not RayType.E1 for t in record.ray_types)
    return TableRow(
        table_id=record.table_id,
        rho=record.rho,
        kx3=record.kx3,
        primitive=primitive,
        ray_types=tuple(t.value for t in record.ray_types),
        invariants=invariants,
        descriptions=tuple(record.descriptions),
    )


@pytest.mark.parametrize("rho,primitive_only", [(2, False), (2, True), (3, True)])
def test_record_to_row_matches_the_reference(rho, primitive_only):
    for record in enumerate_all(rho, primitive_only):
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
            extra.append(_record_label(computed))
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

PACKAGED_TRUTH = table_oracle._PACKAGED_TRUTH.read_text()

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
