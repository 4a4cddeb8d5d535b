"""The embedded classification table and the diff against computed records.

The ground truth ships as a JSON array inside the package (one object per
family) and can be swapped out with the ``FANO_GROUND_TRUTH`` environment
variable pointing at an alternative file of the same shape.  All comparisons
are exact on integers; descriptions are compared as multisets after a
normalization that forgets case and punctuation.
"""

from __future__ import annotations

import functools
import io
import json
import operator
import os
import re
import types
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import ConstraintError, UnsupportedScopeError
from .ray_constraints import RayType

__all__ = [
    "TableRow",
    "DiffReport",
    "ground_truth",
    "record_to_row",
    "diff",
    "emit",
    "parse_rows",
]

# Per-ray integer data a row may carry, in emission order.
_INVARIANT_FIELDS = ("deg_delta", "d2", "r", "L3", "degB", "genus", "e", "delta_bidegree")
# A ray's values of those fields, read in one call.
_RAY_INVARIANTS = operator.attrgetter(*_INVARIANT_FIELDS)

_EMIT_FORMATS = ("json", "csv", "markdown")


class TableRow(NamedTuple):
    """One classification-table row in a solver-independent shape.

    ``ray_types`` holds type tags ("C1" .. "E5", with "E34" for E3/E4) in
    canonical order; ``invariants`` maps a field name to a per-ray tuple
    aligned with ``ray_types``, with None where the field does not apply.
    Rows parsed from JSON carry a read-only ``invariants`` mapping, because
    the parsed truth is shared by every caller.
    """

    table_id: str
    rho: int
    kx3: int
    primitive: bool
    ray_types: tuple[str, ...]
    invariants: Mapping[str, tuple]
    descriptions: tuple[str, ...]


class DiffReport(NamedTuple):
    """Outcome of comparing computed records against table rows.

    ``missing`` lists table ids no record matched; ``extra`` labels records
    that matched no row (or matched one twice); ``mismatched`` holds
    (table_id, field, expected, actual) for every disagreeing value.  The
    report is truthy exactly when there is something to report.
    """

    missing: tuple[str, ...] = ()
    extra: tuple[str, ...] = ()
    mismatched: tuple[tuple[str, str, object, object], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.missing or self.extra or self.mismatched)

    def __bool__(self) -> bool:
        return not self.is_empty

    def render(self) -> str:
        if self.is_empty:
            return "no differences"
        lines = []
        for table_id in self.missing:
            lines.append(f"missing: no computed record matches row {table_id}")
        for label in self.extra:
            lines.append(f"extra: computed record {label} matches no row")
        for table_id, fieldname, expected, actual in self.mismatched:
            lines.append(
                f"mismatch at {table_id}.{fieldname}: table has {expected!r}, "
                f"computed {actual!r}"
            )
        return "\n".join(lines)


# The types of an integer or a null; bool is a subclass of int, and not one.
_INTEGER_OR_NULL = frozenset({int, type(None)})


def _pair_or_null(value) -> bool:
    return value is None or (
        type(value) is list
        and len(value) == 2
        and type(value[0]) is int
        and type(value[1]) is int
    )


def _freeze(index: int, name: str, values: list, length: int) -> tuple:
    """One ``invariants`` list as a tuple, after checking its elements.

    There is one element per ray, each null or an integer (not a bool), or
    for ``delta_bidegree`` null or a list of two integers.
    """
    if name == "delta_bidegree":
        valid = all(map(_pair_or_null, values))
        if valid:
            values = [None if value is None else tuple(value) for value in values]
    else:
        valid = _INTEGER_OR_NULL.issuperset(map(type, values))
    if not valid or len(values) != length:
        kind = "integer pairs" if name == "delta_bidegree" else "integers"
        raise ConstraintError(
            f"ground truth row {index}: invariants.{name} must be a list of "
            f"{kind} or nulls, one per ray"
        )
    return tuple(values)


def _thaw(value):
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def _strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _lists(value) -> bool:
    return type(value) is dict and all(type(v) is list for v in value.values())


_MISSING = object()

# Each field of a row object: its name, the test its JSON value must pass,
# what the test asks for, and the default of an optional field.  bool is a
# subclass of int, so the integer tests compare types exactly.
_ROW_FIELDS = (
    ("table_id", lambda v: type(v) is str, "a string", _MISSING),
    ("rho", lambda v: type(v) is int, "an integer", _MISSING),
    ("kx3", lambda v: type(v) is int, "an integer", _MISSING),
    ("primitive", lambda v: type(v) is bool, "a boolean", _MISSING),
    ("ray_types", _strings, "a list of strings", _MISSING),
    ("invariants", _lists, "an object whose values are lists", {}),
    ("descriptions", _strings, "a list of strings", []),
)


def _parse_row(index: int, item) -> TableRow:
    if type(item) is not dict:
        raise ConstraintError(f"ground truth row {index} is not an object")
    values = []
    for name, valid, kind, default in _ROW_FIELDS:
        value = item.get(name, default)
        if value is _MISSING:
            raise ConstraintError(f"ground truth row {index} lacks the field {name!r}")
        if not valid(value):
            raise ConstraintError(f"ground truth row {index}: {name} must be {kind}")
        values.append(value)
    table_id, rho, kx3, primitive, ray_types, invariants, descriptions = values
    return TableRow(
        table_id,
        rho,
        kx3,
        primitive,
        tuple(ray_types),
        types.MappingProxyType(
            {k: _freeze(index, k, v, len(ray_types)) for k, v in invariants.items()}
        ),
        tuple(descriptions),
    )


def parse_rows(data: bytes) -> tuple[TableRow, ...]:
    """Parse the JSON row-array format back into TableRow objects.

    Malformed input raises :class:`ConstraintError`, naming the offending row
    and, for a missing or wrong-typed value, the field.
    """
    try:
        raw = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ConstraintError(f"ground truth is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ConstraintError("ground truth must be a JSON array of row objects")
    return tuple(_parse_row(index, item) for index, item in enumerate(raw))


def table_key(rho: int, kx3: int, rays: Iterable[tuple]) -> tuple:
    """The key that picks out a family's row: rank, cube, per-ray degree data.

    ``rays`` yields (type tag, degB, d2, deg_delta) per ray, with None where a
    field does not apply; the key forgets the order of the rays.
    """
    per_ray = (
        (tag, degB or 0, d2 or 0, -1 if deg_delta is None else deg_delta)
        for tag, degB, d2, deg_delta in rays
    )
    return (rho, kx3, tuple(sorted(per_ray)))


@functools.lru_cache(maxsize=1)
def _parse_truth(payload: bytes) -> tuple[tuple[TableRow, ...], Mapping[tuple, str]]:
    """parse_rows of the last payload seen and its row ids by table_key.

    Keying on content rather than on the path means a rewritten truth file is
    always seen; one entry means the cache cannot grow.
    """
    rows = parse_rows(payload)
    ids = {}
    for row in rows:
        absent = (None,) * len(row.ray_types)
        degrees = (row.invariants.get(name, absent) for name in ("degB", "d2", "deg_delta"))
        ids[table_key(row.rho, row.kx3, zip(row.ray_types, *degrees))] = row.table_id
    return rows, types.MappingProxyType(ids)


# The package is installed unpacked (setuptools package-data), so its data
# sits beside this file; importlib.resources would add a lookup to every read
# and an import of its resource readers on first use.
_PACKAGED_TRUTH = Path(__file__).with_name("data") / "ground_truth.json"


def _load_truth() -> tuple[tuple[TableRow, ...], Mapping[tuple, str]]:
    override = os.environ.get("FANO_GROUND_TRUTH")
    return _parse_truth((Path(override) if override else _PACKAGED_TRUTH).read_bytes())


def ground_truth(rho: int, primitive_only: bool = False) -> tuple[TableRow, ...]:
    """The embedded table rows of the given Picard rank, in file order."""
    if rho not in (2, 3):
        raise UnsupportedScopeError(f"no table for Picard rank {rho}")
    rows = tuple(row for row in _load_truth()[0] if row.rho == rho)
    if primitive_only:
        rows = tuple(row for row in rows if row.primitive)
    return rows


def table_ids() -> Mapping[tuple, str]:
    """Row id by :func:`table_key` over every row of the active ground truth.

    The truth is read and parsed as for :func:`ground_truth`.
    """
    return _load_truth()[1]


def record_to_row(record) -> TableRow:
    """Project a solution record onto the table-row shape used for diffs."""
    columns = zip(_INVARIANT_FIELDS, zip(*map(_RAY_INVARIANTS, record.rays)))
    invariants = {
        name: values for name, values in columns if values.count(None) < len(values)
    }
    ray_types = record.ray_types
    return TableRow(
        table_id=record.table_id,
        rho=record.rho,
        kx3=record.kx3,
        primitive=record.rho == 3 or RayType.E1 not in ray_types,
        ray_types=tuple(t.value for t in ray_types),
        invariants=invariants,
        descriptions=tuple(record.descriptions),
    )


# In a str pattern \W is exactly "not isalnum() and not '_'".
_NOT_ALNUM = re.compile(r"[\W_]+")


def _normalize_description(text: str) -> str:
    return _NOT_ALNUM.sub(" ", text.lower()).strip()


def _normalized_multiset(descriptions: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(_normalize_description(d) for d in descriptions))


def _record_label(row: TableRow) -> str:
    rays = "+".join(row.ray_types)
    table_id = row.table_id or "?"
    return f"{table_id} (rho={row.rho}, (-K)^3={row.kx3}, rays={rays})"


def diff(records, rows: Iterable[TableRow]) -> DiffReport:
    """Field-by-field comparison of computed records against table rows.

    Every invariant the table states is checked against the computed value
    (table entries of None are "not applicable" and skipped); computed fields
    the table does not mention are ignored, so the table stays the single
    yardstick.  Descriptions compare as normalized multisets.
    """
    by_id = {row.table_id: row for row in rows}
    matched: set[str] = set()
    extra: list[str] = []
    mismatched: list[tuple[str, str, object, object]] = []
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
                    mismatched.append(
                        (table_id, f"invariants.{key}[{i}]", expected, actual)
                    )
        # normalizing maps equal texts to equal texts: only unequal ones need it
        if sorted(computed.descriptions) != sorted(row.descriptions) and (
            _normalized_multiset(computed.descriptions)
            != _normalized_multiset(row.descriptions)
        ):
            mismatched.append(
                (table_id, "descriptions", row.descriptions, computed.descriptions)
            )
    missing = tuple(row.table_id for row in rows if row.table_id not in matched)
    return DiffReport(missing=missing, extra=tuple(extra), mismatched=tuple(mismatched))


def _row_dict(row: TableRow) -> dict:
    return {
        "table_id": row.table_id,
        "rho": row.rho,
        "kx3": row.kx3,
        "primitive": row.primitive,
        "ray_types": list(row.ray_types),
        "invariants": {k: _thaw(v) for k, v in row.invariants.items()},
        "descriptions": list(row.descriptions),
    }


def _emit_json(rows: tuple[TableRow, ...]) -> bytes:
    return json.dumps([_row_dict(r) for r in rows], indent=2, sort_keys=True).encode(
        "utf-8"
    )


def _emit_csv(rows: tuple[TableRow, ...]) -> bytes:
    # imported here: only this format needs csv, and no other command should load it
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["table_id", "rho", "kx3", "rays", "primitive", "descriptions"])
    for row in rows:
        writer.writerow(
            [
                row.table_id,
                row.rho,
                row.kx3,
                "+".join(row.ray_types),
                "yes" if row.primitive else "no",
                " | ".join(row.descriptions),
            ]
        )
    return buffer.getvalue().encode("utf-8")


def _emit_markdown(rows: tuple[TableRow, ...]) -> bytes:
    lines = [
        "| no. | (-K)^3 | description | extremal rays |",
        "| --- | --- | --- | --- |",
    ]
    for row in rows:
        rays = " + ".join(RayType(tag).display for tag in row.ray_types)
        description = ", or ".join(row.descriptions)
        lines.append(f"| {row.table_id} | {row.kx3} | {description} | {rays} |")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit(rows: Iterable[TableRow], fmt: str = "json") -> bytes:
    """Serialize rows deterministically as UTF-8 bytes with LF newlines."""
    rows = tuple(rows)
    if fmt == "json":
        return _emit_json(rows)
    if fmt == "csv":
        return _emit_csv(rows)
    if fmt == "markdown":
        return _emit_markdown(rows)
    raise ConstraintError(
        f"unknown output format {fmt!r}; expected one of {', '.join(_EMIT_FORMATS)}"
    )
