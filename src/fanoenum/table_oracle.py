"""The embedded classification table and the diff against computed records.

The ground truth ships as a JSON array inside the package (one object per
family) and can be swapped out with the ``FANO_GROUND_TRUTH`` environment
variable pointing at an alternative file of the same shape.  The solvers
never read it: a record is labelled with the id of the truth row that has
its rank, cube and per-ray degree data when it is projected onto a row.  All
comparisons are exact on integers; descriptions are compared as multisets
after a normalization that forgets case and punctuation.
"""

from __future__ import annotations

import functools
import io
import json
import operator
import os
import re
import types
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import ConstraintError, UnsupportedScopeError
from .ray_constraints import RaySpec, RayType

__all__ = [
    "TableRow",
    "DiffReport",
    "ground_truth",
    "record_to_row",
    "label",
    "diff",
    "emit",
    "parse_rows",
]

# Per-ray integer data a row may carry, in emission order.
_INVARIANT_FIELDS = ("deg_delta", "d2", "r", "L3", "degB", "genus", "e", "delta_bidegree")
# A ray's type and its values of those fields, read from the RaySpec tuple
# in one call.
_RAY_DATA = operator.itemgetter(0, *map(RaySpec._fields.index, _INVARIANT_FIELDS))

_EMIT_FORMATS = ("json", "csv", "markdown")

# The display name of each ray-type tag a row may hold.
_RAY_DISPLAY = {ray_type.value: ray_type.display for ray_type in RayType}
# The tag of each ray type: a dict read costs a tenth of the .value property.
_TAG = {ray_type: ray_type.value for ray_type in RayType}


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
    for tag in ray_types:
        if tag not in _RAY_DISPLAY:
            raise ConstraintError(
                f"ground truth row {index}: ray_types holds {tag!r}, which is not a ray"
                f" type; expected one of {', '.join(_RAY_DISPLAY)}"
            )
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
    except RecursionError as exc:
        raise ConstraintError("ground truth nests its arrays or objects too deeply") from exc
    if not isinstance(raw, list):
        raise ConstraintError("ground truth must be a JSON array of row objects")
    return tuple(_parse_row(index, item) for index, item in enumerate(raw))


def _row_key(rho: int, kx3: int, ray_types: tuple, invariants: Mapping) -> tuple:
    """The key that picks out a family's row: rank, cube, per-ray degree data.

    Per ray it reads the type tag and the ``degB``, ``d2`` and ``deg_delta``
    columns (None where a field does not apply, or the column is absent);
    the key forgets the order of the rays.
    """
    absent = (None,) * len(ray_types)
    degrees = [invariants.get(name, absent) for name in ("degB", "d2", "deg_delta")]
    per_ray = (
        (tag, degB or 0, d2 or 0, -1 if deg_delta is None else deg_delta)
        for tag, degB, d2, deg_delta in zip(ray_types, *degrees)
    )
    return (rho, kx3, tuple(sorted(per_ray)))


@functools.lru_cache(maxsize=1)
def _parse_truth(payload: bytes) -> tuple[tuple[TableRow, ...], Mapping[tuple, str]]:
    """parse_rows of the last payload seen and its row ids by _row_key.

    A table id names one row: a repeated one raises ConstraintError.  Keying
    on content rather than on the path means a rewritten truth file is always
    seen; one entry means the cache cannot grow.
    """
    rows = parse_rows(payload)
    first_rows: dict[str, int] = {}
    for index, row in enumerate(rows):
        if (first := first_rows.setdefault(row.table_id, index)) != index:
            raise ConstraintError(
                f"ground truth rows {first} and {index} share the table_id {row.table_id!r}"
            )
    ids = {
        _row_key(row.rho, row.kx3, row.ray_types, row.invariants): row.table_id
        for row in rows
    }
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


def _project(record, ids: Mapping[tuple, str]) -> TableRow:
    """``record`` as a row, with the id that ``ids`` holds for its key, or ""."""
    ray_types, *columns = zip(*map(_RAY_DATA, record.rays)) if record.rays else ((),)
    tags = tuple(map(_TAG.__getitem__, ray_types))
    unset = (None,) * len(tags)
    invariants = {
        name: values for name, values in zip(_INVARIANT_FIELDS, columns) if values != unset
    }
    rho, kx3 = record.form.rho, record.kx3
    return TableRow(
        ids.get(_row_key(rho, kx3, tags, invariants), ""),
        rho,
        kx3,
        rho == 3 or "E1" not in tags,
        tags,
        invariants,
        tuple(record.descriptions),
    )


def record_to_row(record) -> TableRow:
    """Project a solution record onto the table-row shape used for diffs.

    The row is labelled with the id of the active ground truth's row that has
    the record's rank, cube and per-ray degree data, or "" when none has.
    """
    return _project(record, _load_truth()[1])


def label(records) -> tuple[TableRow, ...]:
    """:func:`record_to_row` of each record, reading the ground truth once."""
    ids = _load_truth()[1]
    return tuple(_project(record, ids) for record in records)


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
    yardstick.  Descriptions compare as normalized multisets.  Records that
    are not TableRows are labelled as by :func:`label`, with one read of the
    ground truth.
    """
    by_id = {row.table_id: row for row in rows}
    matched: set[str] = set()
    extra: list[str] = []
    mismatched: list[tuple[str, str, object, object]] = []
    ids = None
    for record in records:
        if isinstance(record, TableRow):
            computed = record
        else:
            ids = _load_truth()[1] if ids is None else ids
            computed = _project(record, ids)
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


# How json.dumps writes a scalar of the row shape, by exact type, so that a
# bool is never taken for an int ("null".format ignores its argument).
_JSON_SCALARS = {
    type(None): "null".format,
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    str: encode_basestring_ascii,
}


def _json(value, indent: str) -> str:
    """``value`` as json.dumps(..., indent=2) writes it ``indent`` deep."""
    write = _JSON_SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)  # no other value occurs in a row
    if not value:
        return "[]"
    inner = indent + "  "
    items = []
    for item in value:  # most items are scalars: write them without a call
        write = _JSON_SCALARS.get(type(item))
        items.append(_json(item, inner) if write is None else write(item))
    separator = ",\n" + inner
    return f"[\n{inner}{separator.join(items)}\n{indent}]"


def _emit_json(rows: tuple[TableRow, ...]) -> bytes:
    """json.dumps(rows as objects, indent=2, sort_keys=True), row by row.

    CPython's C encoder does not indent, and its Python one is slow.
    """
    objects = []
    for row in rows:
        invariants = "{}"
        if row.invariants:
            fields = ",\n      ".join(
                [
                    f"{encode_basestring_ascii(name)}: {_json(row.invariants[name], '      ')}"
                    for name in sorted(row.invariants)
                ]
            )
            invariants = f"{{\n      {fields}\n    }}"
        objects.append(
            f'  {{\n    "descriptions": {_json(row.descriptions, "    ")},\n'
            f'    "invariants": {invariants},\n'
            f'    "kx3": {_json(row.kx3, "    ")},\n'
            f'    "primitive": {_json(row.primitive, "    ")},\n'
            f'    "ray_types": {_json(row.ray_types, "    ")},\n'
            f'    "rho": {_json(row.rho, "    ")},\n'
            f'    "table_id": {_json(row.table_id, "    ")}\n  }}'
        )
    return ("[\n" + ",\n".join(objects) + "\n]" if objects else "[]").encode("utf-8")


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
        rays = " + ".join([_RAY_DISPLAY.get(tag, tag) for tag in row.ray_types])
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
