"""The embedded classification table and the diff against computed records.

The ground truth ships as a JSON array inside the package (one object per
family) and can be swapped out with the ``FANO_GROUND_TRUTH`` environment
variable pointing at an alternative file of the same shape.  The solvers
never read it: a record is labelled with the id of the truth row that has
its rank, cube and per-ray degree data.  :func:`label` and :func:`diff`
read that id with a record's rank, cube, primitivity and ray tags in one
place; :func:`label` projects the record onto a row, and :func:`diff` never
does: it compares the record in place, reading its rays' fields by
position.  All comparisons are exact on integers; descriptions are
compared as multisets after a normalization that forgets case and
punctuation.

The truth is read and JSON is written with CPython's ``_json`` accelerator
alone: its C scanner parses the truth, and its ``encode_basestring_ascii``
writes strings.  Importing ``json`` costs more than parsing the truth,
because ``json.decoder``, ``json.scanner`` and ``json.encoder`` compile
regular expressions at import.  It is imported only to raise
``json.loads``'s own error for a text the scanner does not take whole, or
where ``_json`` is missing.
"""

import io
import operator
import os
import re
import types
from collections import namedtuple
from collections.abc import Iterable, Mapping

from .errors import INTEGER, ConstraintError, UnsupportedScopeError
from .ray_constraints import INT_OR_NONE, RaySpec, RayType

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

# Per-ray integer data a row may carry: the order of the mapping label
# builds (emit writes its keys sorted).
_INVARIANT_FIELDS = ("deg_delta", "d2", "r", "L3", "degB", "genus", "e", "delta_bidegree")
# A ray's values of those fields, read from the RaySpec tuple in one call.
_RAY_DATA = operator.itemgetter(*map(RaySpec._fields.index, _INVARIANT_FIELDS))
# Each of those fields, read from a RaySpec tuple by position.
_FIELD = {name: operator.itemgetter(RaySpec._fields.index(name)) for name in _INVARIANT_FIELDS}
# The degree data of a ray that a row key reads, in the order _ray_key takes it.
_KEY_DEGREES = ("degB", "d2", "deg_delta")
_KEY_DATA = operator.itemgetter(*map(RaySpec._fields.index, _KEY_DEGREES))

try:
    from _json import encode_basestring_ascii, make_scanner
except ImportError:  # no C accelerator: json's pure-Python code does the same
    from json import loads as _loads
    from json.encoder import encode_basestring_ascii
else:
    # The context json.loads's decoder hands the scanner: strict, no hooks,
    # and its values for NaN, Infinity and -Infinity, which float returns.
    _scan = make_scanner(
        types.SimpleNamespace(
            strict=True,
            object_hook=None,
            object_pairs_hook=None,
            parse_float=float,
            parse_int=int,
            parse_constant=float,
        )
    )

    def _loads(text: str):
        """json.loads(text): by the scanner alone when it takes the whole text.

        Any other outcome (no value, an error, extra data, a BOM) is left to
        json.loads, so a malformed text raises exactly what json raises.
        """
        start = len(text) - len(text.lstrip(" \t\n\r"))
        try:
            value, end = _scan(text, start)
        except (StopIteration, ValueError):
            pass
        else:
            if not text[end:].strip(" \t\n\r"):
                return value
        import json

        return json.loads(text)


# The display name of each ray-type tag a row may hold.
_RAY_DISPLAY = {ray_type.value: ray_type.display for ray_type in RayType}
# The tag of each ray type: a dict read costs a tenth of the .value property.
_TAG = {ray_type: ray_type.value for ray_type in RayType}


# A str, two ints, a bool, a tuple[str, ...], a Mapping[str, tuple] and a
# tuple[str, ...].
TableRow = namedtuple(
    "TableRow",
    ("table_id", "rho", "kx3", "primitive", "ray_types", "invariants", "descriptions"),
)
TableRow.__doc__ = """One classification-table row in a solver-independent shape.

    ``ray_types`` holds type tags ("C1" .. "E5", with "E34" for E3/E4) in
    canonical order; ``invariants`` maps a field name to a per-ray tuple
    aligned with ``ray_types``, with None where the field does not apply.
    Rows parsed from JSON carry a read-only ``invariants`` mapping, because
    the parsed truth is shared by every caller.
    """


def _read_only_row(*fields) -> TableRow:
    """A row whose ``invariants`` dict is wrapped read-only, as parsed rows are."""
    *head, invariants, descriptions = fields
    return TableRow(*head, types.MappingProxyType(invariants), descriptions)


def _reduce_row(row: TableRow, protocol: int):
    # A mappingproxy does not pickle: a parsed row pickles and copies its
    # invariants as a dict, and _read_only_row wraps the copy again.  Other
    # rows hold a dict and reduce as any named tuple does.
    if type(row.invariants) is types.MappingProxyType:
        return _read_only_row, (*row[:5], dict(row.invariants), row.descriptions)
    return tuple.__reduce_ex__(row, protocol)


TableRow.__reduce_ex__ = _reduce_row


# Two tuple[str, ...] and a tuple[tuple[str, str, object, object], ...].
_ReportFields = namedtuple("_ReportFields", ("missing", "extra", "mismatched"), defaults=((),) * 3)


class DiffReport(_ReportFields):
    """Outcome of comparing computed records against table rows.

    ``missing`` lists table ids no record matched; ``extra`` labels records
    that matched no row (or matched one twice); ``mismatched`` holds
    (table_id, field, expected, actual) for every disagreeing value.  The
    report is truthy exactly when there is something to report.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return bool(self.missing or self.extra or self.mismatched)

    def render(self) -> str:
        if not self:
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


def _pair_or_null(value) -> bool:
    return value is None or (
        type(value) is list and len(value) == 2 and INTEGER.issuperset(map(type, value))
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
        valid = INT_OR_NONE.issuperset(map(type, values))
    if not valid or len(values) != length:
        kind = "integer pairs" if name == "delta_bidegree" else "integers"
        raise ConstraintError(
            f"ground truth row {index}: invariants.{name} must be a list of "
            f"{kind} or nulls, one per ray"
        )
    return tuple(values)


_MISSING = object()
_STRINGS, _LISTS = frozenset({str}), frozenset({list})

# Each field of a row object: its name, the exact type of its JSON value
# (bool is a subclass of int, and not one), the exact types of a list's
# elements or an object's values (None for a scalar), what the types ask
# for, and the default of an optional field.
_ROW_FIELDS = (
    ("table_id", str, None, "a string", _MISSING),
    ("rho", int, None, "an integer", _MISSING),
    ("kx3", int, None, "an integer", _MISSING),
    ("primitive", bool, None, "a boolean", _MISSING),
    ("ray_types", list, _STRINGS, "a list of strings", _MISSING),
    ("invariants", dict, _LISTS, "an object whose values are lists", {}),
    ("descriptions", list, _STRINGS, "a list of strings", []),
)


def _parse_row(index: int, item) -> TableRow:
    if type(item) is not dict:
        raise ConstraintError(f"ground truth row {index} is not an object")
    values = []
    for name, kind, elements, what, default in _ROW_FIELDS:
        value = item.get(name, default)
        if value is _MISSING:
            raise ConstraintError(f"ground truth row {index} lacks the field {name!r}")
        if type(value) is not kind or (
            elements is not None
            and not elements.issuperset(map(type, value.values() if kind is dict else value))
        ):
            raise ConstraintError(f"ground truth row {index}: {name} must be {what}")
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
        raw = _loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ConstraintError(f"ground truth is not UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConstraintError("ground truth nests its arrays or objects too deeply") from exc
    if not isinstance(raw, list):
        raise ConstraintError("ground truth must be a JSON array of row objects")
    return tuple(_parse_row(index, item) for index, item in enumerate(raw))


def _ray_key(tag: str, degB, d2, deg_delta) -> tuple:
    """A ray's part of a row key: its tag and degree data, a None read as 0 (-1 for deg Delta).

    Truth rows and records both key their rays with this one rule.
    """
    return (tag, degB or 0, d2 or 0, -1 if deg_delta is None else deg_delta)


def _row_key(rho: int, kx3: int, ray_types: tuple, invariants: Mapping) -> tuple:
    """The key that picks out a family's row: rank, cube, per-ray degree data.

    Per ray it reads the type tag and the ``degB``, ``d2`` and ``deg_delta``
    columns (None where a field does not apply, or the column is absent);
    the key forgets the order of the rays.
    """
    absent = (None,) * len(ray_types)
    degrees = [invariants.get(name, absent) for name in _KEY_DEGREES]
    return (rho, kx3, tuple(sorted(map(_ray_key, ray_types, *degrees))))


def _record_key(rho: int, kx3: int, tags: tuple, rays: tuple) -> tuple:
    """:func:`_row_key` of a record, read from its RaySpecs and their ``tags``."""
    per_ray = [_ray_key(tag, *_KEY_DATA(spec)) for tag, spec in zip(tags, rays)]
    return (rho, kx3, tuple(sorted(per_ray)))


def _parse_truth(payload: bytes) -> tuple[tuple[TableRow, ...], Mapping[tuple, str]]:
    """parse_rows of a truth payload and its row ids by _row_key.

    A table id names one row, and a row key picks out one row: a repeated
    one raises ConstraintError.  :func:`_load_truth` calls it only for a
    payload that differs from the last one it parsed.
    """
    rows = parse_rows(payload)
    first_rows: dict[str, int] = {}
    ids: dict[tuple, str] = {}
    for index, row in enumerate(rows):
        if (first := first_rows.setdefault(row.table_id, index)) != index:
            raise ConstraintError(
                f"ground truth rows {first} and {index} share the table_id {row.table_id!r}"
            )
        key = _row_key(row.rho, row.kx3, row.ray_types, row.invariants)
        if (first_id := ids.setdefault(key, row.table_id)) != row.table_id:
            raise ConstraintError(
                f"ground truth rows {first_rows[first_id]} and {index} ({first_id!r} and"
                f" {row.table_id!r}) share the rank, cube and ray degree data"
            )
    return rows, types.MappingProxyType(ids)


# The package is installed unpacked (setuptools package-data), so its data
# sits beside this file; importlib.resources would add a lookup to every read
# and an import of its resource readers on first use.
_PACKAGED_TRUTH = os.path.join(os.path.dirname(__file__), "data", "ground_truth.json")


# The last truth payload parsed and its parse: one entry, so it cannot grow.
_last_truth = (None, None)


def _load_truth() -> tuple[tuple[TableRow, ...], Mapping[tuple, str]]:
    """:func:`_parse_truth` of the truth file's bytes, read on every call.

    The bytes are compared with the last payload parsed, byte for byte, and
    parsed again only when they differ.  Keying on content rather than on
    the path or its mtime means a rewritten truth file is always seen; the
    read is unbuffered, since it takes the whole file at once.
    """
    global _last_truth
    with open(os.environ.get("FANO_GROUND_TRUTH") or _PACKAGED_TRUTH, "rb", buffering=0) as file:
        payload = file.read()
    last_payload, parsed = _last_truth
    if payload != last_payload:
        parsed = _parse_truth(payload)
        _last_truth = payload, parsed
    return parsed


def ground_truth(rho: int, primitive_only: bool = False) -> tuple[TableRow, ...]:
    """The embedded table rows of the given Picard rank, in file order.

    ``rho`` must be the int 2 or 3 and ``primitive_only`` a bool.
    """
    if type(rho) is not int or rho not in (2, 3):
        raise UnsupportedScopeError(f"no table for Picard rank {rho!r}")
    if type(primitive_only) is not bool:
        raise ConstraintError(f"primitive_only must be a bool, got {primitive_only!r}")
    rows = tuple(row for row in _load_truth()[0] if row.rho == rho)
    if primitive_only:
        rows = tuple(row for row in rows if row.primitive)
    return rows


def _identify(record, ids: Mapping[tuple, str]) -> tuple:
    """A record's row head: its id in ``ids`` (or ""), rank, cube, primitivity, tags."""
    tags = tuple([_TAG[spec[0]] for spec in record.rays])
    rho, kx3 = record.form.rho, record.kx3
    table_id = ids.get(_record_key(rho, kx3, tags, record.rays), "")
    return table_id, rho, kx3, rho == 3 or "E1" not in tags, tags


def _project(record, ids: Mapping[tuple, str]) -> TableRow:
    """``record`` as a row, with the id that ``ids`` holds for its key, or ""."""
    unset = (None,) * len(record.rays)
    columns = zip(*map(_RAY_DATA, record.rays))
    invariants = {
        name: values for name, values in zip(_INVARIANT_FIELDS, columns) if values != unset
    }
    return TableRow(*_identify(record, ids), invariants, tuple(record.descriptions))


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


# In a str pattern \W is exactly "not isalnum() and not '_'".  re compiles
# it on first use and caches it: only a mismatch in diff needs it.
_NOT_ALNUM = r"[\W_]+"


def _normalize_description(text: str) -> str:
    return re.sub(_NOT_ALNUM, " ", text.lower()).strip()


def _normalized_multiset(descriptions: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(_normalize_description(d) for d in descriptions))


def _record_label(table_id: str, rho: int, kx3: int, tags: tuple) -> str:
    return f"{table_id or '?'} (rho={rho}, (-K)^3={kx3}, rays={'+'.join(tags)})"


def diff(records, rows: Iterable[TableRow]) -> DiffReport:
    """Field-by-field comparison of computed records against table rows.

    Every invariant the table states is checked against the computed value
    (table entries of None are "not applicable" and skipped); computed fields
    the table does not mention are ignored, so the table stays the single
    yardstick.  Descriptions compare as normalized multisets.  Records that
    are not TableRows are labelled as by :func:`label`, with one read of the
    ground truth, and compared in place: their rays' fields are read by
    position, and no record is projected to a row.  ``rows`` is read once.
    """
    rows = tuple(rows)
    by_id = {row.table_id: row for row in rows}
    matched: set[str] = set()
    extra: list[str] = []
    mismatched: list[tuple[str, str, object, object]] = []
    ids = None
    for record in records:
        if isinstance(record, TableRow):
            rays = None
            table_id, rho, kx3, primitive, tags, _, descriptions = record
        else:
            ids = _load_truth()[1] if ids is None else ids
            rays = record.rays
            table_id, rho, kx3, primitive, tags = _identify(record, ids)
            descriptions = tuple(record.descriptions)
        if not table_id or table_id not in by_id or table_id in matched:
            extra.append(_record_label(table_id, rho, kx3, tags))
            continue
        matched.add(table_id)
        row = by_id[table_id]
        if kx3 != row.kx3:
            mismatched.append((table_id, "kx3", row.kx3, kx3))
        if tags != row.ray_types:
            mismatched.append((table_id, "ray_types", row.ray_types, tags))
        if primitive != row.primitive:
            mismatched.append((table_id, "primitive", row.primitive, primitive))
        for key in sorted(row.invariants):
            expected_values = row.invariants[key]
            if rays is None:
                actual_values = record.invariants.get(key)
            else:
                field = _FIELD.get(key)
                actual_values = None if field is None else tuple(map(field, rays))
            # equal columns hold no mismatch: only unequal ones need the walk
            if actual_values == expected_values:
                continue
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
        expected_texts = row.descriptions
        if descriptions != expected_texts and (
            _normalized_multiset(descriptions) != _normalized_multiset(expected_texts)
        ):
            mismatched.append((table_id, "descriptions", expected_texts, descriptions))
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
    """``value`` as json.dumps(..., indent=2) writes it ``indent`` deep.

    A row holds None, bools, ints, strs and lists or tuples of them: any
    other value raises ConstraintError.
    """
    write = _JSON_SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if not isinstance(value, (list, tuple)):
        raise ConstraintError(
            f"a row value must be null, a bool, an int, a str or a list, not {type(value).__name__}"
        )
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


_WRITERS = {"json": _emit_json, "csv": _emit_csv, "markdown": _emit_markdown}


def emit(rows: Iterable[TableRow], fmt: str = "json") -> bytes:
    """Serialize rows deterministically as UTF-8 bytes with LF newlines."""
    rows = tuple(rows)
    if not (isinstance(fmt, str) and fmt in _WRITERS):  # `in` raises on a list
        raise ConstraintError(
            f"unknown output format {fmt!r}; expected one of {', '.join(_WRITERS)}"
        )
    return _WRITERS[fmt](rows)
