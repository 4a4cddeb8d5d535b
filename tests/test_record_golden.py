"""Every field of every computed record, pinned against a golden file.

The emit goldens (``tests/test_engine.py``) see only a record's table-row
projection, never its intersection form, anticanonical class or
characteristic note.  ``data/records_golden.jsonl`` holds one JSON line per
record of ``enumerate_all(2)``, ``enumerate_all(2, True)`` and
``enumerate_all(3, True)``, in output order, with all nine ray fields, the
form entries in canonical key order, the coordinates of -K, the other
record fields and the table id the packaged ground truth labels it with.
Lines are compared as text, so an int that became a bool or a tuple that
became a list shows.

Rewrite the file only from a commit whose records are known to be right:

    PYTHONPATH=src python3 tests/test_record_golden.py
"""

import json
from pathlib import Path

from fanoenum.enumerator import enumerate_all
from fanoenum.ray_constraints import TYPE_FACTS
from fanoenum.table_oracle import record_to_row

GOLDEN = Path(__file__).with_name("data") / "records_golden.jsonl"
CALLS = ((2, False), (2, True), (3, True))
RAY_FIELDS = ("r", "L3", "degB", "deg_delta", "d2", "e", "genus", "delta_bidegree")


def _ray(spec) -> dict:
    fields = {"ray_type": spec.ray_type.value, "mu": TYPE_FACTS[spec.ray_type].mu}
    for name in RAY_FIELDS:
        value = getattr(spec, name)
        # a tuple is kept apart from a list in the text
        fields[name] = {"tuple": list(value)} if isinstance(value, tuple) else value
    return fields


def _line(call, index, record) -> str:
    form = record.form
    return json.dumps({
        "call": list(call),
        "index": index,
        "rho": record.rho,
        "rays": [_ray(spec) for spec in record.rays],
        "form": {"rho": form.rho, "entries": [[*key, value] for key, value in form.entries.items()]},
        "minus_k": {"tuple": list(record.minus_k.coords)},
        "kx3": record.kx3,
        "genus": record.genus,
        "table_id": record_to_row(record).table_id,
        "descriptions": {"tuple": list(record.descriptions)},
        "char_note": record.char_note,
    })


def _lines() -> list[str]:
    return [
        _line(call, index, record)
        for call in CALLS
        for index, record in enumerate(enumerate_all(*call))
    ]


def test_every_record_field_matches_the_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(expected) == 36 + 9 + 4
    assert _lines() == expected


def test_the_golden_sees_the_fields_emit_drops():
    text = GOLDEN.read_text(encoding="utf-8")
    assert '"char_note": "wild conic bundle possible only in characteristic 2"' in text
    assert '"entries": [[1, 1, 1, 0], [1, 1, 2, 2], [1, 2, 2, 2], [2, 2, 2, 0]]' in text


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(line + "\n" for line in _lines()), encoding="utf-8")
