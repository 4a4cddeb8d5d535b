"""The Python calls into the package over a fixed piece of work, pinned.

A count of calls does not drift as a timing does, so it shows where a change
moved work before any timed run.  A ``sys.setprofile`` hook counts the
``call`` events whose code lies in the package's directory, keyed
``module.qualname``.  It leaves out frames whose name starts with ``<``:
Python 3.12 inlines comprehensions (PEP 709), and earlier versions give them
frames of their own.  Under the hook the work runs several times as long, so
the ledger times nothing.

``data/call_ledger.json`` holds two sections, each counted after one warm-up
run of its work:

* ``verify``: one library verify, meaning ``enumerate_all``, ``ground_truth``
  and ``diff`` for (2, False), (2, True) and (3, True);
* ``emit``: ``label(enumerate_all(2))``, then one ``emit`` of those rows per
  format.

``co_qualname`` is new in Python 3.11, so the test skips on 3.10.  A change
that moves the counts rewrites the file and states the delta:

    PYTHONPATH=src python3 tests/test_call_ledger.py
"""

import json
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

import fanoenum
from fanoenum.enumerator import enumerate_all
from fanoenum.table_oracle import diff, emit, ground_truth, label

LEDGER = Path(__file__).with_name("data") / "call_ledger.json"
PACKAGE = os.path.dirname(os.path.abspath(fanoenum.__file__)) + os.sep
CALLS = ((2, False), (2, True), (3, True))
FORMATS = ("json", "csv", "markdown")


def _verify() -> None:
    for call in CALLS:
        assert not diff(enumerate_all(*call), ground_truth(*call))


def _emit() -> None:
    rows = label(enumerate_all(2))
    for fmt in FORMATS:
        emit(rows, fmt)


def _count(work) -> dict[str, int]:
    """The package's Python calls, by ``module.qualname``, in one warm run of ``work``."""
    counts = Counter()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE) and code.co_name[0] != "<":
            counts[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += 1

    work()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return dict(sorted(counts.items()))


def _ledger() -> dict[str, dict[str, int]]:
    return {"verify": _count(_verify), "emit": _count(_emit)}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_the_call_ledger_holds():
    expected = json.loads(LEDGER.read_text(encoding="utf-8"))
    ledger = _ledger()
    for section, counts in ledger.items():
        moved = {
            name: (expected[section].get(name, 0), counts.get(name, 0))
            for name in expected[section].keys() | counts.keys()
            if expected[section].get(name) != counts.get(name)
        }
        total = (sum(expected[section].values()), sum(counts.values()))
        assert not moved, f"{section}: calls {total[0]} -> {total[1]}, moved {moved}"
    assert ledger == expected


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(_ledger(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER}")
