"""The three workloads: their inputs, drawn from a seed, and their ops.

``cli_mix`` runs fresh ``python -m fanoenum`` processes over a fixed argv
set, evenly weighted by subcommand and variant.  ``engine_verify`` runs the
library calls a verify makes.  ``export_roundtrip`` emits seeded row subsets
in every format and parses the JSON back.  Every op checks its own output and reports a failure as a string
(``None`` when the op is correct); no check raises.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterator, Optional, Sequence

WORKLOADS = ("cli_mix", "engine_verify", "export_roundtrip")

# ------------------------------------------------------------------ cli_mix --

# The 18 ray pairings present in the rank-2 table, each written as a user
# might: mixed case, either order, and both spellings of E3/E4.
PAIR_SPELLINGS = (
    "C1,C1", "c1,C2", "C2,c2", "C1,d1", "c1,D2", "C2,D3", "E1,C1", "C2,e1",
    "C2,E2", "c2,E5", "C1,E3E4", "d1,E1", "D2,e1", "E1,D3", "e1,E1",
    "E1,e2", "e1,E34", "E5,E1",
)

CHERN_ARGS = (
    ("antican-cube-p1-bundle", "2", "0", "8"),
    ("antican-cube-divisor-p2-bundle", "9", "2", "9", "0", "-9", "0", "0"),
    ("genus-from-blowup", "16", "64", "4", "7"),
    ("conic-ksq-pullback", "-3", "5"),
    ("xi-square", "-3"),
    ("exceptional-cube", "2"),
    ("antican-sq-dot-exceptional", "2", "0"),
)


def _cli_families() -> dict[str, tuple[tuple[tuple[str, ...], ...], ...]]:
    """Subcommand -> its variants -> their argvs."""
    verify = ((("verify",),), (("verify", "--rho", "2"),), (("verify", "--rho", "3"),))
    enumerate_ = (
        (
            ("enumerate", "--rho", "2"),
            ("enumerate", "--rho", "3"),
            ("enumerate", "--rho", "2", "--format", "json"),
        ),
        (("enumerate", "--rho", "2", "--primitive"),),
        tuple(("enumerate", "--pair", p) for p in PAIR_SPELLINGS),
    )
    emit = (
        tuple(
            ("emit", "--rho", rho, "--source", source, "--format", fmt)
            for source in ("truth", "computed")
            for fmt in ("json", "csv", "markdown")
            for rho in ("2", "3")
        ),
    )
    chern = (tuple(("chern",) + args for args in CHERN_ARGS),)
    return {"verify": verify, "enumerate": enumerate_, "emit": emit, "chern": chern}


# There is no usage data to weight the mix by, so it is even at each level:
# every subcommand is a quarter of the ops, each of its variants (verify with
# no rank, --rho 2, --rho 3; enumerate by --rho, --primitive, --pair) an equal
# share of that, and each argv an equal share of its variant.  Every level
# deals from a shuffled deck, so each run sees nearly the same mix and the
# seed changes only the order.
CLI_FAMILIES = _cli_families()
CLI_ARGVS = tuple(
    argv for variants in CLI_FAMILIES.values() for argvs in variants for argv in argvs
)


def argv_key(argv: Sequence[str]) -> str:
    return " ".join(argv)


def is_full_verify(argv: Sequence[str]) -> bool:
    """A verify of both ranks, the case the ROADMAP counts truth parses for."""
    return tuple(argv) == ("verify",)


def cli_ops(seed: int) -> Iterator[tuple[str, ...]]:
    rng = random.Random(f"cli_mix:{seed}")
    decks: dict[object, list] = {}

    def deal(key, cards):
        deck = decks.setdefault(key, [])
        if not deck:
            deck.extend(cards)
            rng.shuffle(deck)
        return deck.pop()

    families = list(CLI_FAMILIES)
    while True:
        rng.shuffle(families)
        for family in families:
            variants = CLI_FAMILIES[family]
            variant = deal(family, range(len(variants)))
            yield deal((family, variant), variants[variant])


def check_cli_output(argv, returncode: int, stdout_sha256: str, golden: dict) -> Optional[str]:
    expected = golden["cli_stdout_sha256"].get(argv_key(argv))
    if returncode != 0:
        return f"exit {returncode}"
    if expected is None:
        return "no golden output"
    if stdout_sha256 != expected:
        return "stdout differs from the golden"
    return None


# ------------------------------------------------------------ engine_verify --

# (rho, primitive_only, expected families) for the three calls a verify makes.
ENGINE_CASES = ((2, False, 36), (2, True, 9), (3, True, 4))


def engine_ops(seed: int) -> Iterator[tuple[tuple[int, bool, int], ...]]:
    rng = random.Random(f"engine_verify:{seed}")
    cases = list(ENGINE_CASES)
    while True:
        rng.shuffle(cases)
        yield tuple(cases)


def engine_op(api, cases) -> Optional[str]:
    """One library verify; ``api`` supplies enumerate_all, ground_truth and diff."""
    for rho, primitive_only, expected in cases:
        records = api.enumerate_all(rho, primitive_only)
        truth = api.ground_truth(rho, primitive_only)
        report = api.diff(records, truth)
        if report:
            return f"rho={rho} primitive={primitive_only}: non-empty diff"
        if len(records) != expected or len(truth) != expected:
            return f"rho={rho} primitive={primitive_only}: {len(records)} records"
    return None


# --------------------------------------------------------- export_roundtrip --

EMIT_FORMATS = ("json", "csv", "markdown")
# One op in FULL_TABLE_EVERY emits a whole table in file order, so its bytes
# can be checked against the golden hashes.
FULL_TABLE_EVERY = 8


def export_ops(seed: int, tables: dict[str, tuple]) -> Iterator[tuple[str, tuple]]:
    """Yield (golden key or "", rows).  ``tables`` maps "<source>:<rho>" to rows."""
    rng = random.Random(f"export_roundtrip:{seed}")
    keys = sorted(tables)
    pool = [row for key in keys for row in tables[key]]
    while True:
        if rng.randrange(FULL_TABLE_EVERY) == 0:
            key = rng.choice(keys)
            yield key, tables[key]
        else:
            size = rng.randint(1, len(pool))
            yield "", tuple(rng.sample(pool, size))


def export_op(api, golden_key: str, rows, golden: dict) -> Optional[str]:
    """Emit ``rows`` in every format and parse the JSON back."""
    payloads = {fmt: api.emit(rows, fmt) for fmt in EMIT_FORMATS}
    if api.parse_rows(payloads["json"]) != tuple(rows):
        return "json round trip changed the rows"
    if golden_key:
        expected = golden["emit_sha256"][golden_key]
        for fmt in EMIT_FORMATS:
            if hashlib.sha256(payloads[fmt]).hexdigest() != expected[fmt]:
                return f"{golden_key} {fmt} differs from the golden"
    elif (
        payloads["csv"].count(b"\n") != len(rows) + 1
        or payloads["markdown"].count(b"\n") != len(rows) + 2
    ):
        return "csv or markdown row count is wrong"
    return None


def export_tables(api) -> dict[str, tuple]:
    """The four full tables an export op draws from: truth and computed, both ranks."""
    tables = {}
    for rho, primitive_only in ((2, False), (3, True)):
        tables[f"truth:{rho}"] = api.ground_truth(rho, primitive_only)
        tables[f"computed:{rho}"] = tuple(
            api.record_to_row(r) for r in api.enumerate_all(rho, primitive_only)
        )
    return tables


def run_checked(op: Callable[[], Optional[str]]) -> Optional[str]:
    """Run an op; an exception is a failed op, never a crashed run."""
    try:
        return op()
    except Exception as exc:  # the op is the boundary that must keep running
        return f"{type(exc).__name__}: {exc}"
