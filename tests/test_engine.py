"""The side-table engine behind every rank-2 pairing.

The byte goldens pin what ``emit --source computed`` prints; they were
captured from the hand-eliminated solvers the engine replaced, and equal the
``computed:2`` and ``computed:3`` emit hashes of ``bench/golden.json``.
"""

import hashlib
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoenum import enumerator
from fanoenum.chern_calculus import (
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
)
from fanoenum.enumerator import enumerate_all, solve_C_E_primitive
from fanoenum.errors import (
    ConstraintError, FanoEngineError, InconsistencyError, ParityError
)
from fanoenum.picard_lattice import DivisorClass
from fanoenum.ray_constraints import RayType
from fanoenum.table_oracle import emit, label, record_to_row

EMIT_SHA256 = {
    (2, "json"): "bbb03b18a5e7c2ee29cdad35c03159c89f962e14866c54be2609f8cd25a5b90b",
    (2, "csv"): "acc2174feb052204cf10245c8570dbcab74ef604fdcb9a5ebf337d8883684e62",
    (2, "markdown"): "d8774bacb90c12ac35770e850029b6bd5cb5f3c34c5057af3f532c4b9a5786bb",
    (3, "json"): "3b94f5fe70524ea7ad5a320884639d578c28cd8c20b054a21389f8e015e1f7a9",
    (3, "csv"): "af30890c7ae762f5d8b6afd4c92b5445d421230548c0f6c45284ab5db078a5dd",
    (3, "markdown"): "4cdd89b873a06d1a6cc163746079597c8d0265d9708b810910c1f3f90b94a9d8",
}


@pytest.mark.parametrize("rho,fmt", sorted(EMIT_SHA256))
def test_computed_tables_emit_the_golden_bytes(rho, fmt):
    rows = [record_to_row(rec) for rec in enumerate_all(rho, primitive_only=rho == 3)]
    assert hashlib.sha256(emit(rows, fmt)).hexdigest() == EMIT_SHA256[rho, fmt]


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
    solution = _reference_integer_solution(_system(side1, side2))
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
        record.form.transposed((2, 1)),
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


def test_integer_solution_is_exact():
    solve = enumerator._integer_solution
    # u1 + u2 = 5, u1 - u2 = 1
    assert solve([(1, 1, -5), (1, -1, -1)]) == (3, 2)
    # 2 u1 = 3 has no integer solution; u1 = 1 and u1 = 2 contradict
    assert solve([(2, 0, -3), (0, 1, 0)]) is None
    assert solve([(1, 0, -1), (1, 0, -2), (0, 1, 0)]) is None
    # rows that leave an unknown free would need a sweep
    with pytest.raises(InconsistencyError):
        solve([(1, 1, -5), (2, 2, -10)])
    with pytest.raises(InconsistencyError):
        solve([(0, 1, -2)])
    # one row: 0 = 1 has no solution, u1 + u2 = 5 leaves an unknown free
    assert solve([(0, 0, 1)]) is None
    with pytest.raises(InconsistencyError):
        solve([(1, 1, -5)])
    # the first two rows are dependent, and the third decides: a solution,
    # none (u1 = u2 = 5/2; u1 + u2 = 4 contradicts), or an unknown free
    assert solve([(1, 1, -5), (2, 2, -10), (1, -1, -1)]) == (3, 2)
    assert solve([(1, 1, -5), (2, 2, -10), (2, 0, -5)]) is None
    assert solve([(1, 1, -5), (2, 2, -10), (1, 1, -4)]) is None
    with pytest.raises(InconsistencyError):
        solve([(1, 1, -5), (2, 2, -10), (3, 3, -15)])


def _reference_integer_solution(rows):
    """The elimination ``_integer_solution`` once was, kept as its oracle."""
    pivot = next((row for row in rows if row[0]), None)
    if pivot is None:
        rest = [row[1:] for row in rows]
    else:
        a, b, c = pivot
        rest = [(a * e - d * b, a * f - d * c) for d, e, f in rows]
    u2 = 0
    pivot2 = next((row for row in rest if row[0]), None)
    if pivot2 is not None:
        u2, remainder = divmod(-pivot2[1], pivot2[0])
        if remainder:
            return None
    for e, f in rest:
        if e * u2 + f:
            return None
    if pivot is None or pivot2 is None:
        raise InconsistencyError("the facts of a pairing leave an unknown free")
    u1, remainder = divmod(-(b * u2 + c), a)
    return None if remainder else (u1, u2)


def _outcome(solve, rows):
    try:
        return solve(rows)
    except InconsistencyError:
        return InconsistencyError


_ENTRY = st.integers(-6, 6)


@settings(max_examples=500)
@given(st.lists(st.tuples(_ENTRY, _ENTRY, _ENTRY), min_size=1, max_size=4))
def test_integer_solution_agrees_with_its_reference(rows):
    assert _outcome(enumerator._integer_solution, rows) == _outcome(
        _reference_integer_solution, rows
    )


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
