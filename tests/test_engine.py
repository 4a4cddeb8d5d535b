"""The side-table engine behind every rank-2 pairing.

The byte goldens pin what ``emit --source computed`` prints; they were
captured from the hand-eliminated solvers the engine replaced, and equal the
``computed:2`` and ``computed:3`` emit hashes of ``bench/golden.json``.
"""

import hashlib
from itertools import combinations_with_replacement

import pytest

from fanoenum import enumerator
from fanoenum.chern_calculus import (
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
)
from fanoenum.enumerator import enumerate_all, solve_C_E_primitive
from fanoenum.errors import ConstraintError, InconsistencyError, ParityError
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


def test_integer_solution_is_exact():
    solve = enumerator._integer_solution
    # u1 + u2 = 5, u1 - u2 = 1
    assert solve([(1, 1, -5), (1, -1, -1)], True, True) == (3, 2)
    # 2 u1 = 3 has no integer solution; u1 = 1 and u1 = 2 contradict
    assert solve([(2, 0, -3)], True, False) is None
    assert solve([(1, 0, -1), (1, 0, -2)], True, False) is None
    # a side without an unknown stays at 0, and its constant rows must vanish
    assert solve([(0, 0, 0), (0, 3, -6)], False, True) == (0, 2)
    assert solve([(0, 0, 1)], False, False) is None
    # rows that leave an unknown free would need a sweep
    with pytest.raises(InconsistencyError):
        solve([(1, 1, -5), (2, 2, -10)], True, True)


_C, _K = 0, 4  # positions of the H^3 and (-K)^3 terms among a side's C, P, Q, N, K, M


def _shifted(side, term, quarters):
    """``side`` with the constant of one of its terms moved by ``quarters``."""
    terms = {}
    for n, parts in side.terms.items():
        parts = list(parts)
        constant, coefficient = parts[term]
        parts[term] = (constant + quarters, coefficient)
        terms[n] = tuple(parts)
    return side._replace(terms=terms)


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
        enumerator._solve_sides(_shifted(conic, term, quarters), other)
