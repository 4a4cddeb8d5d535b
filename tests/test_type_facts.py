"""The readers of the one per-type fact table agree with each other.

The engine compiles its sides from ``TYPE_FACTS`` and reads every fact but
c2.H, ``c2_dot_H`` looks the c2.H fact up in it, and ``_value_set`` takes
from it the c2.H values that bound the sweep of the index oracle
(``tests/test_index_oracle.py``, which proves that the pullbacks have index
1); each test ties two of these readers together.  As the engine reads no
c2.H fact, ``balance_check`` on its records is a check that shares no
equation with it.
"""

import pickle

import pytest

from fanoenum import enumerator
from fanoenum.enumerator import enumerate_all
from fanoenum.ray_constraints import (
    TYPE_FACTS, RaySpec, RayType, _value_set, balance_check, c2_dot_H
)
from fanoenum.table_oracle import record_to_row

SIDES = [
    pytest.param(ray_type, index, id=f"{ray_type.value}-{index}")
    for ray_type in RayType
    for index in range(len(TYPE_FACTS[ray_type].sides))
]
# The sides, by type and target index r, that no rank-2 record has a ray on.
EMPTY_SIDES = {
    (RayType.E2, 1), (RayType.E2, 2),
    (RayType.E34, 1), (RayType.E34, 3), (RayType.E34, 4),
    (RayType.E5, 1), (RayType.E5, 9), (RayType.E5, 15), (RayType.E5, 45),
}


@pytest.mark.parametrize("ray_type,index", SIDES)
def test_c2_dot_H_equals_the_compiled_c2_term(ray_type, index):
    # c2_dot_H finds, by the spec's fixed fields, the entry the side was compiled from
    side = enumerator._SIDES[ray_type][index]
    constant, slope = TYPE_FACTS[ray_type].sides[index][1][3]
    # up to four values of the unknown in the side's domain
    high = side.low + 3 if side.high is None else min(side.high, side.low + 3)
    for u in range(side.low, high + 1):
        fields = list(side.template)
        fields[side.slot] = u
        assert c2_dot_H(RaySpec(*fields)) * 4 == constant + slope * u


@pytest.mark.parametrize("ray_type,index", SIDES)
def test_only_the_balance_sees_a_shifted_c2_fact(ray_type, index, monkeypatch, tmp_path):
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(tmp_path / "missing.json"))
    expected = enumerate_all(2)
    facts = TYPE_FACTS[ray_type]
    sides = list(facts.sides)
    fixed, (*others, (constant, slope)) = sides[index]
    sides[index] = (fixed, (*others, (constant + 4, slope)))  # c2.H + 1
    monkeypatch.setitem(TYPE_FACTS, ray_type, facts._replace(sides=tuple(sides)))
    monkeypatch.setitem(enumerator._SIDES, ray_type, enumerator._compile(ray_type))
    records = enumerate_all(2)
    # the engine reads no c2.H fact, so only the balance on a side's records can fail
    assert records == expected
    unbalanced = [
        rec for rec in records
        if not balance_check(
            *(TYPE_FACTS[ray.ray_type].mu for ray in rec.rays), *map(c2_dot_H, rec.rays)
        )
    ]
    assert bool(unbalanced) == ((ray_type, dict(fixed).get("r")) not in EMPTY_SIDES)


def test_every_computed_ray_lies_in_its_lattice_value_set():
    for record in enumerate_all(2):
        for ray, other in (record.rays, record.rays[::-1]):
            mu_other = TYPE_FACTS[other.ray_type].mu
            assert c2_dot_H(ray) in _value_set(ray.ray_type, mu_other), record_to_row(record).table_id


@pytest.mark.parametrize("ray_type", list(RayType), ids=lambda t: t.value)
def test_a_pickled_ray_type_is_the_member_and_finds_its_entries(ray_type):
    # RayType hashes by identity, so a copy that were not the member itself
    # would miss every table keyed by the type
    copy = pickle.loads(pickle.dumps(ray_type))
    assert copy is ray_type
    assert hash(copy) == hash(ray_type)
    assert TYPE_FACTS[copy] is TYPE_FACTS[ray_type]
    assert enumerator._SIDES[copy] is enumerator._SIDES[ray_type]


def test_e1_sides_are_the_fano_targets_in_index_order():
    fixed = [dict(spec) for spec, _ in TYPE_FACTS[RayType.E1].sides]
    assert [(f["r"], f["L3"]) for f in fixed] == [
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 1)
    ]
