"""The readers of the one per-type fact table agree with each other.

The engine compiles its sides from ``TYPE_FACTS``, ``c2_dot_H`` looks the
c2.H fact up in it, and the lattice-index argument takes its value sets from
it; each test ties two of these readers together.
"""

import pickle

import pytest

from fanoenum import enumerator
from fanoenum.enumerator import enumerate_all
from fanoenum.ray_constraints import TYPE_FACTS, RaySpec, RayType, _value_set, c2_dot_H
from fanoenum.table_oracle import record_to_row

SIDES = [
    pytest.param(side, id=f"{ray_type.value}-{index}")
    for ray_type in RayType
    for index, side in enumerate(enumerator._SIDES[ray_type])
]


@pytest.mark.parametrize("side", SIDES)
def test_c2_dot_H_equals_the_compiled_c2_term(side):
    constant, slope = side.terms[1][3]  # N = n c2.H, with n = 1
    admissible = [side.low] if side.slot is None else range(side.low, side.low + 4)
    for u in admissible:
        fields = list(side.template)
        if side.slot is not None:
            fields[side.slot] = u
        assert c2_dot_H(RaySpec(*fields)) * 4 == constant + slope * u


def test_every_computed_ray_lies_in_its_lattice_value_set():
    for record in enumerate_all(2):
        for ray, other in (record.rays, record.rays[::-1]):
            assert c2_dot_H(ray) in _value_set(ray.ray_type, other.mu, 1), record_to_row(record).table_id


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
