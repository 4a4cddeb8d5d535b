"""Ray-type tables, the c2 balance, and the lattice-index elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoenum.errors import (
    ConstraintError,
    IncompleteSpecError,
    InconsistencyError,
    UnsupportedIndexError,
)
from fanoenum.ray_constraints import (
    RaySpec,
    RayType,
    balance_check,
    c2_dot_H,
    degB_upper_bound,
    l3_range,
    lattice_index_candidates,
    mu_of,
)


def test_ray_lengths():
    assert mu_of(RayType.C1) == 1
    assert mu_of(RayType.C2) == 2
    assert mu_of(RayType.D1) == 1
    assert mu_of(RayType.D2) == 2
    assert mu_of(RayType.D3) == 3
    assert mu_of(RayType.E1) == 1
    assert mu_of(RayType.E2) == 2
    assert mu_of(RayType.E34) == 1
    assert mu_of(RayType.E5) == 1


def test_ray_type_parsing():
    assert RayType.parse("e1") is RayType.E1
    assert RayType.parse("E3E4") is RayType.E34
    assert RayType.parse("e34") is RayType.E34
    with pytest.raises(ConstraintError):
        RayType.parse("F7")


def test_rayspec_validations():
    with pytest.raises(ConstraintError):
        RaySpec(RayType.E1, r=5)
    with pytest.raises(ConstraintError):
        RaySpec(RayType.C1, deg_delta=0)
    with pytest.raises(ConstraintError):
        RaySpec(RayType.C2, deg_delta=3)
    with pytest.raises(ConstraintError):
        RaySpec(RayType.E2, e=3)
    assert RaySpec(RayType.D3).mu == 3


@pytest.mark.parametrize(
    "ray_type,fields,message",
    [
        (RayType.D2, {"d2": 5}, "a D2 del Pezzo fibration has no d2=5"),
        (RayType.D1, {"d2": 8}, "a D1 del Pezzo fibration has no d2=8"),
        (RayType.E2, {"r": 6}, r"an E2 target has an index in \(1, 2, 3, 4\), got r=6"),
        (RayType.E1, {"r": 2, "L3": 7}, "an E1 target of index 2 has L3 in .*, got L3=7"),
    ],
    ids=["D2-d2-5", "D1-d2-8", "E2-r-6", "E1-r-2-L3-7"],
)
def test_rayspec_rejects_what_the_type_facts_rule_out(ray_type, fields, message):
    with pytest.raises(ConstraintError, match=message):
        RaySpec(ray_type, **fields)


def test_c2_dot_H_values():
    assert c2_dot_H(RaySpec(RayType.E1, r=4, degB=7)) == 13
    assert c2_dot_H(RaySpec(RayType.D3)) == 3
    assert c2_dot_H(RaySpec(RayType.E5, r=3)) == 15
    assert c2_dot_H(RaySpec(RayType.C1, deg_delta=5)) == 11
    assert c2_dot_H(RaySpec(RayType.C2)) == 6
    assert c2_dot_H(RaySpec(RayType.D1, d2=3)) == 9
    assert c2_dot_H(RaySpec(RayType.D2)) == 4
    assert c2_dot_H(RaySpec(RayType.E2, r=4)) == 6
    assert c2_dot_H(RaySpec(RayType.E34, r=2)) == 12


def test_c2_dot_H_missing_fields():
    with pytest.raises(IncompleteSpecError):
        c2_dot_H(RaySpec(RayType.C1))
    with pytest.raises(IncompleteSpecError):
        c2_dot_H(RaySpec(RayType.D1))
    with pytest.raises(IncompleteSpecError):
        c2_dot_H(RaySpec(RayType.E1, r=4))
    with pytest.raises(IncompleteSpecError):
        c2_dot_H(RaySpec(RayType.E5))


def test_c2_dot_H_divisibility():
    with pytest.raises(ConstraintError):
        c2_dot_H(RaySpec(RayType.E5, r=2))  # 45/2 is not an integer
    with pytest.raises(ConstraintError):
        c2_dot_H(RaySpec(RayType.E2, r=5))


def test_balance_check_examples():
    assert balance_check(1, 1, 13, 11)
    assert balance_check(2, 3, 6, 3)
    assert not balance_check(1, 1, 13, 12)


def test_l3_range():
    assert l3_range(4) == (1,)
    assert l3_range(3) == (2,)
    assert l3_range(2) == (1, 2, 3, 4, 5)
    with pytest.raises(UnsupportedIndexError):
        l3_range(1)
    with pytest.raises(UnsupportedIndexError):
        l3_range(5)


def test_degB_upper_bound_exact_rationals():
    assert degB_upper_bound(1, 1, 1, 4) == 0
    assert degB_upper_bound(4, 2, 3, 1) == Fraction(100, 9)
    assert degB_upper_bound(2, 1, 1, 5) == 5
    with pytest.raises(ZeroDivisionError):
        degB_upper_bound(4, 1, 0, 1)


# The nine configurations of the basis elimination: six with a C-type first
# ray (the primitive steps, keyed by the length pair) and three with an E1
# first ray (the imprimitive claim, keyed by the second ray's length).
NINE_CONFIGURATIONS = [
    (1, 1, RayType.C1, None),
    (1, 2, RayType.C1, None),
    (1, 3, RayType.C1, RayType.D3),
    (2, 1, RayType.C2, None),
    (2, 2, RayType.C2, None),
    (2, 3, RayType.C2, RayType.D3),
    (1, 1, RayType.E1, None),
    (1, 2, RayType.E1, None),
    (1, 3, RayType.E1, RayType.D3),
]


@pytest.mark.parametrize("mu1,mu2,t1,t2", NINE_CONFIGURATIONS)
def test_lattice_index_is_always_one(mu1, mu2, t1, t2):
    assert lattice_index_candidates(mu1, mu2, t1, t2) == frozenset({1})


def test_lattice_index_explicit_alternatives():
    # the elimination steps with the second type spelled out
    assert lattice_index_candidates(
        2, 2, RayType.C2, (RayType.E2, RayType.C2, RayType.D2)
    ) == frozenset({1})
    assert lattice_index_candidates(2, 2, RayType.C2, RayType.E2) == frozenset({1})
    assert lattice_index_candidates(1, 1, RayType.C1, RayType.E5) == frozenset({1})
    assert lattice_index_candidates(1, 1, RayType.E1, RayType.E1) == frozenset({1})
    assert lattice_index_candidates(1, 1, RayType.E1, RayType.E5) == frozenset({1})


def test_lattice_index_impossible_pairing():
    # a C2 + D2 pair satisfies the balance for no index at all
    with pytest.raises(InconsistencyError):
        lattice_index_candidates(2, 2, RayType.C2, RayType.D2)


def test_lattice_index_validates_lengths():
    with pytest.raises(ConstraintError):
        lattice_index_candidates(2, 1, RayType.C1, None)
    with pytest.raises(ConstraintError):
        lattice_index_candidates(1, 2, RayType.C1, RayType.D3)


valid_specs = st.one_of(
    st.builds(
        RaySpec,
        st.just(RayType.C1),
        deg_delta=st.integers(1, 12),
    ),
    st.builds(RaySpec, st.just(RayType.C2)),
    st.builds(RaySpec, st.just(RayType.D1), d2=st.integers(1, 7)),
    st.builds(RaySpec, st.just(RayType.D2)),
    st.builds(RaySpec, st.just(RayType.D3)),
    st.builds(
        RaySpec,
        st.just(RayType.E1),
        r=st.sampled_from([2, 3, 4]),
        degB=st.integers(1, 24),
    ),
    st.builds(RaySpec, st.just(RayType.E2), r=st.sampled_from([2, 3, 4])),
    st.builds(RaySpec, st.just(RayType.E34), r=st.sampled_from([2, 3, 4])),
    st.builds(RaySpec, st.just(RayType.E5), r=st.sampled_from([3, 5, 9])),
)


@settings(max_examples=100)
@given(valid_specs)
def test_c2_dot_H_is_a_positive_integer(spec):
    value = c2_dot_H(spec)
    assert isinstance(value, int)
    assert value >= 1
    if spec.ray_type is not RayType.E1 and spec.ray_type is not RayType.E5:
        assert value <= 24
