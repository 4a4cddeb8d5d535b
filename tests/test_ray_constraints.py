"""Ray-type tables, the c2 balance and the bound on an E1 centre's degree.

That the two pullbacks have index 1 in Pic(X) is proved by the index oracle,
``tests/test_index_oracle.py``, and checked as acceptance criterion 4.  The
lattice-index tests here read that oracle configuration by configuration and
pairing by pairing, beside the c2.H value sets and the index bound that the
24-balance derives from them.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_index_oracle as index_oracle

from fanoenum.chern_calculus import FANO_TARGETS
from fanoenum.errors import ConstraintError, IncompleteSpecError
from fanoenum.ray_constraints import (
    C_TYPES,
    D_TYPES,
    TYPE_FACTS,
    RaySpec,
    RayType,
    _value_set,
    balance_check,
    c2_dot_H,
)


def test_ray_lengths():
    lengths = {t.value: TYPE_FACTS[t].mu for t in RayType}
    assert lengths == {
        "C1": 1, "C2": 2, "D1": 1, "D2": 2, "D3": 3, "E1": 1, "E2": 2, "E34": 1, "E5": 1
    }


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
    with pytest.raises(ConstraintError, match=r"^E1 rays have degB >= 1, got degB=0$"):
        RaySpec(RayType.E1, r=2, L3=1, degB=0)
    with pytest.raises(ConstraintError, match="genus must be >= 0, got -1"):
        RaySpec(RayType.E1, r=2, L3=1, degB=1, genus=-1)
    assert RaySpec(RayType.D3).mu == 3


@pytest.mark.parametrize(
    "ray_type,fields,message",
    [
        (RayType.D2, {"d2": 5}, r"^D2 rays have d2 = 8, got d2=5$"),
        (RayType.D1, {"d2": 8}, r"^D1 rays have d2 in 1\.\.7, got d2=8$"),
        (RayType.E2, {"r": 6}, r"an E2 target has an index in \(1, 2, 3, 4\), got r=6"),
        (RayType.E1, {"r": 2, "L3": 7}, "an E1 target of index 2 has L3 in .*, got L3=7"),
        (RayType.C1, {"deg_delta": 3, "r": 3, "L3": 2, "degB": 4}, "C1 rays carry no r, got r=3"),
        (RayType.C2, {"genus": 1}, "C2 rays carry no genus"),
        (RayType.D1, {"d2": 3, "deg_delta": 2}, "D1 rays carry no deg_delta"),
        (RayType.E1, {"r": 2, "L3": 1, "degB": 1, "e": 1}, "E1 rays carry no e"),
        (RayType.E34, {"r": 2, "degB": 1}, "E3/E4 rays carry no degB"),
        (RayType.E5, {"r": 3, "delta_bidegree": (1, 1)}, "E5 rays carry no delta_bidegree"),
        (RayType.E1, {"L3": 7, "degB": 2}, "an E1 target's L3 needs its index r, got L3=7"),
        ("E1", {}, "'E1' is not an extremal-ray type"),
        ([1], {}, r"\[1\] is not an extremal-ray type"),
        ({}, {}, r"\{\} is not an extremal-ray type"),
        (RayType.C1, {"delta_bidegree": 5}, "delta_bidegree must be two integers, got 5"),
        (RayType.C2, {"delta_bidegree": (2, 5)}, r"a C2 conic bundle has no delta_bidegree=\(2,"),
        (RayType.C1, {"delta_bidegree": (0, 0)}, r"a C1 conic bundle has no delta_bidegree=\(0,"),
        (RayType.C1, {"delta_bidegree": (-3, -1)}, "a C1 conic bundle has no delta_bidegree="),
        (RayType.C1, {"deg_delta": 3, "delta_bidegree": (2, 5)},
         "deg_delta or delta_bidegree, not both, got deg_delta=3, delta_bidegree="),
        (RayType.E34, {"r": 2, "L3": 2, "e": 1}, "E3/E4 rays carry no e"),
        (RayType.E2, {"r": 4, "L3": 1, "e": 2}, "the twist of an E2 ray is e=1, got e=2"),
        (RayType.E5, {"r": 5, "L3": 4, "e": 1}, "the twist of an E5 ray is e=2, got e=1"),
    ],
    ids=["D2-d2-5", "D1-d2-8", "E2-r-6", "E1-r-2-L3-7", "C1-r", "C2-genus", "D1-deg_delta",
         "E1-e", "E34-degB", "E5-bidegree", "E1-L3-without-r", "not-a-type",
         "list-type", "dict-type",
         "C1-bidegree-int", "C2-bidegree-2-5", "C1-bidegree-0-0", "C1-bidegree-negative",
         "C1-deg_delta-and-bidegree", "E34-e", "E2-e-2", "E5-e-1"],
)
def test_rayspec_rejects_what_the_type_facts_rule_out(ray_type, fields, message):
    with pytest.raises(ConstraintError, match=message):
        RaySpec(ray_type, **fields)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"deg_delta": 2.5}, "deg_delta must be an integer, got 2.5"),
        ({"deg_delta": True}, "deg_delta must be an integer, got True"),
        ({"deg_delta": "3"}, "deg_delta must be an integer, got '3'"),
        ({"delta_bidegree": (2.6, "5")}, "delta_bidegree must be two integers"),
        ({"delta_bidegree": (2, False)}, "delta_bidegree must be two integers"),
        ({"delta_bidegree": (2, 5, 1)}, "delta_bidegree must be two integers"),
        ({"delta_bidegree": {2: 0, 5: 0}}, "delta_bidegree must be two integers"),
        ({"delta_bidegree": {2, 5}}, "delta_bidegree must be two integers"),
        ({"delta_bidegree": iter((2, 5))}, "delta_bidegree must be two integers"),
        ({"delta_bidegree": range(2, 4)}, "delta_bidegree must be two integers"),
    ],
    ids=["float", "bool", "str", "bidegree-float-str", "bidegree-bool", "bidegree-triple",
         "bidegree-dict", "bidegree-set", "bidegree-iterator", "bidegree-range"],
)
def test_rayspec_takes_only_int_fields(fields, message):
    with pytest.raises(ConstraintError, match=message):
        RaySpec(RayType.C1, **fields)


def test_rayspec_int_check_names_the_field():
    with pytest.raises(ConstraintError, match="genus must be an integer, got 1.0"):
        RaySpec(RayType.E1, r=2, L3=1, degB=1, genus=1.0)
    assert RaySpec(RayType.C1, delta_bidegree=(2, 5)).delta_bidegree == (2, 5)
    with pytest.raises(ConstraintError, match=r"must be two integers, got \[2, 5\]"):
        RaySpec(RayType.C1, delta_bidegree=[2, 5])


def test_rayspec_is_a_tuple_of_its_fields():
    spec = RaySpec(RayType.E1, r=3, L3=2, degB=4, genus=0)
    assert spec == (RayType.E1, 3, 2, 4, None, None, None, 0, None)
    assert RaySpec._make(spec) == spec and spec.mu == 1
    assert RaySpec._fields == (
        "ray_type", "r", "L3", "degB", "deg_delta", "d2", "e", "genus", "delta_bidegree"
    )
    assert RaySpec._field_defaults == dict.fromkeys(RaySpec._fields[1:])
    assert repr(spec) == (
        "RaySpec(ray_type=<RayType.E1: 'E1'>, r=3, L3=2, degB=4, deg_delta=None, d2=None,"
        " e=None, genus=0, delta_bidegree=None)"
    )
    with pytest.raises(AttributeError):
        spec.r = 4


def test_rayspec_replace_runs_the_checks():
    spec = RaySpec(RayType.E1, r=3, L3=2, degB=4, genus=0)
    assert spec._replace(degB=5).degB == 5
    with pytest.raises(ConstraintError, match="an E1 target of index 3 has L3"):
        spec._replace(L3=3)
    with pytest.raises(ConstraintError, match="E1 rays carry no e"):
        spec._replace(e=1)
    with pytest.raises(ConstraintError, match="degB must be an integer"):
        spec._replace(degB=4.5)
    with pytest.raises(ConstraintError):
        RaySpec._make((RayType.C2, None, None, None, 3, None, None, None, None))


@pytest.mark.parametrize(
    "spec",
    [
        RaySpec(RayType.E1, r=4, L3=1, degB=7, genus=5),
        RaySpec(RayType.C1, delta_bidegree=(2, 5)),
        RaySpec(RayType.E5, r=3, e=2),
        RaySpec(RayType.D2, d2=8),
    ],
    ids=["E1", "C1-bidegree", "E5", "D2"],
)
def test_rayspec_survives_pickling(spec):
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and type(copy) is RaySpec and copy.ray_type is spec.ray_type


def test_equal_specs_hash_equal():
    spec = RaySpec(RayType.C1, deg_delta=4)
    same = RaySpec(RayType.C1, None, None, None, 4)
    assert spec == same and hash(spec) == hash(same)
    assert len({spec, same, RaySpec(RayType.C1, deg_delta=5)}) == 2


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


def test_the_E1_value_set_tops_out_at_the_index_1_degB_cap():
    # c2.H = 24/r + deg B with 1 <= deg B <= (r - mu)^2 L^3 on each target
    for mu in range(4):
        tops = []
        for r, cubes in FANO_TARGETS.items():
            for L3 in cubes:
                top = 24 // r + (r - mu) ** 2 * L3
                if (r - mu) ** 2 * L3 >= 1:
                    assert top in _value_set(RayType.E1, mu)
                    tops.append(top)
        assert max(_value_set(RayType.E1, mu)) == max(tops)


@pytest.mark.parametrize("ray_type", list(RayType), ids=lambda t: t.value)
def test_rayspec_admits_exactly_the_domain_of_the_unknown(ray_type):
    facts = TYPE_FACTS[ray_type]
    for u in range(facts.low - 3, (facts.high or facts.low) + 4):
        if facts.admits(u):
            assert getattr(RaySpec(ray_type, **{facts.unknown: u}), facts.unknown) == u
        else:
            with pytest.raises(ConstraintError):
                RaySpec(ray_type, **{facts.unknown: u})


# The nine configurations of the basis elimination: six with a C-type first
# ray (the primitive steps, keyed by the length pair) and three with an E1
# first ray (the imprimitive claim, keyed by the second ray's length).  A
# second type of None stands for every type of the second length.
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


def _second_types(mu2, type2):
    return [t for t in RayType if TYPE_FACTS[t].mu == mu2] if type2 is None else [type2]


def _oracle_keys(type1, second_types):
    """The index oracle's solutions on a pairing of type1 with one of second_types."""
    return [
        key for key in index_oracle.SOLUTIONS
        if any({key[0], key[2]} == {type1, t2} for t2 in second_types)
    ]


def _balanced_indices(type1, second_types):
    """The indices of those solutions that meet the 24-balance."""
    keys = _oracle_keys(type1, second_types)
    return {key[4] for key in keys if index_oracle.balances(*key)}


def _balance_survivors(mu1, mu2, type1, second_types, top=199):
    """The indices a <= top with 24 a = mu2 v1 + mu1 v2 for some c2.H values
    v1 of type1 and v2 of a second type.

    The value sets at mu = 0 hold those at every index, as the E1 cap
    (r - mu/a)^2 L^3 on deg B grows as mu/a falls to 0.
    """
    values2 = frozenset().union(*(_value_set(t2, 0) for t2 in second_types))
    return {
        a for a in range(1, top + 1)
        if any((24 * a - mu2 * v1) % mu1 == 0 and (24 * a - mu2 * v1) // mu1 in values2
               for v1 in _value_set(type1, 0))
    }


@pytest.mark.parametrize("mu1,mu2,t1,t2", NINE_CONFIGURATIONS)
def test_lattice_index_is_always_one(mu1, mu2, t1, t2):
    # every oracle solution in the configuration that meets the balance has
    # index 1; C1 + D3 has no solution at any index
    assert TYPE_FACTS[t1].mu == mu1
    expected = set() if (t1, t2) == (RayType.C1, RayType.D3) else {1}
    assert _balanced_indices(t1, _second_types(mu2, t2)) == expected


@pytest.mark.parametrize("conic", C_TYPES, ids=lambda t: t.value)
def test_a_conic_bundle_first_call_admits_an_e1_second_ray(conic):
    # a conic bundle beside the blow-up of a curve gives a family at index 1,
    # and so does a conic bundle beside every type of length 1
    assert _balanced_indices(conic, [RayType.E1]) == {1}
    assert _balanced_indices(conic, _second_types(1, None)) == {1}


def test_lattice_index_explicit_alternatives():
    # the elimination steps with the second type spelled out
    assert _balanced_indices(RayType.C2, [RayType.E2]) == {1}
    # C1 + E5 passes the balance at index 1 on its value sets, yet has no solution
    assert _balance_survivors(1, 1, RayType.C1, [RayType.E5]) == {1}
    assert _balanced_indices(RayType.C1, [RayType.E5]) == set()
    # E1 + E1 and E1 + E5 have solutions at index 2 and 5 that fail the balance
    for second, larger in ((RayType.E1, 2), (RayType.E5, 5)):
        assert {key[4] for key in _oracle_keys(RayType.E1, [second])} == {1, larger}
        assert _balanced_indices(RayType.E1, [second]) == {1}


def test_lattice_index_impossible_pairing():
    # a C2 + D2 pair satisfies the balance for no index at all, and the
    # oracle solves it at none
    assert _balance_survivors(2, 2, RayType.C2, [RayType.D2]) == set()
    assert _oracle_keys(RayType.C2, [RayType.D2]) == []


@pytest.mark.parametrize(
    "mu1,mu2,type1,type2",
    [(TYPE_FACTS[t1].mu, TYPE_FACTS[t2].mu, t1, t2) for t1 in RayType for t2 in RayType]
    + [config for config in NINE_CONFIGURATIONS if config[3] is None],
    ids=lambda value: getattr(value, "value", str(value)),
)
def test_the_derived_index_bound_cuts_no_survivor_off(mu1, mu2, type1, type2):
    # the balance bounds the index by (mu2 M1 + mu1 M2) / 24, M the largest
    # c2 value, so no index past it survives; the value sets hold the c2
    # values of every oracle solution, so each index at which the oracle
    # meets the balance survives
    seconds = _second_types(mu2, type2)
    largest = max(max(_value_set(t2, 0)) for t2 in seconds)
    bound = (mu2 * max(_value_set(type1, 0)) + mu1 * largest) // 24
    survivors = _balance_survivors(mu1, mu2, type1, seconds)
    assert max(survivors, default=0) <= bound
    for key in _oracle_keys(type1, seconds):
        for ray_type, value in zip((key[0], key[2]), index_oracle.c2_values(*key)):
            assert value in _value_set(ray_type, 0), key
    assert _balanced_indices(type1, seconds) <= survivors


@pytest.mark.parametrize(
    "c_type,d_type", [(c, d) for c in C_TYPES for d in D_TYPES], ids=lambda t: t.value
)
def test_lattice_index_is_symmetric_in_a_conic_and_a_del_pezzo_ray(c_type, d_type):
    # the D-first solve reads the two sides' facts in the other order: it
    # gives the mirror solution at every index, and the balance the same indices
    for i in range(len(TYPE_FACTS[c_type].sides)):
        for j in range(len(TYPE_FACTS[d_type].sides)):
            for a in range(1, index_oracle.TOP_INDEX + 1):
                c_first = index_oracle._oracle_solve(c_type, i, d_type, j, a)
                d_first = index_oracle._oracle_solve(d_type, j, c_type, i, a)
                mirror = d_first and (d_first[0][::-1], d_first[1], d_first[3], d_first[2])
                assert c_first == mirror, (i, j, a)
    mu_c, mu_d = TYPE_FACTS[c_type].mu, TYPE_FACTS[d_type].mu
    assert _balance_survivors(mu_d, mu_c, d_type, [c_type]) == _balance_survivors(
        mu_c, mu_d, c_type, [d_type]
    )


# st.builds draws every field of a named tuple, optional ones too; through
# this wrapper it draws only the fields each strategy below names
def ray_spec(ray_type, **fields):
    return RaySpec(ray_type, **fields)


valid_specs = st.one_of(
    st.builds(
        ray_spec,
        st.just(RayType.C1),
        deg_delta=st.integers(1, 12),
    ),
    st.builds(ray_spec, st.just(RayType.C2)),
    st.builds(ray_spec, st.just(RayType.D1), d2=st.integers(1, 7)),
    st.builds(ray_spec, st.just(RayType.D2)),
    st.builds(ray_spec, st.just(RayType.D3)),
    st.builds(
        ray_spec,
        st.just(RayType.E1),
        r=st.sampled_from([2, 3, 4]),
        degB=st.integers(1, 24),
    ),
    st.builds(ray_spec, st.just(RayType.E2), r=st.sampled_from([2, 3, 4])),
    st.builds(ray_spec, st.just(RayType.E34), r=st.sampled_from([2, 3, 4])),
    st.builds(ray_spec, st.just(RayType.E5), r=st.sampled_from([3, 5, 9])),
)


@settings(max_examples=100)
@given(valid_specs)
def test_c2_dot_H_is_a_positive_integer(spec):
    value = c2_dot_H(spec)
    assert isinstance(value, int)
    assert value >= 1
    if spec.ray_type is not RayType.E1 and spec.ray_type is not RayType.E5:
        assert value <= 24
