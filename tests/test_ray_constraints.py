"""Ray-type tables, the c2 balance, and the lattice-index elimination."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoenum.chern_calculus import FANO_TARGETS, l3_range
from fanoenum.enumerator import _RANK2_PAIRINGS
from fanoenum.errors import (
    ConstraintError,
    IncompleteSpecError,
    InconsistencyError,
    UnsupportedIndexError,
)
from fanoenum.ray_constraints import (
    C_TYPES,
    D_TYPES,
    RaySpec,
    RayType,
    _cube_identity_allows,
    _primitivity_allows,
    _resolve_second_types,
    _value_set,
    balance_check,
    c2_dot_H,
    degB_upper_bound,
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
    with pytest.raises(ConstraintError, match="degB must be >= 1, got 0"):
        RaySpec(RayType.E1, r=2, L3=1, degB=0)
    with pytest.raises(ConstraintError, match="genus must be >= 0, got -1"):
        RaySpec(RayType.E1, r=2, L3=1, degB=1, genus=-1)
    assert RaySpec(RayType.D3).mu == 3


@pytest.mark.parametrize(
    "ray_type,fields,message",
    [
        (RayType.D2, {"d2": 5}, "a D2 del Pezzo fibration has no d2=5"),
        (RayType.D1, {"d2": 8}, "a D1 del Pezzo fibration has no d2=8"),
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
        (RayType.C1, {"delta_bidegree": 5}, "delta_bidegree must be two integers, got 5"),
    ],
    ids=["D2-d2-5", "D1-d2-8", "E2-r-6", "E1-r-2-L3-7", "C1-r", "C2-genus", "D1-deg_delta",
         "E1-e", "E34-degB", "E5-bidegree", "E1-L3-without-r", "not-a-type",
         "C1-bidegree-int"],
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
    ],
    ids=["float", "bool", "str", "bidegree-float-str", "bidegree-bool", "bidegree-triple"],
)
def test_rayspec_takes_only_int_fields(fields, message):
    with pytest.raises(ConstraintError, match=message):
        RaySpec(RayType.C1, **fields)


def test_rayspec_int_check_names_the_field():
    with pytest.raises(ConstraintError, match="genus must be an integer, got 1.0"):
        RaySpec(RayType.E1, r=2, L3=1, degB=1, genus=1.0)
    assert RaySpec(RayType.C1, delta_bidegree=[2, 5]).delta_bidegree == (2, 5)


def test_rayspec_is_a_tuple_of_its_fields():
    spec = RaySpec(RayType.E1, r=3, L3=2, degB=4, genus=0)
    assert spec == (RayType.E1, 3, 2, 4, None, None, None, 0, None)
    assert RaySpec._make(spec) == spec and spec.mu == 1
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
    assert degB_upper_bound(4, 2, 3, 1) == 11  # the floor of 100/9
    assert degB_upper_bound(2, 1, 1, 5) == 5
    with pytest.raises(ZeroDivisionError):
        degB_upper_bound(4, 1, 0, 1)
    # the floor of the exact bound (r - mu/a)^2 L^3 at every target and index
    for r, cubes in FANO_TARGETS.items():
        for L3 in cubes:
            for mu in (1, 2, 3):
                for a in range(1, 13):
                    bound = degB_upper_bound(r, mu, a, L3)
                    assert type(bound) is int
                    assert bound <= (r - Fraction(mu, a)) ** 2 * L3 < bound + 1


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


def _pairing(spelling):
    return tuple(RayType(tag) for tag in spelling.split("+"))


# The verdict of the certificate on each of the 45 unordered pairings of two
# types, in either order, where it is not {1}.  Two del Pezzo fibrations
# fail the cube identity at every index, as a^2 (-K)^3 = 0 for them.
IMPOSSIBLE_PAIRINGS = [_pairing(p) for p in (
    "C2+D2", "C2+E34", "D1+D1", "D1+D2", "D1+D3", "D1+E34", "D2+D2", "D2+D3",
    "D2+E34", "D2+E5", "D3+D3", "D3+E34", "E34+E5",
)]
LARGER_INDICES = {
    _pairing("D3+E5"): {2},
    _pairing("E2+E2"): {1, 2, 3, 4},
    _pairing("E2+E34"): {1, 3},
    _pairing("E34+E34"): {1, 2},
    _pairing("E5+E5"): {1, 2},
}
# Index 1, yet outside the pairings the engine solves.
EXCLUDED_AT_INDEX_ONE = [_pairing(p) for p in ("D1+E2", "D1+E5", "D2+E2", "D3+E2", "E2+E5")]


def test_the_certificate_on_every_pairing_of_two_types():
    pairings = [(t1, t2) for i, t1 in enumerate(RayType) for t2 in list(RayType)[i:]]
    assert len(pairings) == 45
    expected = {pair: {1} for pair in pairings}
    expected.update(dict.fromkeys(IMPOSSIBLE_PAIRINGS, InconsistencyError))
    expected.update(LARGER_INDICES)
    # the engine's pairings, but for two the certificate rules out, and five more
    solved = set(_RANK2_PAIRINGS) - set(IMPOSSIBLE_PAIRINGS)
    assert len(solved) == 22
    assert {pair for pair, verdict in expected.items() if verdict == {1}} == (
        solved | set(EXCLUDED_AT_INDEX_ONE)
    )
    for (t1, t2), verdict in expected.items():
        for first, second in ((t1, t2), (t2, t1)):
            assert _candidates_or_error(mu_of(first), mu_of(second), first, second) == (
                verdict if verdict is InconsistencyError else frozenset(verdict)
            ), (first.value, second.value)


def test_lattice_index_validates_lengths():
    with pytest.raises(ConstraintError):
        lattice_index_candidates(2, 1, RayType.C1, None)
    with pytest.raises(ConstraintError):
        lattice_index_candidates(1, 2, RayType.C1, RayType.D3)
    with pytest.raises(ConstraintError, match="empty set of admissible second-ray types"):
        lattice_index_candidates(2, 2, RayType.C2, ())


def _candidates_or_error(mu1, mu2, type1, type2):
    try:
        return lattice_index_candidates(mu1, mu2, type1, type2)
    except InconsistencyError:
        return InconsistencyError


def _reference_candidates(mu1, mu2, type1, type2):
    """``lattice_index_candidates`` as a sweep of a over 1..199, kept as its oracle."""
    surviving = set()
    for a in range(1, 200):
        if not _primitivity_allows(a, mu1, mu2):
            continue
        for t2 in _resolve_second_types(type1, mu2, type2):
            if _cube_identity_allows(a, type1, mu1, t2, mu2):
                set2 = _value_set(t2, mu1, a)
                for v1 in _value_set(type1, mu2, a):
                    v2, remainder = divmod(24 * a - mu2 * v1, mu1)
                    if not remainder and v2 in set2:
                        surviving.add(a)
    return frozenset(surviving) or InconsistencyError


@pytest.mark.parametrize(
    "mu1,mu2,type1,type2",
    [(mu_of(t1), mu_of(t2), t1, t2) for t1 in RayType for t2 in RayType]
    + [config for config in NINE_CONFIGURATIONS if config[3] is None],
    ids=lambda value: getattr(value, "value", str(value)),
)
def test_the_derived_index_bound_cuts_no_survivor_off(mu1, mu2, type1, type2):
    # the sweep stops at (mu2 M1 + mu1 M2) / 24; none past it survives
    assert _candidates_or_error(mu1, mu2, type1, type2) == _reference_candidates(
        mu1, mu2, type1, type2
    )


@pytest.mark.parametrize(
    "c_type,d_type", [(c, d) for c in C_TYPES for d in D_TYPES], ids=lambda t: t.value
)
def test_lattice_index_is_symmetric_in_a_conic_and_a_del_pezzo_ray(c_type, d_type):
    # the D-first call reads the cube identity's two facts in the other order
    mu_c, mu_d = mu_of(c_type), mu_of(d_type)
    assert _candidates_or_error(mu_d, mu_c, d_type, c_type) == _candidates_or_error(
        mu_c, mu_d, c_type, d_type
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
