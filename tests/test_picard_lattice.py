"""Known values and algebraic properties of the lattice arithmetic."""

import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoenum.errors import ConstraintError, DimensionMismatchError
from fanoenum.picard_lattice import (
    DivisorClass,
    TrilinearForm,
    anticanonical_class,
    triple_product,
)


def test_product_of_ones_on_conic_conic_form():
    # (H1 + H2)^3 = 0 + 3*2 + 3*2 + 0 on the degree-12 conic-bundle pair
    form = TrilinearForm(2, (0, 2, 2, 0))
    one = DivisorClass((1, 1))
    assert triple_product(form, one, one, one) == 12


def test_zero_class_kills_the_product():
    form = TrilinearForm(2, (5, -3, 7, 11))
    zero = DivisorClass((0, 0))
    one = DivisorClass((1, 1))
    assert triple_product(form, zero, one, one) == 0
    assert triple_product(form, one, zero, one) == 0


def test_module_operations():
    x = DivisorClass((3, -1))
    y = DivisorClass((1, 2))
    assert (x + y).coords == (4, 1)
    assert (x - y).coords == (2, -3)
    assert (-x).coords == (-3, 1)
    assert (2 * x).coords == (6, -2)
    with pytest.raises(DimensionMismatchError):
        x - DivisorClass((1, 1, 1))
    # a class adds only to a class: an int operand is no class, not a shift
    for operate in (lambda: x + 1, lambda: x - 1, lambda: 1 + x):
        with pytest.raises(TypeError, match="unsupported operand"):
            operate()


def test_blowup_of_p3_form_cubes_to_16():
    # 1 + 3*3 + 3*2 + 0 = 16, the anticanonical cube of a genus-5 blowup of P^3
    form = TrilinearForm(2, (1, 3, 2, 0))
    one = DivisorClass((1, 1))
    assert triple_product(form, one, one, one) == 16


def test_rank3_product():
    form = TrilinearForm.from_nonzero(3, {(1, 2, 3): 2})
    h = DivisorClass((1, 1, 1))
    # 3! orderings of the mixed term
    assert triple_product(form, h, h, h) == 12


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_a_class_of_the_other_rank_is_an_error_in_every_slot(slot):
    for form, good, bad in (
        (TrilinearForm(2, (0, 1, 1, 0)), (1, 1), (1, 1, 1)),
        (TrilinearForm.from_nonzero(3, {(1, 2, 3): 1}), (1, 1, 1), (1, 1)),
    ):
        classes = [DivisorClass(good)] * 3
        classes[slot] = DivisorClass(bad)
        with pytest.raises(DimensionMismatchError, match="fed to a rank-"):
            triple_product(form, *classes)


def test_rank_mismatch_is_an_error():
    with pytest.raises(DimensionMismatchError, match="got 1 coordinates"):
        DivisorClass((1,))
    with pytest.raises(DimensionMismatchError, match="rank must be 2 or 3, got 4"):
        TrilinearForm(4, ())
    with pytest.raises(DimensionMismatchError, match="rank must be 2 or 3, got 4"):
        TrilinearForm.from_nonzero(4, {(1, 2, 3): 1})
    # 2.0 == 2 and True == 1: the rank is the int itself, as for enumerate_all
    for rho in (2.0, True):
        with pytest.raises(DimensionMismatchError, match=f"rank must be 2 or 3, got {rho}"):
            TrilinearForm(rho, (0, 1, 1, 0))
        with pytest.raises(DimensionMismatchError, match=f"rank must be 2 or 3, got {rho}"):
            TrilinearForm.from_nonzero(rho, {(1, 1, 2): 1})


def test_missing_entries_are_an_error():
    # the tuple constructor takes every value; from_nonzero reads a missing triple as 0
    with pytest.raises(DimensionMismatchError, match="a rank-2 form has 4 values, got 2"):
        TrilinearForm(2, (0, 0))
    sparse = TrilinearForm.from_nonzero(2, {(1, 1, 1): 0, (2, 2, 2): 0})
    assert sparse.values == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "rho,values,error,message",
    [
        (2, [1, 3, 2, 0], ConstraintError, "must be a tuple of integers"),
        (2, {(1, 1, 1): 1}, ConstraintError, "must be a tuple of integers"),
        (3, (1, 3, 2, 0), DimensionMismatchError, "a rank-3 form has 10 values, got 4"),
    ],
    ids=["list", "dict", "wrong-length"],
)
def test_the_constructor_takes_one_tuple_of_its_rank(rho, values, error, message):
    # a list is not converted and a dict would give its keys: only the tuple is
    # a form (test_trilinear_form_takes_only_int_entries covers its values)
    with pytest.raises(error, match=message):
        TrilinearForm(rho, values)


@pytest.mark.parametrize(
    "entries",
    [
        {(1, 1, 1): 0, (1, 1, 2): 0, (1, 2, 2): 0, (2, 2, 2): 0, (1, 1, 3): 0},
        {(1, 1, 1): 0, (1, 1, 2): 0, (1, 2, 2): 0, (2, 2, 2): 0, (0, 1, 1): 0},
        {(1, 1, 1): 0, (1, 1, 2): 0, (1, 2, 2): 0, (2, 2, 2): 0, (2, 2, 4): 0},
    ],
    ids=["index-3", "index-0", "index-4"],
)
def test_out_of_range_entries_are_an_error(entries):
    with pytest.raises(DimensionMismatchError, match="out of range for rank 2"):
        TrilinearForm.from_nonzero(2, entries)


@pytest.mark.parametrize(
    "keys",
    [
        [("1", "1", "1"), (1.9, 1, 2), (1, 2, 2), (2, 2, 2)],
        [(1.0, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)],
        [(1, 1, 1), (1, 1, 2), (2, True, 2), (2, 2, 2)],
        [(1, 1, 1), (1, 2), (1, 2, 2), (2, 2, 2)],
        [(1, 1, 1), (1, 1, 1, 1), (1, 2, 2), (2, 2, 2)],
        [(1, 1, 1), 5, (1, 2, 2), (2, 2, 2)],
        [(1, 1, 1), (1, 1, "2"), (1, 2, 2), (2, 2, 2)],
        [(1, 1, True), (1, 1, 2), (1, 2, 2), (2, 2, 2)],
    ],
    ids=["str-and-float", "integral-float", "bool", "pair", "quadruple", "int", "str",
         "bool-last"],
)
def test_trilinear_form_takes_only_int_indices(keys):
    # int() would read ('1', '1', '1') as (1, 1, 1) and (1.9, 1, 2) as (1, 1, 2),
    # and a dict finds the entry (1, 1, 1) under the key (1, 1, True)
    with pytest.raises(ConstraintError, match="form indices must be integers"):
        TrilinearForm.from_nonzero(2, dict(zip(keys, (0, 4, 0, 0))))


def test_conflicting_entries_are_an_error():
    # an unsorted duplicate is an error as unsorted, whether or not its value agrees
    for value in (5, 4):
        entries = {(1, 1, 1): 0, (1, 1, 2): 4, (2, 1, 1): value, (1, 2, 2): 0, (2, 2, 2): 0}
        with pytest.raises(ConstraintError, match=r"index triple \(2, 1, 1\) is not sorted"):
            TrilinearForm.from_nonzero(2, entries)


def test_from_nonzero_rejects_conflicting_entries_as_the_constructor_does():
    # the check is the same on a sparse mapping and on one with every triple
    for nonzero in ({(1, 1, 2): 1, (1, 2, 1): 2}, {(1, 1, 2): 1, (1, 2, 1): 1}):
        full = {(1, 1, 1): 0, (1, 2, 2): 0, (2, 2, 2): 0, **nonzero}
        for entries in (nonzero, full):
            with pytest.raises(ConstraintError, match=r"index triple \(1, 2, 1\) is not sorted"):
                TrilinearForm.from_nonzero(2, entries)


def test_unsorted_keys_are_an_error():
    entries = {(1, 1, 1): 0, (2, 1, 1): 4, (2, 2, 1): 5, (2, 2, 2): 0}
    with pytest.raises(ConstraintError, match=r"index triple \(2, 1, 1\) is not sorted"):
        TrilinearForm.from_nonzero(2, entries)
    # an index out of range is a dimension error, before any unsorted key
    with pytest.raises(DimensionMismatchError, match=r"\(3, 1, 1\) out of range for rank 2"):
        TrilinearForm.from_nonzero(2, {(2, 1, 1): 1, (3, 1, 1): 1})


def test_equal_forms_hash_equal():
    form = TrilinearForm(2, (1, 2, 3, 4))
    same = TrilinearForm.from_nonzero(2, {(2, 2, 2): 4, (1, 2, 2): 3, (1, 1, 2): 2, (1, 1, 1): 1})
    assert same == form == TrilinearForm(2, (1, 2, 3, 4))
    assert hash(same) == hash(form) == hash(TrilinearForm(2, (1, 2, 3, 4)))
    assert len({form, same, TrilinearForm.from_nonzero(2, {(1, 1, 1): 1})}) == 2


def test_divisor_class_takes_only_ints():
    # int(1.7) would be 1 and int(True) 1: such coordinates are rejected, not truncated
    for coords in [(1.7, 2), ("3", True), (1, 2, False), (2.0, 1)]:
        with pytest.raises(ConstraintError, match="coordinates must be integers"):
            DivisorClass(coords)
    with pytest.raises(ConstraintError, match="coordinates must be integers"):
        2.5 * DivisorClass((1, 2))
    # True * x would be x: a scalar is an int, not a bool
    with pytest.raises(ConstraintError, match="coordinates must be integers, got the scalar True"):
        True * DivisorClass((1, 0))
    # only a tuple: a list is not converted, a dict would give its keys, a set its own order
    for coords in [[3, 1], {1: 0, 2: 0}, {3, 1, 2}, iter((1, 2))]:
        with pytest.raises(ConstraintError, match="coordinates must be a tuple of integers"):
            DivisorClass(coords)


def _first_error(rho, entries):
    """The error class ``from_nonzero`` raises on ``entries``, by its contract."""
    if any(not 1 <= index <= rho for key in entries for index in key):
        return DimensionMismatchError
    if any(list(key) != sorted(key) for key in entries):
        return ConstraintError
    return None


@settings(max_examples=300)
@given(st.data())
def test_a_form_takes_exactly_the_sorted_triples_of_its_rank(data):
    rho = data.draw(st.sampled_from((2, 3)))
    support = list(itertools.combinations_with_replacement(range(1, rho + 1), 3))
    entries = data.draw(st.fixed_dictionaries(dict.fromkeys(support, st.integers(-9, 9))))
    for key in data.draw(st.sets(st.sampled_from(support), max_size=2)):
        del entries[key]
    triples = st.tuples(*[st.integers(0, 4)] * 3)
    entries.update(data.draw(st.dictionaries(triples, st.integers(-9, 9), max_size=3)))
    error = _first_error(rho, entries)
    if error is None:
        form = TrilinearForm.from_nonzero(rho, entries)
        assert dict(zip(support, form.values)) == {**dict.fromkeys(support, 0), **entries}
        assert len(form.values) == math.comb(rho + 2, 3)
        same = TrilinearForm(rho, form.values)
        assert same == form and hash(same) == hash(form)
        copy = pickle.loads(pickle.dumps(form))
        assert copy == form and copy.values == form.values
    else:
        with pytest.raises(error):
            TrilinearForm.from_nonzero(rho, entries)


@pytest.mark.parametrize(
    "values", [(0.9, 1, 2, 3), (0, 1, 2, "3"), (0, True, 2, 3)], ids=["float", "str", "bool"]
)
def test_trilinear_form_takes_only_int_entries(values):
    keys = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))
    with pytest.raises(ConstraintError, match="form entries must be integers"):
        TrilinearForm(2, values)
    with pytest.raises(ConstraintError, match="form entries must be integers"):
        TrilinearForm.from_nonzero(2, dict(zip(keys, values)))


def test_rank2_stores_the_canonical_keys():
    form = TrilinearForm(2, (1, 2, 3, 4))
    assert form.values == (1, 2, 3, 4)
    assert form == TrilinearForm.from_nonzero(
        2, {(2, 2, 2): 4, (1, 2, 2): 3, (1, 1, 2): 2, (1, 1, 1): 1}
    )


def test_anticanonical_rank2():
    assert anticanonical_class(1, 2).coords == (2, 1)
    assert anticanonical_class(2, 2).coords == (2, 2)
    with pytest.raises(ConstraintError, match="ray length must be 1, 2 or 3, got 4"):
        anticanonical_class(4, 1)


@pytest.mark.parametrize(
    "value,text,good,bad,error",
    [
        (
            DivisorClass((1, 2)),
            "DivisorClass(coords=(1, 2))",
            {"coords": (3, 4)},
            {"coords": (1, 2.5)},
            ConstraintError,
        ),
        (
            TrilinearForm(2, (1, 3, 2, 0)),
            "TrilinearForm(rho=2, values=(1, 3, 2, 0))",
            {"values": (1, 3, 2, 5)},
            {"rho": 4},
            DimensionMismatchError,
        ),
    ],
    ids=["divisor-class", "trilinear-form"],
)
def test_value_objects_follow_their_fields(value, text, good, bad, error):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value) and hash(copy) == hash(value)
    assert repr(value) == text
    changed = value._replace(**good)
    assert changed != value and type(changed) is type(value)
    assert [getattr(changed, name) for name in good] == list(good.values())
    with pytest.raises(error):
        value._replace(**bad)
    with pytest.raises(TypeError, match="has no field 'size'"):
        value._replace(size=2)
    name = value.__slots__[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(value, name)
    assert DivisorClass((1, 2)) != (1, 2) and (1, 2) != DivisorClass((1, 2))
    assert anticanonical_class(1, 1).coords == (1, 1)


values2 = st.tuples(*[st.integers(-20, 20)] * 4)
coords2 = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
values3 = st.tuples(*[st.integers(-20, 20)] * 10)
coords3 = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))


def _reference_triple_product(form, x, y, z):
    """x . y . z by the multilinear loop over every ordered index triple.

    This was triple_product's own evaluation; it is kept as the oracle of
    the closed-form rank-2 path and of the rank-3 sum.
    """
    indices = range(1, form.rho + 1)
    values = dict(zip(itertools.combinations_with_replacement(indices, 3), form.values))
    total = 0
    for i in indices:
        xi = x.coords[i - 1]
        if xi == 0:
            continue
        for j in indices:
            yj = y.coords[j - 1]
            if yj == 0:
                continue
            for k in indices:
                zk = z.coords[k - 1]
                if zk == 0:
                    continue
                total += xi * yj * zk * values[tuple(sorted((i, j, k)))]
    return total


@settings(max_examples=300)
@given(values2, coords2, coords2, coords2)
def test_triple_product_agrees_with_the_multilinear_sum(values, xc, yc, zc):
    form = TrilinearForm(2, values)
    x, y, z = DivisorClass(xc), DivisorClass(yc), DivisorClass(zc)
    assert triple_product(form, x, y, z) == _reference_triple_product(form, x, y, z)


@settings(max_examples=300)
@given(values3, coords3, coords3, coords3)
def test_triple_product_agrees_with_the_multilinear_sum_on_rank_3(values, xc, yc, zc):
    form = TrilinearForm(3, values)
    x, y, z = DivisorClass(xc), DivisorClass(yc), DivisorClass(zc)
    assert triple_product(form, x, y, z) == _reference_triple_product(form, x, y, z)


@settings(max_examples=100)
@given(values2, coords2, coords2, coords2)
def test_triple_product_symmetric(values, xc, yc, zc):
    form = TrilinearForm(2, values)
    x, y, z = DivisorClass(xc), DivisorClass(yc), DivisorClass(zc)
    base = triple_product(form, x, y, z)
    assert triple_product(form, x, z, y) == base
    assert triple_product(form, y, x, z) == base
    assert triple_product(form, y, z, x) == base
    assert triple_product(form, z, x, y) == base
    assert triple_product(form, z, y, x) == base


@settings(max_examples=100)
@given(values2, coords2, coords2, coords2, coords2)
def test_triple_product_linear_in_first_slot(values, xc, xc2, yc, zc):
    form = TrilinearForm(2, values)
    x, x2 = DivisorClass(xc), DivisorClass(xc2)
    y, z = DivisorClass(yc), DivisorClass(zc)
    assert triple_product(form, x + x2, y, z) == triple_product(
        form, x, y, z
    ) + triple_product(form, x2, y, z)


@settings(max_examples=100)
@given(values2, coords2, coords2, coords2, st.integers(-5, 5))
def test_triple_product_respects_scaling(values, xc, yc, zc, n):
    form = TrilinearForm(2, values)
    x, y, z = DivisorClass(xc), DivisorClass(yc), DivisorClass(zc)
    assert triple_product(form, n * x, y, z) == n * triple_product(form, x, y, z)
