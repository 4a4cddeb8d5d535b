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
    with pytest.raises(DimensionMismatchError, match="^cannot add classes of rank 2 and 3$"):
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
    form = TrilinearForm(3, (0, 0, 0, 0, 2, 0, 0, 0, 0, 0))
    h = DivisorClass((1, 1, 1))
    # 3! orderings of the mixed term
    assert triple_product(form, h, h, h) == 12


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_a_class_of_the_other_rank_is_an_error_in_every_slot(slot):
    for form, good, bad in (
        (TrilinearForm(2, (0, 1, 1, 0)), (1, 1), (1, 1, 1)),
        (TrilinearForm(3, (0, 0, 0, 0, 1, 0, 0, 0, 0, 0)), (1, 1, 1), (1, 1)),
    ):
        classes = [DivisorClass(good)] * 3
        classes[slot] = DivisorClass(bad)
        message = f"^class of rank {len(bad)} fed to a rank-{form.rho} form$"
        with pytest.raises(DimensionMismatchError, match=message):
            triple_product(form, *classes)


@pytest.mark.parametrize("slot", range(4), ids=["form", "x", "y", "z"])
def test_an_argument_that_is_no_lattice_value_is_an_error_in_every_slot(slot):
    # a tuple of the right values, or a class in the form's slot and the form
    # in a class's, is no lattice value: one ConstraintError naming the four
    form, h = TrilinearForm(2, (0, 1, 1, 0)), DivisorClass((1, 1))
    for stranger in ((1, 1), (0, 1, 1, 0), h if slot == 0 else form):
        args = [form, h, h, h]
        args[slot] = stranger
        with pytest.raises(ConstraintError) as caught:
            triple_product(*args)
        assert str(caught.value) == (
            "triple_product takes a TrilinearForm and three DivisorClasses, got "
            f"{args[0]!r}, {args[1]!r}, {args[2]!r} and {args[3]!r}"
        )


def test_rank_mismatch_is_an_error():
    with pytest.raises(DimensionMismatchError, match="got 1 coordinates"):
        DivisorClass((1,))
    with pytest.raises(DimensionMismatchError, match="rank must be 2 or 3, got 4"):
        TrilinearForm(4, ())
    with pytest.raises(DimensionMismatchError, match="rank must be 2 or 3, got 4"):
        TrilinearForm(4, (0,) * 20)  # the 20 values of a rank-4 form
    # 2.0 == 2 and True == 1: the rank is the int itself, as for enumerate_all
    for rho, values in ((2.0, (0, 1, 1, 0)), (True, (0, 1, 1, 0)), (3.0, (0,) * 10)):
        with pytest.raises(DimensionMismatchError, match=f"rank must be 2 or 3, got {rho}"):
            TrilinearForm(rho, values)


def test_missing_entries_are_an_error():
    # the constructor takes every value: a missing one is not read as 0
    with pytest.raises(DimensionMismatchError, match="a rank-2 form has 4 values, got 2"):
        TrilinearForm(2, (0, 0))
    with pytest.raises(DimensionMismatchError, match="a rank-3 form has 10 values, got 9"):
        TrilinearForm(3, (0,) * 9)


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


def test_equal_forms_hash_equal():
    form = TrilinearForm(2, (1, 2, 3, 4))
    same = TrilinearForm(2, tuple(range(1, 5)))  # an equal tuple, built apart
    assert same.values is not form.values
    assert same == form == TrilinearForm(2, (1, 2, 3, 4))
    assert hash(same) == hash(form) == hash(TrilinearForm(2, (1, 2, 3, 4)))
    assert len({form, same, TrilinearForm(2, (1, 0, 0, 0))}) == 2
    # a rank-3 form whose values start with the same four is another form
    rank3 = TrilinearForm(3, (1, 2, 3, 4, 0, 0, 0, 0, 0, 0))
    assert rank3 != form and len({form, rank3}) == 2


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


@settings(max_examples=300)
@given(st.sampled_from((2, 3)), st.data())
def test_a_form_takes_exactly_the_sorted_triples_of_its_rank(rho, data):
    # one int value per sorted index triple: 4 on rank 2, 10 on rank 3
    size = math.comb(rho + 2, 3)
    length = data.draw(st.just(size) | st.integers(0, 12))
    values = data.draw(st.tuples(*[st.integers(-(2**70), 2**70)] * length))
    if length != size:
        with pytest.raises(DimensionMismatchError, match=f"has {size} values, got {len(values)}"):
            TrilinearForm(rho, values)
        return
    form = TrilinearForm(rho, values)
    assert form.rho == rho and form.values == values and type(form.values) is tuple
    same = TrilinearForm(rho, form.values)
    assert same == form and hash(same) == hash(form)
    copy = pickle.loads(pickle.dumps(form))
    assert copy == form and copy.values == form.values and hash(copy) == hash(form)


@pytest.mark.parametrize(
    "values", [(0.9, 1, 2, 3), (0, 1, 2, "3"), (0, True, 2, 3)], ids=["float", "str", "bool"]
)
def test_trilinear_form_takes_only_int_entries(values):
    with pytest.raises(ConstraintError, match="form entries must be integers"):
        TrilinearForm(2, values)
    with pytest.raises(ConstraintError, match="form entries must be integers"):
        TrilinearForm(3, (0,) * 6 + values)


def test_rank2_stores_the_canonical_keys():
    # value n sits at the n-th sorted index triple (i, j, k): it is H_i . H_j . H_k
    for rho in (2, 3):
        triples = list(itertools.combinations_with_replacement(range(rho), 3))
        form = TrilinearForm(rho, tuple(range(1, len(triples) + 1)))
        assert form.values == tuple(range(1, len(triples) + 1))
        basis = [DivisorClass(tuple(int(i == j) for j in range(rho))) for i in range(rho)]
        products = [triple_product(form, *(basis[i] for i in key)) for key in triples]
        assert products == list(form.values)


def test_anticanonical_rank2():
    assert anticanonical_class(1, 2).coords == (2, 1)
    assert anticanonical_class(2, 2).coords == (2, 2)
    with pytest.raises(ConstraintError, match="ray length must be 1, 2 or 3, got 4"):
        anticanonical_class(4, 1)
    # True == 1 and 2.0 == 2: a length is the int itself, in either slot
    for mu in (True, 2.0):
        for args in ((mu, 2), (2, mu)):
            with pytest.raises(ConstraintError, match=f"ray length must be 1, 2 or 3, got {mu}"):
                anticanonical_class(*args)


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
