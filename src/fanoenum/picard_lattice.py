"""Exact arithmetic on low-rank Picard lattices.

A smooth Fano threefold with free Picard group of rank rho carries a symmetric
trilinear intersection form Pic x Pic x Pic -> Z.  This module models divisor
classes as integer coordinate vectors in a fixed basis, the cup-product form as
a table of values on basis multisets, and evaluates triple products by full
multilinear expansion.  Everything is immutable and pure; no floats anywhere.

The two classes derive from :class:`ValueObject`, not from tuple, so that
tuple repetition and concatenation cannot pass for lattice arithmetic
(``3 * x`` scales, ``x * 3`` is a TypeError).
"""

import itertools
from collections.abc import Mapping

from .errors import ConstraintError, DimensionMismatchError

__all__ = [
    "DivisorClass",
    "TrilinearForm",
    "triple_product",
    "anticanonical_class",
]


# The one type an integer value may have: int, and not its subclass bool.
# A constructor checks all its values with one superset test of their types.
INTEGER = frozenset({int})

# How a ValueObject constructor sets its fields: one call per field through
# this module-level name measured faster than a frozen dataclass or a fresh
# lookup of object.__setattr__ (not specialised for a type in Python 3.11).
# It still costs ~0.2 us a field, so the records the engine builds per
# solution, RaySpec and SolutionRecord, are checked named tuples instead.
# The default constructor's loop over the fields serves only the tables
# built once at import.
set_field = object.__setattr__


class ValueObject:
    """Base of the package's immutable value classes, field by field.

    DivisorClass and TrilinearForm use it so that tuple arithmetic cannot
    pass for lattice arithmetic; ray_constraints.TypeFacts and
    enumerator._Side, built once at import, because a named-tuple class
    costs more to import and its field reads are slower than slot reads.
    Each subclass lists its fields in ``__slots__``, in the order of its
    constructor's parameters.  The default constructor takes one value per
    field, in that order, and checks none; DivisorClass and TrilinearForm
    write their own, which check theirs and set each field with
    ``set_field``.  Equality, hash, repr, pickling and ``_replace`` follow
    the fields; ``_replace`` goes through the constructor, so its checks hold.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes):
        values = tuple(changes.pop(name, getattr(self, name)) for name in self.__slots__)
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(map(repr, changes))}")
        return type(self)(*values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class DivisorClass(ValueObject):
    r"""A divisor class in a fixed basis of Pic(X) \cong Z^rho, rho in {2, 3}.

    ``coords`` are the integer coordinates; the lattice rank is ``rho``.
    Addition, negation and integer scaling are provided so linearity statements
    can be written down directly.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        if type(coords) is not tuple:  # a dict or set would give its keys, in its order
            raise ConstraintError(f"coordinates must be a tuple of integers, got {coords!r}")
        if len(coords) not in (2, 3):
            raise DimensionMismatchError(
                f"divisor classes must have rank 2 or 3, got {len(coords)} coordinates"
            )
        if not INTEGER.issuperset(map(type, coords)):
            raise ConstraintError(f"coordinates must be integers, got {coords!r}")
        set_field(self, "coords", coords)

    @property
    def rho(self) -> int:
        return len(self.coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if self.rho != other.rho:
            raise DimensionMismatchError(
                f"cannot add classes of rank {self.rho} and {other.rho}"
            )
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __rmul__(self, n: int) -> "DivisorClass":
        return DivisorClass(tuple(n * a for a in self.coords))


# Every ordered index triple over 1..3 -> its sorted form, the key of a form entry.
_SORTED_KEY = {
    key: tuple(sorted(key)) for key in itertools.product(range(1, 4), repeat=3)
}


# Each rank -> its index multisets 1 <= i <= j <= k <= rho, in order: a form's keys.
_MULTISET_KEYS = {
    rho: dict.fromkeys(itertools.combinations_with_replacement(range(1, rho + 1), 3))
    for rho in (2, 3)
}


def _check_values(values) -> None:
    if not INTEGER.issuperset(map(type, values)):
        raise ConstraintError(f"form entries must be integers, got {tuple(values)!r}")


def _check_keys(keys) -> None:
    if not all(
        type(key) is tuple and len(key) == 3 and INTEGER.issuperset(map(type, key))
        for key in keys
    ):
        raise ConstraintError(f"form indices must be integers, got {tuple(keys)!r}")


class TrilinearForm(ValueObject):
    """A symmetric trilinear form on Z^rho given by its values on basis triples.

    ``entries`` maps each sorted index triple (i, j, k), 1-based with
    i <= j <= k <= rho, to the integer H_i . H_j . H_k, and no other key.
    Every multiset must be present -- a missing entry is an error, not an
    implicit zero -- so that a form is unambiguous data.  ``entries`` holds
    them in the order of the sorted triples, so equal forms list them alike.
    Use :meth:`from_nonzero` when writing down sparse forms by hand.
    """

    __slots__ = ("rho", "entries")

    def __init__(self, rho: int, entries: Mapping[tuple[int, int, int], int]) -> None:
        if rho not in (2, 3):
            raise DimensionMismatchError(f"rank must be 2 or 3, got {rho}")
        _check_values(entries.values())
        _check_keys(entries)
        required = _MULTISET_KEYS[rho]
        unknown = [key for key in entries if key not in required]
        for key in unknown:  # an index out of range is the first error, sorted or not
            if min(key) < 1 or max(key) > rho:
                raise DimensionMismatchError(f"index triple {key} out of range for rank {rho}")
        if unknown:
            raise ConstraintError(f"index triple {unknown[0]} is not sorted")
        if len(entries) < len(required):
            missing = [k for k in required if k not in entries]
            raise ConstraintError(f"trilinear form on rank {rho} is missing entries {missing}")
        set_field(self, "rho", rho)
        set_field(self, "entries", {k: entries[k] for k in required})

    @classmethod
    def from_nonzero(
        cls, rho: int, nonzero: Mapping[tuple[int, int, int], int]
    ) -> "TrilinearForm":
        """Build a form from its nonzero entries, filling the rest with 0."""
        _check_keys(nonzero)  # first: the key (1, 1, True) would set the entry (1, 1, 1)
        entries = dict.fromkeys(_MULTISET_KEYS.get(rho, ()), 0)  # cls checks rho
        entries.update(nonzero)
        return cls(rho, entries)

    @classmethod
    def rank2(cls, h111: int, h112: int, h122: int, h222: int) -> "TrilinearForm":
        """Convenience constructor for rank 2: the four cubes in order.

        The keys are the canonical ones, so only the values are checked.
        """
        entries = {(1, 1, 1): h111, (1, 1, 2): h112, (1, 2, 2): h122, (2, 2, 2): h222}
        _check_values(entries.values())
        form = object.__new__(cls)
        set_field(form, "rho", 2)
        set_field(form, "entries", entries)
        return form

    def __hash__(self) -> int:
        # entries is a dict, in the same key order on equal forms
        return hash((self.rho, tuple(self.entries.items())))


def triple_product(
    form: TrilinearForm, x: DivisorClass, y: DivisorClass, z: DivisorClass
) -> int:
    """Evaluate x . y . z under ``form`` by full multilinear expansion.

    The sum runs over all 27 ordered index triples on rank 3; symmetry of the
    stored form makes the result independent of argument order.  On rank 2
    the eight triples are written out over the four entries, which the form
    holds in canonical key order; every record's cube is checked this way.
    """
    xc, yc, zc = x.coords, y.coords, z.coords
    rho = form.rho
    if not len(xc) == len(yc) == len(zc) == rho:
        for cls_ in (x, y, z):
            if cls_.rho != rho:
                raise DimensionMismatchError(
                    f"class of rank {cls_.rho} fed to a rank-{rho} form"
                )
    entries = form.entries
    if rho == 2:
        (x1, x2), (y1, y2), (z1, z2) = xc, yc, zc
        h111, h112, h122, h222 = entries.values()
        return (
            x1 * y1 * z1 * h111
            + (x1 * y1 * z2 + x1 * y2 * z1 + x2 * y1 * z1) * h112
            + (x1 * y2 * z2 + x2 * y1 * z2 + x2 * y2 * z1) * h122
            + x2 * y2 * z2 * h222
        )
    return sum(
        xc[i - 1] * yc[j - 1] * zc[k - 1] * entries[key]
        for (i, j, k), key in _SORTED_KEY.items()
    )


def anticanonical_class(mu1: int, mu2: int) -> DivisorClass:
    """The rank-2 anticanonical class in the basis dual to the two extremal rays.

    With H_i the pullback of the ample generator along the contraction of the
    ray R_i of length mu_i, the two pullbacks have index 1 in Pic(X)
    (``tests/test_index_oracle.py``, acceptance criterion 4), which pins
    -K = mu2*H_1 + mu1*H_2, so the coordinates are (mu2, mu1).
    """
    for mu in (mu1, mu2):
        if mu not in (1, 2, 3):
            raise ConstraintError(f"ray length must be 1, 2 or 3, got {mu}")
    return DivisorClass((mu2, mu1))
