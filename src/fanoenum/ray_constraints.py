"""Extremal-ray data and the numerical constraints attached to them.

A smooth Fano threefold of Picard rank 2 has two extremal contractions, each
of one of nine types: conic bundles over P^2 (C1 with discriminant, C2 smooth),
del Pezzo fibrations over P^1 (D1/D2/D3 by fibre degree), and divisorial
contractions (E1 to a curve, E2 to a point, E3/E4 to a point on a quadric-like
germ, E5 to a half-point).  Each type fixes the length mu of the ray and the
value of c_2(X) . H against the pullback H of the ample generator on the
target.  Those values satisfy one global relation (24 = mu2 c2.H1 + mu1 c2.H2
when the two pullbacks form a basis), which is what makes exhaustive integer
enumeration possible.

This module holds the per-type tables, the balance relation, the degree bound
for blowup centres, and the elimination argument showing the two pullbacks
always form a basis of the Picard lattice (index 1).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .errors import (
    ConstraintError,
    IncompleteSpecError,
    InconsistencyError,
    UnsupportedIndexError,
)
from .picard_lattice import ValueObject, set_field

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "RayType",
    "RaySpec",
    "mu_of",
    "c2_dot_H",
    "balance_check",
    "l3_range",
    "degB_upper_bound",
    "lattice_index_candidates",
]


class RayType(enum.Enum):
    """The nine extremal-ray types occurring on rank-2 Fano threefolds.

    Declaration order is the canonical sort order used when normalizing the
    ray pair of a solution record.
    """

    C1 = "C1"
    C2 = "C2"
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    E1 = "E1"
    E2 = "E2"
    E34 = "E34"
    E5 = "E5"

    @property
    def order(self) -> int:
        return _RAY_ORDER[self]

    @property
    def display(self) -> str:
        return "E3/E4" if self is RayType.E34 else self.value

    @classmethod
    def parse(cls, token: str) -> "RayType":
        """Parse a user-facing spelling, case-insensitively ('E3E4' = E34)."""
        key = token.strip().upper().replace("/", "").replace("_", "")
        if key in ("E3E4", "E34"):
            return cls.E34
        try:
            return cls(key)
        except ValueError:
            raise ConstraintError(f"unknown extremal-ray type {token!r}") from None


_RAY_ORDER = {t: i for i, t in enumerate(RayType)}

_MU = {
    RayType.C1: 1,
    RayType.C2: 2,
    RayType.D1: 1,
    RayType.D2: 2,
    RayType.D3: 3,
    RayType.E1: 1,
    RayType.E2: 2,
    RayType.E34: 1,
    RayType.E5: 1,
}

_C_TYPES = frozenset({RayType.C1, RayType.C2})
_D_TYPES = frozenset({RayType.D1, RayType.D2, RayType.D3})

# Degrees d2 of the del Pezzo fibres of a D1 ray (D2 and D3 have 8 and 9).
D1_FIBER_DOMAIN = range(1, 8)


def mu_of(ray_type: RayType) -> int:
    """The length of an extremal ray of the given type."""
    return _MU[ray_type]


class RaySpec(ValueObject):
    """One extremal ray together with the integer data its type carries.

    Only the fields relevant to the type need to be set:

    * C1: ``deg_delta`` (discriminant degree, >= 1); rank-3 conic bundles over
      P^1 x P^1 use ``delta_bidegree`` instead.
    * C2: nothing (``deg_delta`` may be set to 0).
    * D1: ``d2`` (del Pezzo fibre degree, 1..7); D2/D3 carry d2 = 8 resp. 9.
    * E1: ``r`` (index of the blowup target, 2..4), ``L3`` (generator cube),
      ``degB`` (centre degree), ``genus`` (centre genus).
    * E2/E34/E5: ``r`` (formal index of the target), ``L3``; ``e`` in {1, 2}
      for the P(O + O(e)) families.

    The fields are checked on construction.
    """

    __slots__ = (
        "ray_type", "r", "L3", "degB", "deg_delta", "d2", "e", "genus", "delta_bidegree"
    )

    def __init__(
        self,
        ray_type: RayType,
        r: Optional[int] = None,
        L3: Optional[int] = None,
        degB: Optional[int] = None,
        deg_delta: Optional[int] = None,
        d2: Optional[int] = None,
        e: Optional[int] = None,
        genus: Optional[int] = None,
        delta_bidegree: Optional[tuple[int, int]] = None,
    ) -> None:
        if ray_type is RayType.E1 and r is not None and not (2 <= r <= 4):
            raise ConstraintError(
                f"an E1 contraction targets a Fano threefold of index 2..4, got r={r}"
            )
        if ray_type is RayType.C1 and deg_delta is not None and deg_delta < 1:
            raise ConstraintError(
                "a C1 conic bundle has a nonempty discriminant (deg_delta >= 1)"
            )
        if ray_type is RayType.C2 and deg_delta not in (None, 0):
            raise ConstraintError("a C2 contraction is a smooth P^1-bundle (deg_delta = 0)")
        if e is not None and e not in (1, 2):
            raise ConstraintError(f"the twist e must be 1 or 2, got {e}")
        for name, value, minimum in (
            ("degB", degB, 1), ("d2", d2, 1), ("L3", L3, 1), ("genus", genus, 0)
        ):
            if value is not None and value < minimum:
                raise ConstraintError(f"{name} must be >= {minimum}, got {value}")
        if delta_bidegree is not None:
            delta_bidegree = tuple(int(v) for v in delta_bidegree)
        set_field(self, "ray_type", ray_type)
        set_field(self, "r", r)
        set_field(self, "L3", L3)
        set_field(self, "degB", degB)
        set_field(self, "deg_delta", deg_delta)
        set_field(self, "d2", d2)
        set_field(self, "e", e)
        set_field(self, "genus", genus)
        set_field(self, "delta_bidegree", delta_bidegree)

    @property
    def mu(self) -> int:
        """The length of the ray, fixed by its type."""
        return _MU[self.ray_type]


def c2_dot_H(spec: RaySpec) -> int:
    """c_2(X) . H for the pullback H of the ample generator along the ray.

    The value is pinned by the ray type: 6 + deg Delta for C1, 6 for C2,
    12 - d2 for del Pezzo fibrations (= 4, 3 for D2, D3), 24/r + deg B for E1,
    24/r for E2 and E3/E4, 45/r for E5.  Missing fields raise
    IncompleteSpecError; failed divisibility raises ConstraintError (a pruning
    event during enumeration).
    """
    t = spec.ray_type
    if t is RayType.C1:
        if spec.deg_delta is None:
            raise IncompleteSpecError("c2 . H for a C1 ray needs deg_delta")
        return 6 + spec.deg_delta
    if t is RayType.C2:
        return 6
    if t is RayType.D1:
        if spec.d2 is None:
            raise IncompleteSpecError("c2 . H for a D1 ray needs d2")
        return 12 - spec.d2
    if t is RayType.D2:
        return 4
    if t is RayType.D3:
        return 3
    if t is RayType.E1:
        if spec.r is None or spec.degB is None:
            raise IncompleteSpecError("c2 . H for an E1 ray needs r and degB")
        if 24 % spec.r != 0:
            raise ConstraintError(f"24/r must be an integer, got r={spec.r}")
        return 24 // spec.r + spec.degB
    if t in (RayType.E2, RayType.E34):
        if spec.r is None:
            raise IncompleteSpecError(f"c2 . H for an {t.display} ray needs r")
        if 24 % spec.r != 0:
            raise ConstraintError(f"24/r must be an integer, got r={spec.r}")
        return 24 // spec.r
    if t is RayType.E5:
        if spec.r is None:
            raise IncompleteSpecError("c2 . H for an E5 ray needs r")
        if 45 % spec.r != 0:
            raise ConstraintError(f"45/r must be an integer, got r={spec.r}")
        return 45 // spec.r
    raise InconsistencyError(f"unhandled ray type {t}")  # pragma: no cover


def balance_check(mu1: int, mu2: int, c2_h1: int, c2_h2: int) -> bool:
    """Whether 24 = mu2 * (c2 . H1) + mu1 * (c2 . H2).

    This is -K . c_2 = 24 (Riemann-Roch with chi(O_X) = 1) written out in the
    basis (H1, H2) with -K = mu2 H1 + mu1 H2.
    """
    return 24 == mu2 * c2_h1 + mu1 * c2_h2


def l3_range(r: int) -> tuple[int, ...]:
    """Admissible generator cubes L^3 for a smooth Fano threefold of index r.

    Index 4: only P^3 (L^3 = 1).  Index 3: only the quadric (L^3 = 2).
    Index 2: the del Pezzo threefolds with L^3 = 1..5 that contain enough
    curves for the blowup analysis.
    """
    if r == 4:
        return (1,)
    if r == 3:
        return (2,)
    if r == 2:
        return (1, 2, 3, 4, 5)
    raise UnsupportedIndexError(f"no supported Fano index {r}")


def degB_upper_bound(r1: int, mu2: int, a: int, L1_cubed: int) -> Fraction:
    """Exact upper bound (r1 - mu2/a)^2 * L1^3 for the degree of an E1 centre.

    Derived from the nefness of the second ray's supporting divisor evaluated
    on the blowup geometry; ``a`` is the candidate index of the sublattice
    spanned by the two pullbacks.  Returned as an exact Fraction so callers
    can floor it themselves.
    """
    # imported here: fractions pulls in decimal, and no CLI command needs it
    from fractions import Fraction

    if a == 0:
        raise ZeroDivisionError("the lattice index a must be nonzero")
    return (r1 - Fraction(mu2, a)) ** 2 * L1_cubed


def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _e1_value_set(mu_other: int, a: int) -> frozenset[int]:
    """Admissible c2 . H values for an E1 ray opposite a ray of length mu_other.

    24/r + degB with degB >= 1 bounded by degB_upper_bound(r, mu_other, a, L^3).
    """
    values: set[int] = set()
    for r in (2, 3, 4):
        for L3 in l3_range(r):
            bound = degB_upper_bound(r, mu_other, a, L3)
            top = int(bound)  # floor for positive fractions
            for degB in range(1, top + 1):
                values.add(24 // r + degB)
    return frozenset(values)


def _value_set(ray_type: RayType, mu_other: int, a: int) -> frozenset[int]:
    """All values c2 . H can take for a ray of the given type.

    C1 gives 6 + deg Delta with 1 <= deg Delta <= 11: the discriminant is
    nonempty, and (-K)^2 . H = 12 - deg Delta is at least 1 because -K is
    ample and H is nef and nonzero.  The other fibration types give their
    fixed values, the E-types 24/r resp. 45/r for the divisors r, and the E1
    set shrinks with the candidate index a through the degree bound on the
    blowup centre.
    """
    if ray_type is RayType.C1:
        return frozenset(6 + deg_delta for deg_delta in range(1, 12))
    if ray_type is RayType.C2:
        return frozenset({6})
    if ray_type is RayType.D1:
        return frozenset(12 - d2 for d2 in D1_FIBER_DOMAIN)
    if ray_type is RayType.D2:
        return frozenset({4})
    if ray_type is RayType.D3:
        return frozenset({3})
    if ray_type in (RayType.E2, RayType.E34):
        return frozenset(24 // r for r in _divisors(24))
    if ray_type is RayType.E5:
        return frozenset(45 // r for r in _divisors(45))
    if ray_type is RayType.E1:
        return _e1_value_set(mu_other, a)
    raise InconsistencyError(f"unhandled ray type {ray_type}")  # pragma: no cover


def _primitivity_allows(a: int, mu1: int, mu2: int) -> bool:
    """Divisibility filter from primitivity of the two pullbacks.

    With -aK = mu2 H1 + mu1 H2, a prime p dividing a and exactly one of the
    two coefficients would make the opposite basis class divisible by p in
    Pic, contradicting primitivity of the pullback of an ample generator.
    """
    for p in (2, 3):
        if a % p == 0:
            if mu2 % p == 0 and mu1 % p != 0:
                return False
            if mu1 % p == 0 and mu2 % p != 0:
                return False
    return True


def _cube_identity_allows(a: int, type1: RayType, mu1: int, type2: RayType, mu2: int) -> bool:
    """Parity filter from cubing -aK when both pullbacks have zero cube.

    For fibration rays (C or D types) H^3 = 0; a C-type H additionally
    satisfies H^2 = (2/mu) * (fibre line), so cubing -aK = mu2 H1 + mu1 H2
    evaluates exactly:  a^2 (-K)^3 = 6(mu1^2 + mu2^2) for C+C pairs and
    6 mu_D^2 for C+D pairs.  Since (-K)^3 is a positive even integer, a is
    constrained; this is what rules out a = 2 for a C1 + D3 pair.
    """
    if type1 in _C_TYPES and type2 in _C_TYPES:
        numerator = 6 * (mu1 * mu1 + mu2 * mu2)
    elif type1 in _C_TYPES and type2 in _D_TYPES:
        numerator = 6 * mu2 * mu2
    elif type1 in _D_TYPES and type2 in _C_TYPES:
        numerator = 6 * mu1 * mu1
    else:
        return True
    if numerator % (a * a) != 0:
        return False
    return (numerator // (a * a)) % 2 == 0


TypeFilter = Union[RayType, Iterable[RayType], None]


def _resolve_second_types(type1: RayType, mu2: int, type2: TypeFilter) -> tuple[RayType, ...]:
    if type2 is None:
        candidates = tuple(t for t in RayType if mu_of(t) == mu2)
        if type1 in _C_TYPES:
            # The basis argument treats C-first configurations under the
            # primitivity assumption, which excludes E1 rays outright.
            candidates = tuple(t for t in candidates if t is not RayType.E1)
        return candidates
    if isinstance(type2, RayType):
        candidates = (type2,)
    else:
        candidates = tuple(type2)
    for t in candidates:
        if mu_of(t) != mu2:
            raise ConstraintError(
                f"ray type {t.value} has length {mu_of(t)}, not mu2={mu2}"
            )
    if not candidates:
        raise ConstraintError("empty set of admissible second-ray types")
    return candidates


def lattice_index_candidates(
    mu1: int, mu2: int, type1: RayType, type2: TypeFilter = None
) -> frozenset[int]:
    """Surviving indices a of Z H1 + Z H2 inside Pic(X); must come out {1}.

    For each candidate a >= 1 the relation 24a = mu2 (c2 . H1) + mu1 (c2 . H2)
    is tested for solvability with c2-values in the per-type admissible sets
    (the E1 set shrinking with a through the centre-degree bound), after the
    primitivity and cube-parity filters.  ``type2`` may be a single type, a
    collection of types (the admissible alternatives of one elimination step),
    or None for every type of length mu2 admissible in context.

    An empty result raises InconsistencyError: either the pairing can occur on
    no variety at all, or the constraint encoding is broken.
    """
    if mu_of(type1) != mu1:
        raise ConstraintError(
            f"ray type {type1.value} has length {mu_of(type1)}, not mu1={mu1}"
        )
    second_types = _resolve_second_types(type1, mu2, type2)
    surviving: set[int] = set()
    for a in range(1, 9):
        if not _primitivity_allows(a, mu1, mu2):
            continue
        feasible = False
        for t2 in second_types:
            if not _cube_identity_allows(a, type1, mu1, t2, mu2):
                continue
            set1 = _value_set(type1, mu2, a)
            set2 = _value_set(t2, mu1, a)
            if any((24 * a - mu2 * v1) % mu1 == 0 and (24 * a - mu2 * v1) // mu1 in set2
                   for v1 in set1):
                feasible = True
                break
        if feasible:
            surviving.add(a)
    if not surviving:
        raise InconsistencyError(
            f"no lattice index is consistent with ({mu1}, {mu2}, {type1.value}, "
            f"{[t.value for t in second_types]}); impossible pairing or encoding bug"
        )
    return frozenset(surviving)
