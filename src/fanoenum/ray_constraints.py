"""Extremal-ray data and the numerical constraints attached to them.

A smooth Fano threefold of Picard rank 2 has two extremal contractions, each
of one of nine types: conic bundles over P^2 (C1 with discriminant, C2 smooth),
del Pezzo fibrations over P^1 (D1/D2/D3 by fibre degree), and divisorial
contractions (E1 to a curve, E2 to a point, E3/E4 to a point on a quadric-like
germ, E5 to a half-point).

:data:`TYPE_FACTS` is the one table of what each type fixes (Mori-Mukai):
the length mu of the ray, its family (C, D or E), the one unknown u its
data leave open (deg Delta, d2, deg B or L^3) with the domain of u, the
data each side fixes ((r, L^3) of an E1 target, r of a point contraction's
target), and four facts about the pullback H of the ample generator on the
target, each affine in u: H^3, (-K).H^2, (-K)^2.H and c_2(X).H.  A divisor
contracted to a point adds its cube.  The engine of
:mod:`fanoenum.enumerator` compiles its sides from every fact but c2.H, and
:class:`RaySpec` and :func:`c2_dot_H` look values up in it: RaySpec tests
the unknown of every type, and a bidegree's sum, by :meth:`TypeFacts.admits`.
The (-K)^2.H fact of a conic bundle is
:func:`~fanoenum.chern_calculus.conic_bundle_ksq_dot_pullback` on a line
of the base P^2.

The c2 values satisfy one global relation, the 24-balance -K.c2 = 24
(24 = mu2 c2.H1 + mu1 c2.H2 when the two pullbacks form a basis).  The
engine does not use it, so :func:`balance_check` is a check on its records
that shares no equation with it.  That the two pullbacks form a basis of
the Picard lattice (index 1) is proved outside the package:
``tests/test_index_oracle.py`` solves every pairing at every index, and the
balance fails on every solution above index 1 (acceptance criterion 4).
"""

import enum
from collections import namedtuple
from collections.abc import Iterable

from .chern_calculus import FANO_TARGETS, conic_bundle_ksq_dot_pullback
from .errors import ConstraintError, IncompleteSpecError
from .picard_lattice import INTEGER, ValueObject

__all__ = [
    "RayType",
    "RaySpec",
    "c2_dot_H",
    "balance_check",
]


class RayType(enum.Enum):
    """The nine extremal-ray types occurring on rank-2 Fano threefolds.

    Declaration order is the canonical sort order of the rays of a solution
    record and of the types of an engine pairing.
    """

    # members are singletons: hash by identity, not by Enum.__hash__, a
    # Python-level function that every dict lookup keyed by a type would call
    __hash__ = object.__hash__

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


# ------------------------------------------------------------ type facts --

class TypeFacts(ValueObject):
    """What one ray type fixes; an entry of :data:`TYPE_FACTS`.

    ``family`` is "C", "D" or "E".  ``unknown`` names the RaySpec field the
    type leaves open, with ``low <= u <= high`` (high None: unbounded); a
    one-point domain fixes it.  ``sides`` pairs the fields each side fixes
    with its facts H^3, (-K).H^2, (-K)^2.H and c2.H, each (constant,
    coefficient of u) in quarters.  ``contracted`` is (q, w) for a type that
    contracts a divisor D to a point: m D = r H - q (-K) and (m D)^3 = w.
    """

    __slots__ = ("mu", "family", "unknown", "low", "high", "sides", "contracted")

    def admits(self, u: int) -> bool:
        return self.low <= u and (self.high is None or u <= self.high)


# Facts are kept in quarters, so that the E5 multiples of r/2 and (r/2)^2
# are integers like every other side's.
def _quarters(*facts: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple((4 * c, 4 * k) for c, k in facts)


# C: H^3 = 0, (-K).H^2 = 2, c2.H = 6 + deg Delta, and (-K)^2.H = K^2 . f^*D
# for a line D of the base P^2 (K_S.D = -3, Delta.D = deg Delta).
_KSQ_H = conic_bundle_ksq_dot_pullback(-3, 0)
_CONIC = (((), _quarters(
    (0, 0), (2, 0), (_KSQ_H, conic_bundle_ksq_dot_pullback(-3, 1) - _KSQ_H), (6, 1),
)),)
# D: H^2 = 0, (-K)^2.H = d2, c2.H = 12 - d2.
_DEL_PEZZO = (((), _quarters((0, 0), (0, 0), (0, 1), (12, -1))),)
# The index r of a point contraction's target divides 24 (E2, E3/E4) or 45
# (E5); the Fano index bound r <= 4 caps the first two.
_INDICES_DIVIDING_24 = (1, 2, 3, 4)


def _point_type(mu: int, indices: tuple[int, ...], c2_numerator: int, q: int, w: int):
    """A type contracting a divisor D to a point; u = L^3, m D = r H - q (-K).

    H^3 = L^3, (-K).H^2 = s L^3, (-K)^2.H = s^2 L^3 and c2.H =
    c2_numerator / r, with s = r/q.  q is 1 or 2, so s and s^2 in quarters
    are the integers 4r/q and 4r^2/q^2.
    """
    sides = tuple(
        ((("r", r),),
         ((0, 4), (0, 4 // q * r), (0, 4 // (q * q) * r * r), (4 * (c2_numerator // r), 0)))
        for r in indices
    )
    return TypeFacts(mu, "E", "L3", 1, None, sides, (q, w))


TYPE_FACTS = {
    RayType.C1: TypeFacts(1, "C", "deg_delta", 1, None, _CONIC, None),
    RayType.C2: TypeFacts(2, "C", "deg_delta", 0, 0, _CONIC, None),
    RayType.D1: TypeFacts(1, "D", "d2", 1, 7, _DEL_PEZZO, None),
    RayType.D2: TypeFacts(2, "D", "d2", 8, 8, _DEL_PEZZO, None),
    RayType.D3: TypeFacts(3, "D", "d2", 9, 9, _DEL_PEZZO, None),
    # E1: H^3 = L^3, (-K).H^2 = r L^3, (-K)^2.H = r^2 L^3 - deg B,
    # c2.H = 24/r + deg B, for a target (r, L^3) in FANO_TARGETS.
    RayType.E1: TypeFacts(1, "E", "degB", 1, None, tuple(
        ((("r", r), ("L3", L3)),
         _quarters((L3, 0), (r * L3, 0), (r * r * L3, -1), (24 // r, 1)))
        for r, cubes in FANO_TARGETS.items()
        for L3 in cubes
    ), None),
    RayType.E2: _point_type(2, _INDICES_DIVIDING_24, 24, 1, 8),  # 2 D = r H - (-K), D^3 = 1
    RayType.E34: _point_type(1, _INDICES_DIVIDING_24, 24, 1, 2),  # D = r H - (-K), D^3 = 2
    RayType.E5: _point_type(1, (1, 3, 5, 9, 15, 45), 45, 2, 4),  # D = r H - 2 (-K), D^3 = 4
}

C_TYPES = tuple(t for t in RayType if TYPE_FACTS[t].family == "C")
D_TYPES = tuple(t for t in RayType if TYPE_FACTS[t].family == "D")
POINT_TYPES = tuple(t for t in RayType if TYPE_FACTS[t].contracted)  # a divisor to a point
# An E2 or E5 divisor is a P^2 with normal bundle O(-e), the negative section
# of P(O + O(e)) over P^2; an E3/E4 divisor is a quadric, never such a section.
TWIST = {RayType.E2: 1, RayType.E5: 2}

INT_OR_NONE = INTEGER | {type(None)}  # an optional integer field's types


# A RayType, then int | None for each field but delta_bidegree, a
# tuple[int, int] | None.
_RayFields = namedtuple(
    "_RayFields",
    ("ray_type", "r", "L3", "degB", "deg_delta", "d2", "e", "genus", "delta_bidegree"),
    defaults=(None,) * 8,
)


class RaySpec(_RayFields):
    """One extremal ray together with the integer data its type carries.

    A named tuple of the fields of ``_RayFields``, in that order.  Each
    type carries only the fields listed for it; any other must be None:

    * C1/C2: ``deg_delta`` (discriminant degree, >= 1 for C1, 0 or unset
      for C2); rank-3 conic bundles over P^1 x P^1 use ``delta_bidegree``
      instead.
    * D1/D2/D3: ``d2`` (del Pezzo fibre degree, 1..7); D2/D3 carry d2 = 8
      resp. 9.
    * E1: ``r`` (index of the blowup target, 2..4), ``L3`` (generator cube),
      ``degB`` (centre degree), ``genus`` (centre genus).
    * E2/E34/E5: ``r`` (formal index of the target), ``L3``; E2 and E5 also
      ``e``, their :data:`TWIST`, on the P(O + O(e)) families.

    The fields are checked on construction, and ``_make``, ``_replace`` and
    unpickling construct.  Every set field is an ``int`` (a bool is not),
    ``delta_bidegree`` a pair of them.  Against :data:`TYPE_FACTS`: the
    unknown of the type (deg_delta, d2, degB or the L3 of a point
    contraction) and a bidegree's sum by :meth:`TypeFacts.admits`; the
    index r of a divisorial ray's target, and the L3 of an E1 target, which
    needs its index r.
    """

    __slots__ = ()

    def __new__(cls, ray_type, r=None, L3=None, degB=None, deg_delta=None, d2=None, e=None,
                genus=None, delta_bidegree=None) -> "RaySpec":
        numbers = (r, L3, degB, deg_delta, d2, e, genus)
        if delta_bidegree is not None and (
            type(delta_bidegree) is not tuple or len(delta_bidegree) != 2
            or not INTEGER.issuperset(map(type, delta_bidegree))
        ):
            raise ConstraintError(f"delta_bidegree must be two integers, got {delta_bidegree!r}")
        self = tuple.__new__(cls, (ray_type, *numbers, delta_bidegree))
        if not INT_OR_NONE.issuperset(map(type, numbers)):
            for name, value in zip(cls._fields[1:], numbers):
                if type(value) not in INT_OR_NONE:
                    raise ConstraintError(f"{name} must be an integer, got {value!r}")
        try:
            checks = _CHECKS.get(ray_type)
        except TypeError:  # an unhashable ray_type is no type either
            checks = None
        if checks is None:
            raise ConstraintError(f"{ray_type!r} is not an extremal-ray type")
        uncarried, unknown, facts, targets = checks
        for index in uncarried:
            if self[index] is not None:
                name = _RayFields._fields[index]
                raise ConstraintError(
                    f"{ray_type.display} rays carry no {name}, got {name}={self[index]!r}"
                )
        # a set field is now one the type carries
        u = self[unknown]
        if u is not None and not facts.admits(u):
            name = _RayFields._fields[unknown]
            low, high = facts.low, facts.high
            domain = (f"= {low}" if low == high
                      else f">= {low}" if high is None else f"in {low}..{high}")
            raise ConstraintError(f"{ray_type.display} rays have {name} {domain}, got {name}={u}")
        if delta_bidegree is not None:  # over P^1 x P^1, deg Delta is a + b
            if deg_delta is not None:
                raise ConstraintError(
                    f"a conic bundle has deg_delta or delta_bidegree, not both, got "
                    f"deg_delta={deg_delta}, delta_bidegree={delta_bidegree}"
                )
            a, b = delta_bidegree
            if min(a, b) < 0 or not facts.admits(a + b):
                raise ConstraintError(
                    f"a {ray_type.value} conic bundle has no delta_bidegree={delta_bidegree}"
                )
        if r is not None:
            if r not in targets:
                raise ConstraintError(
                    f"an {ray_type.display} target has an index in {tuple(targets)}, got r={r}"
                )
            cubes = targets[r]
            if L3 is not None and cubes is not None and L3 not in cubes:
                raise ConstraintError(
                    f"an E1 target of index {r} has L3 in {cubes}, got L3={L3}"
                )
        elif L3 is not None and ray_type is RayType.E1:
            raise ConstraintError(f"an E1 target's L3 needs its index r, got L3={L3}")
        if e is not None and e != TWIST[ray_type]:
            raise ConstraintError(
                f"the twist of an {ray_type.display} ray is e={TWIST[ray_type]}, got e={e}"
            )
        if genus is not None and genus < 0:
            raise ConstraintError(f"genus must be >= 0, got {genus}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "RaySpec":
        return cls(*iterable)


# The fields each type carries, as the RaySpec docstring lists them, and
# from them, once, all that RaySpec checks per type: the positions of the
# fields the type must leave None, the position of its unknown, its facts,
# and the index r of each target of a divisorial type, with the cubes L^3
# an E1 target of index r has (None: any L^3 >= 1).
_CARRIED = {
    **dict.fromkeys(C_TYPES, ("deg_delta", "delta_bidegree")),
    **dict.fromkeys(D_TYPES, ("d2",)),
    RayType.E1: ("r", "L3", "degB", "genus"),
    **dict.fromkeys(POINT_TYPES, ("r", "L3")),
    **{t: ("r", "L3", "e") for t in TWIST},
}
_CHECKS = {
    t: (
        tuple(i for i, name in enumerate(RaySpec._fields) if i and name not in carried),
        RaySpec._fields.index(TYPE_FACTS[t].unknown),
        TYPE_FACTS[t],
        FANO_TARGETS if t is RayType.E1
        else dict.fromkeys(dict(fixed)["r"] for fixed, _ in TYPE_FACTS[t].sides if fixed),
    )
    for t, carried in _CARRIED.items()
}


def c2_dot_H(spec: RaySpec) -> int:
    """c_2(X) . H for the pullback H of the ample generator along the ray.

    The c2.H fact, at the spec's value of the unknown, of the first side of
    the type in :data:`TYPE_FACTS` whose fixed fields all equal the spec's;
    a field the spec leaves None matches any value.  Missing fields raise
    IncompleteSpecError; the index r of a divisorial ray is one some side of
    its type has, as :class:`RaySpec` checks it.
    """
    t = spec.ray_type
    facts = TYPE_FACTS[t]
    if facts.family == "E" and spec.r is None:  # every divisorial side fixes r
        raise IncompleteSpecError(f"c2 . H for an {t.display} ray needs r")
    constant, slope = next(
        c2 for fixed, (*_, c2) in facts.sides
        if all(getattr(spec, name) in (value, None) for name, value in fixed)
    )
    u = facts.low if facts.low == facts.high else getattr(spec, facts.unknown)
    if u is None:
        if slope:
            raise IncompleteSpecError(
                f"c2 . H for a ray of type {t.display} needs {facts.unknown}"
            )
        u = 0
    return (constant + slope * u) // 4


def balance_check(mu1: int, mu2: int, c2_h1: int, c2_h2: int) -> bool:
    """Whether 24 = mu2 * (c2 . H1) + mu1 * (c2 . H2).

    This is -K . c_2 = 24 (Riemann-Roch with chi(O_X) = 1) written out in the
    basis (H1, H2) with -K = mu2 H1 + mu1 H2.
    """
    return 24 == mu2 * c2_h1 + mu1 * c2_h2


def _value_set(ray_type: RayType, mu_other: int) -> frozenset[int]:
    """All values c2 . H can take for a ray of the given type.

    Each side of the type in :data:`TYPE_FACTS` gives c2.H affine in its
    unknown u over the domain of u.  An unbounded u is capped by
    (-K)^2 . H >= 1, as -K is ample and H is nef and nonzero: for C1 that is
    deg Delta <= 11.  deg B on a target (r, L^3) is capped instead by
    (r - mu_other)^2 L^3, from the nefness of the supporting divisor of the
    other ray, of length mu_other, on the blowup, with the two pullbacks a
    basis of Pic(X) (index 1).
    """
    facts = TYPE_FACTS[ray_type]
    values: set[int] = set()
    for fixed, (_, _, (k0, k1), (c0, c1)) in facts.sides:
        high = facts.high
        if not c1:  # c2.H does not depend on u
            high = facts.low
        elif ray_type is RayType.E1:
            fields = dict(fixed)
            high = (fields["r"] - mu_other) ** 2 * fields["L3"]
        elif high is None:
            high = (k0 - 4) // -k1  # k0 + k1 u >= 4 in quarters, k1 < 0
        values.update((c0 + c1 * u) // 4 for u in range(facts.low, high + 1))
    return frozenset(values)
