"""Exact-integer solvers reproducing the rank-2 and primitive rank-3 tables.

Every rank-2 pairing of extremal-ray types is solved by one engine, driven
by sides compiled from :data:`fanoenum.ray_constraints.TYPE_FACTS`.  A side
is one ray type with its data fixed but for one unknown u (deg Delta for C
types, d2 for D types, deg B for E1, L^3 for E2/E3E4/E5); the engine reads
three of the table's facts about the pullback H of its ray, each affine in u:
H^3, (-K).H^2 and (-K)^2.H, in quarters.  The two pullbacks form a basis of the
Picard lattice (index 1, proved by ``tests/test_index_oracle.py`` and checked
as acceptance criterion 4), so in that basis the facts of the two sides fill
the intersection form and leave a linear system in two unknowns: the two
(-K)^2.H facts and the cube of each divisor contracted to a point.  The
engine solves it exactly in integers and sweeps nothing: the type domains
decide, and the constructors assert what the system implies.  It reads no
c2.H fact, so the 24-balance -K.c2 = 24
(:func:`fanoenum.ray_constraints.balance_check`) is a check on its records
that shares no row with it.  Each solution becomes a
:class:`SolutionRecord` of the rays, the full intersection
form, the anticanonical class and its cube; the record derives the rank,
genus, descriptions and characteristic note from these.  The ``solve_*``
entry points select among the 24 of the 45 pairings with a conic bundle or
an E1 ray: ``tests/test_index_oracle.py`` solves all 45 at every lattice
index without the engine, and finds no solution outside them.  No
solver reads the classification table: :mod:`fanoenum.table_oracle` labels
records with its row ids when they are projected onto rows.
"""

from collections import namedtuple
from collections.abc import Iterable
from itertools import combinations_with_replacement
from math import isqrt

from .chern_calculus import (
    antican_cube_by_index,
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
    conic_bundle_ksq_dot_pullback,
    genus_from_blowup,
)
from .errors import (
    ConstraintError,
    InconsistencyError,
    ParityError,
    UnsupportedScopeError,
)
from .picard_lattice import (
    DivisorClass,
    TrilinearForm,
    ValueObject,
    anticanonical_class,
    triple_product,
)
from .ray_constraints import (
    _RAY_ORDER, C_TYPES, D_TYPES, POINT_TYPES, TWIST, TYPE_FACTS, RaySpec, RayType, mu_of
)

__all__ = [
    "SolutionRecord",
    "solve_E1_C",
    "solve_E1_D",
    "solve_E1_E",
    "solve_C_C",
    "solve_C_D",
    "solve_C_E_primitive",
    "solve_rho3_CCC",
    "solve_rho3_CE",
    "enumerate_all",
]


# A tuple[RaySpec, ...], a TrilinearForm, a DivisorClass and an int.
_RecordFields = namedtuple("_RecordFields", ("rays", "form", "minus_k", "kx3"))


class SolutionRecord(_RecordFields):
    """One solved family: what its solver found, and what follows from it.

    The fields are checked on construction, and ``_replace`` constructs:
    ``rays`` are RaySpecs in canonical order (C types before D types before
    E types); ``form`` and ``minus_k`` are written in the matching basis of
    pullbacks, and ``kx3`` is an ``int`` equal to the cube of ``minus_k``.
    The rest is derived when read, so it cannot disagree with the fields:
    ``rho`` is the rank of the form, ``genus`` the genus of the blowup centre
    of the first E1 ray (None without one), ``descriptions`` the known
    constructions of the family and ``char_note`` a positive-characteristic
    caveat, never part of table comparisons.  A record carries no table id:
    :func:`fanoenum.table_oracle.label` names it by its table row.
    """

    __slots__ = ()

    def __new__(
        cls,
        rays: tuple[RaySpec, ...],
        form: TrilinearForm,
        minus_k: DivisorClass,
        kx3: int,
    ) -> "SolutionRecord":
        if type(kx3) is not int:
            raise ConstraintError(f"(-K)^3 values must be integers, got {kx3!r}")
        if type(rays) is not tuple or not {RaySpec}.issuperset(map(type, rays)):
            raise ConstraintError(f"rays must be a tuple of RaySpecs, got {rays!r}")
        if kx3 % 2 != 0:
            raise ParityError(f"(-K)^3 must be even, got {kx3}")
        if not 0 < kx3 <= 72:
            raise ConstraintError(f"(-K)^3 must lie in (0, 72], got {kx3}")
        if triple_product(form, minus_k, minus_k, minus_k) != kx3:
            raise InconsistencyError(
                f"stored (-K)^3 = {kx3} disagrees with the intersection form"
            )
        orders = [_RAY_ORDER[spec.ray_type] for spec in rays]
        if orders != sorted(orders):
            raise InconsistencyError("rays are not in canonical order")
        return tuple.__new__(cls, (rays, form, minus_k, kx3))

    @classmethod
    def _make(cls, iterable: Iterable) -> "SolutionRecord":
        return cls(*iterable)

    @property
    def rho(self) -> int:
        return self.form.rho

    @property
    def ray_types(self) -> tuple[RayType, ...]:
        return tuple([spec.ray_type for spec in self.rays])

    @property
    def genus(self) -> int | None:
        return next((s.genus for s in self.rays if s.ray_type is _E1), None)

    @property
    def descriptions(self) -> tuple[str, ...]:
        return _TEXTS.get((self.form.rho, self.ray_types)) or _descriptions(self.rays)

    @property
    def char_note(self) -> str | None:
        return _CHAR_NOTES.get(self.ray_types)

    @property
    def description(self) -> str:
        return ", or ".join(self.descriptions)


# Read once: on Python 3.11 each RayType.X read goes through EnumType's
# __getattr__ hook and costs several times a module global.
_E1, _E2 = RayType.E1, RayType.E2


# ------------------------------------------------------------ descriptions --

_INDEX_TARGET = {4: "P^3", 3: "Q"}


def _target_name(r: int, L3: int) -> str:
    """Name of the index-r blowup target: P^3, the quadric Q, or V_d."""
    return _INDEX_TARGET.get(r) or "V_%d" % L3


def _curve_phrase(genus: int, degree: int) -> str:
    if genus == 0:
        if degree == 1:
            return "a line"
        if degree == 2:
            return "a conic"
        if degree == 3:
            return "a cubic rational curve"
        return "a rational curve of degree %d" % degree
    if genus == 1:
        return "an elliptic curve of degree %d" % degree
    return "a curve of genus %d and degree %d" % (genus, degree)


def _ci_clause(r: int, L3: int, degB: int) -> str | None:
    """How the centre is cut out, when the degree data pin it down.

    Only used for blowups opposite a del Pezzo fibration, where the fibration
    is induced by the pencil through the centre.
    """
    if r == 2:
        return "which is a complete intersection of two members of |-1/2K_{V_%d}|" % L3
    if r == 3 and degB >= 2 and degB % 2 == 0:
        m = isqrt(degB // 2)
        if m * m == degB // 2:
            return "which is a complete intersection of two members of |O_Q(%d)|" % m
    if r == 4:
        m = isqrt(degB)
        surface = {2: "quadric", 3: "cubic"}.get(m)
        if m * m == degB and surface is not None:
            return "which is a complete intersection of two %s surfaces" % surface
    return None


def _blowup_description(r: int, L3: int, degB: int, genus: int, with_ci: bool) -> str:
    base = "blowup of %s along %s" % (_target_name(r, L3), _curve_phrase(genus, degB))
    if with_ci:
        clause = _ci_clause(r, L3, degB)
        if clause is not None:
            return base + " " + clause
    return base


# The descriptions of each rank-2 pairing with no E1 ray and of each rank-3
# family, by (rho, ray types); every other family is described by its rays.
_TEXTS = {
    (2, (RayType.C1, RayType.C1)): (
        "a divisor on P^2 x P^2 of bidegree (2,2)",
        "a split double cover of W with L^2 = omega_W^{-1}",
    ),
    (2, (RayType.C1, RayType.C2)): ("a divisor on P^2 x P^2 of bidegree (1,2)",),
    (2, (RayType.C2, RayType.C2)): ("W, a divisor on P^2 x P^2 of bidegree (1,1)",),
    (2, (RayType.C1, RayType.D1)): ("a split double cover of P^2 x P^1 with L = O(2,1)",),
    (2, (RayType.C1, RayType.D2)): ("a split double cover of P^2 x P^1 with L = O(1,1)",),
    (2, (RayType.C2, RayType.D3)): ("P^2 x P^1",),
    (2, (RayType.C1, RayType.E34)): (
        "a split double cover of V_7 with L^2 = omega_{V_7}^{-1}",
    ),
    (2, (RayType.C2, RayType.E2)): (
        "V_7, i.e. P(O + O(1)) over P^2",
        "blowup of P^3 at a point",
    ),
    (2, (RayType.C2, RayType.E5)): (
        "P(O + O(2)) over P^2",
        "blowup at the singular point of the cone over the Veronese surface",
    ),
    (3, (RayType.C2,) * 3): ("P^1 x P^1 x P^1",),
    (3, (RayType.C1,) * 3): ("a split double cover of P^1 x P^1 x P^1 with L = O(1,1,1)",),
    (3, (RayType.C2, RayType.E1)): ("P(O + O(1,1)) over P^1 x P^1",),
    (3, (RayType.C1, RayType.E1)): ("a divisor in P(O + O(-1,-1)^2) over P^1 x P^1",),
}

# The positive-characteristic caveat of each pairing that has one.
_CHAR_NOTES = {
    (RayType.C1, RayType.C2): "wild conic bundle possible only in characteristic 2",
}


def _descriptions(rays: tuple[RaySpec, ...]) -> tuple[str, ...]:
    """One text per E1 ray, plus the point blowup for an E2 ray opposite one.

    The complete-intersection clause appears only opposite a del Pezzo
    fibration, whose pencil cuts out the centre; identical texts collapse.
    """
    texts = []
    for spec, other in zip(rays, rays[::-1]):
        ray_type = spec.ray_type
        if ray_type is _E1:
            with_ci = other.ray_type in D_TYPES
            texts.append(
                _blowup_description(spec.r, spec.L3, spec.degB, spec.genus, with_ci)
            )
        elif ray_type is _E2:
            texts.append("blowup of %s at a point" % _target_name(spec.r, spec.L3))
    return tuple(dict.fromkeys(texts))


# -------------------------------------------------------------- side table --

class _Side(ValueObject):
    """One ray of a pairing, every datum fixed but one unknown u.

    ``template`` holds the ray's RaySpec fields in order, each fixed one set
    and every other None; ``slot`` is the position u fills, with
    low <= u <= high (high None: unbounded).  ``terms[n]``, for n the
    coefficient of the ray's pullback in -K, holds the side's terms C, P, Q,
    K, M of :func:`_solve_sides`, each as (constant, coefficient of u) in
    quarters.  ``contracted`` is q^3 and w, in quarters, for a ray that
    contracts a divisor to a point.
    """

    __slots__ = ("ray_type", "mu", "template", "slot", "low", "high", "terms", "contracted")


def _compile(ray_type: RayType) -> tuple[_Side, ...]:
    """The sides of one ray type, from its entry in TYPE_FACTS.

    A datum the type fixes, such as C2's deg Delta = 0, is still the unknown,
    and its one-point domain pins it.  The terms come from the facts C, A, B
    (H^3, (-K).H^2, (-K)^2.H) as :func:`_solve_sides` defines them; the c2.H
    fact is not read.  A point contraction's divisor is m D = p H - q (-K)
    with p the index r its side fixes, and (m D)^3 = w.
    """
    t = TYPE_FACTS[ray_type]
    q, w = t.contracted or (0, 0)
    sides = []
    for fixed, facts in t.sides:
        template = dict.fromkeys(RaySpec._fields)
        template.update(fixed, ray_type=ray_type)
        p = template["r"] if t.contracted else 0
        terms = {}
        for n in (1, 2, 3):
            per_part = [
                (C, n * n * A - n**3 * C, n * n * A - n * B, n * B,
                 p**3 * C - 3 * p * p * q * A + 3 * p * q * q * B)
                for C, A, B, _ in zip(*facts)
            ]
            terms[n] = tuple(zip(*per_part))
        cube = (q**3, 4 * w) if t.contracted else None
        sides.append(_Side(
            ray_type, mu_of(ray_type), tuple(template.values()),
            RaySpec._fields.index(t.unknown), t.low, t.high, terms, cube,
        ))
    return tuple(sides)


_SIDES = {ray_type: _compile(ray_type) for ray_type in RayType}
_GENUS, _E = RaySpec._fields.index("genus"), RaySpec._fields.index("e")
_CONIC_TYPES = frozenset(C_TYPES)
# -K of each pair of ray lengths, in the basis of the two pullbacks
_MINUS_K = {(m1, m2): anticanonical_class(m1, m2) for m1 in (1, 2, 3) for m2 in (1, 2, 3)}


# ------------------------------------------------------------------ engine --


def _integer_solution(rows) -> tuple[int, int] | None:
    """Integers (u1, u2) with a u1 + b u2 + c = 0 for every row (a, b, c).

    None when there are none, even where the rows would also leave an
    unknown free; otherwise rows that leave an unknown free raise
    InconsistencyError, because the engine would have to sweep it.
    :func:`_solve_sides` calls it only on a system whose first two rows are
    dependent: it solves the others by Cramer's rule.
    """
    a = e2 = u2 = 0  # a and e2 stay 0 when no row pivots on u1 or u2
    for row in rows:
        if row[0]:
            a, b, c = row
            rest = [(a * e - d * b, a * f - d * c) for d, e, f in rows]
            break
    else:
        rest = [(e, f) for _, e, f in rows]
    for e2, f2 in rest:
        if e2:
            u2, remainder = divmod(-f2, e2)
            if remainder:
                return None
            break
    for e, f in rest:
        if e * u2 + f:
            return None
    if not a or not e2:
        raise InconsistencyError("the facts of a pairing leave an unknown free")
    u1, remainder = divmod(-(b * u2 + c), a)
    return None if remainder else (u1, u2)


def _solve_sides(side1: _Side, side2: _Side) -> SolutionRecord | None:
    """The record of one pair of sides, in the basis of their pullbacks.

    With -K = n1 H1 + n2 H2 (n1 = mu2, n2 = mu1) and C, A, B the facts H^3,
    (-K).H^2, (-K)^2.H of each side, the (-K).H^2 facts give the form entries
    n1^2 n2 H1^2.H2 = P1 and n2^2 n1 H1.H2^2 = P2, where P = n^2 A - n^3 C,
    and turn the other facts into linear equations:

      (-K)^2.H_i:   P1 + P2 + Q_i = 0,  Q = n^2 A - n B
      D_i^3:        M_i - q^3 (K1 + K2) = w,  K = n B,
                    M = p^3 C - 3 p^2 q A + 3 p q^2 B

    Every term is in quarters, as the facts are.  When the two (-K)^2.H
    rows are independent (180 of the 198 rank-2 side pairs), Cramer's rule
    on them gives the one rational solution, and each D^3 row only checks
    it.  Otherwise :func:`_integer_solution` eliminates over every row, and
    it alone decides between no solution and an unknown left free.  None
    means one of two exits: the system has no integer solution, or an
    unknown lies outside its domain.  The system implies the rest, so a
    fractional form entry raises here, and an odd cube or a negative genus
    in the constructors.  It runs once per side pair of every pairing, most
    of which give no record, so it is written in straight lines.
    """
    n1, n2 = side2.mu, side1.mu
    C1, P1, Q1, K1, M1 = side1.terms[n1]
    C2, P2, Q2, K2, M2 = side2.terms[n2]
    a1, b1, c1 = P1[1] + Q1[1], P2[1], P1[0] + Q1[0] + P2[0]
    a2, b2, c2 = P1[1], P2[1] + Q2[1], P1[0] + P2[0] + Q2[0]
    cubes = []
    if side1.contracted:
        q3, w = side1.contracted
        cubes.append((M1[1] - q3 * K1[1], -q3 * K2[1], M1[0] - q3 * (K1[0] + K2[0]) - w))
    if side2.contracted:
        q3, w = side2.contracted
        cubes.append((-q3 * K1[1], M2[1] - q3 * K2[1], M2[0] - q3 * (K1[0] + K2[0]) - w))
    det = a1 * b2 - a2 * b1
    if det:
        u1, r1 = divmod(b1 * c2 - b2 * c1, det)
        u2, r2 = divmod(a2 * c1 - a1 * c2, det)
        if r1 or r2:
            return None
        for a, b, c in cubes:
            if a * u1 + b * u2 + c:
                return None
    else:
        solution = _integer_solution([(a1, b1, c1), (a2, b2, c2), *cubes])
        if solution is None:
            return None
        u1, u2 = solution
    high = side1.high
    if u1 < side1.low or (high is not None and u1 > high):
        return None
    high = side2.high
    if u2 < side2.low or (high is not None and u2 > high):
        return None
    h111, r111 = divmod(C1[0] + C1[1] * u1, 4)
    h112, r112 = divmod(P1[0] + P1[1] * u1, 4 * n1 * n1 * n2)
    h122, r122 = divmod(P2[0] + P2[1] * u2, 4 * n2 * n2 * n1)
    h222, r222 = divmod(C2[0] + C2[1] * u2, 4)
    kx3, rkx3 = divmod(K1[0] + K1[1] * u1 + K2[0] + K2[1] * u2, 4)
    if r111 or r112 or r122 or r222 or rkx3:
        raise InconsistencyError("the facts of a pairing give a fractional form entry")
    type1, type2 = side1.ray_type, side2.ray_type
    fields1, fields2 = list(side1.template), list(side2.template)
    fields1[side1.slot] = u1
    fields2[side2.slot] = u2
    if type1 is _E1:
        _, r, L3, degB = fields1[:4]
        fields1[_GENUS] = genus_from_blowup(kx3, antican_cube_by_index(r, L3), r, degB)
    if type2 is _E1:
        _, r, L3, degB = fields2[:4]
        fields2[_GENUS] = genus_from_blowup(kx3, antican_cube_by_index(r, L3), r, degB)
    elif type2 in TWIST and type1 in _CONIC_TYPES:  # X is P(O + O(e))
        fields2[_E] = h122
    return SolutionRecord(
        (RaySpec(*fields1), RaySpec(*fields2)),
        TrilinearForm.rank2(h111, h112, h122, h222),
        _MINUS_K[n2, n1],
        kx3,
    )


def _solve(pairings) -> tuple[SolutionRecord, ...]:
    """Every record of the given type pairings, each in canonical type order.

    A pairing of a type with itself visits each unordered pair of its sides
    once, the side of higher index first: the other order gives the mirror
    record, rays and basis swapped, or None when this one is None.  The E1
    sides go by target index r, so an E1+E1 record lists the larger r first.
    """
    return tuple(
        record
        for type1, type2 in pairings
        for i, side1 in enumerate(_SIDES[type1])
        for side2 in (_SIDES[type2][: i + 1] if type1 is type2 else _SIDES[type2])
        if (record := _solve_sides(side1, side2)) is not None
    )


# ------------------------------------------------------- rank-2 selections --

# The pairings with a conic bundle or an E1 ray, in canonical order; the
# other 21, and six of these, have no solution (tests/test_index_oracle.py).
_RANK2_PAIRINGS = tuple(
    pair for pair in combinations_with_replacement(RayType, 2) if pair[0] in C_TYPES or _E1 in pair
)
_PRIMITIVE_PAIRINGS = tuple(pair for pair in _RANK2_PAIRINGS if _E1 not in pair)


def _with_e1(sub: RayType, allowed: tuple[RayType, ...]):
    """The pairing of an E1 ray with ``sub``, which must be one of ``allowed``."""
    if sub not in allowed:
        got = sub.value if isinstance(sub, RayType) else repr(sub)
        raise ConstraintError(
            f"expected one of {', '.join(t.value for t in allowed)}, got {got}"
        )
    return tuple(pair for pair in _RANK2_PAIRINGS if {sub, _E1} == set(pair))


def _with_conic(family: str):
    """The primitive pairings of a conic bundle with a ray of ``family``."""
    return tuple(pair for pair in _PRIMITIVE_PAIRINGS if TYPE_FACTS[pair[1]].family == family)


def solve_E1_C(sub: RayType) -> tuple[SolutionRecord, ...]:
    """Blowup ray opposite a conic bundle over P^2 (sub = C1 or C2)."""
    return _solve(_with_e1(sub, C_TYPES))


def solve_E1_D(sub: RayType) -> tuple[SolutionRecord, ...]:
    """Blowup ray opposite a del Pezzo fibration over P^1 (sub = D1/D2/D3)."""
    return _solve(_with_e1(sub, D_TYPES))


def solve_E1_E(sub: RayType) -> tuple[SolutionRecord, ...]:
    """Blowup ray opposite a second divisorial ray (sub = E1/E2/E34/E5)."""
    return _solve(_with_e1(sub, (RayType.E1,) + POINT_TYPES))


def solve_C_C() -> tuple[SolutionRecord, ...]:
    """Two conic-bundle rays; X maps into P^2 x P^2."""
    return _solve(_with_conic("C"))


def solve_C_D() -> tuple[SolutionRecord, ...]:
    """Conic-bundle ray + del Pezzo fibration ray; X maps into P^2 x P^1."""
    return _solve(_with_conic("D"))


def solve_C_E_primitive() -> tuple[SolutionRecord, ...]:
    """Conic-bundle ray + divisorial ray with no E1 (the primitive cases)."""
    return _solve(_with_conic("E"))


# ------------------------------------------------------------- rank three ---


def solve_rho3_CCC() -> tuple[SolutionRecord, ...]:
    """Three conic-bundle rays over pairwise products P^1 x P^1.

    X carries a finite cover X -> P^1 x P^1 x P^1 of degree d with
    H1 . H2 . H3 = d, -K = (2/d)(H1 + H2 + H3), and Riemann-Roch forcing
    d^2 (g - 1) = 24 for the sectional genus g.  Only d = 1, 2 survive.
    """
    records = []
    for d in (1, 2):  # the divisors of 2, as 2/d is the coefficient of each H_i
        genus_section = 24 // (d * d) + 1
        kx3 = 2 * genus_section - 2
        form = TrilinearForm.from_nonzero(3, {(1, 2, 3): d})
        minus_k = DivisorClass((2 // d,) * 3)
        # discriminant bidegree on each P^1 x P^1 factor, from
        # K^2 . H_1 = -4 K_S . D - Delta . D on a ruling D (K_S . D = -2)
        delta_dot = conic_bundle_ksq_dot_pullback(-2, 0) - triple_product(
            form, minus_k, minus_k, DivisorClass((1, 0, 0))
        )
        conic_type = RayType.C1 if delta_dot else RayType.C2
        ray = RaySpec(conic_type, delta_bidegree=(delta_dot, delta_dot))
        records.append(SolutionRecord((ray, ray, ray), form, minus_k, kx3))
    return tuple(records)


def solve_rho3_CE() -> tuple[SolutionRecord, ...]:
    """Conic-bundle ray over P^1 x P^1 paired with a divisorial ray.

    Two primitive families: the index-two bundle P(O + O(1,1)) (smooth conic
    bundle, length 2) and a divisor in the P^2-bundle P(O + O(-1,-1)^2)
    (discriminant of bidegree (2,5), length 1).  Both cubes are checked
    against the corresponding Chern-class formulas.
    """
    bundle = SolutionRecord(
        rays=(RaySpec(RayType.C2, delta_bidegree=(0, 0)), RaySpec(RayType.E1)),
        form=TrilinearForm.from_nonzero(
            3, {(1, 1, 1): 2, (1, 1, 2): 1, (1, 1, 3): 1, (1, 2, 3): 1}
        ),
        minus_k=DivisorClass((2, 1, 1)),
        kx3=antican_cube_p1_bundle_over_surface(c1_sq=2, c2=0, Ky_sq=8),
    )
    divisor = SolutionRecord(
        rays=(RaySpec(RayType.C1, delta_bidegree=(2, 5)), RaySpec(RayType.E1)),
        form=TrilinearForm.from_nonzero(
            3, {(1, 1, 1): 2, (1, 1, 2): -1, (1, 1, 3): -2, (1, 2, 3): 2}
        ),
        minus_k=DivisorClass((1, 2, 1)),
        kx3=antican_cube_divisor_in_p2_bundle(
            c1_sq=8,
            c2=2,
            Ky_sq=8,
            c1_dot_F=-10,
            c1_dot_Ky=8,
            F_dot_Ky=-10,
            F_sq=12,
        ),
    )
    return bundle, divisor


# ------------------------------------------------------------- aggregation --


def _classification_order(record: SolutionRecord) -> tuple[int, int]:
    """(-K)^3, then the largest index r of an E1 ray's target, descending.

    A record without an E1 ray, or whose E1 ray carries no r (rank 3),
    counts as r = 0.
    """
    r = max((s.r or 0 for s in record.rays if s.ray_type is _E1), default=0)
    return record.kx3, -r


def enumerate_all(rho: int, primitive_only: bool = False) -> tuple[SolutionRecord, ...]:
    """Every solved family of the given Picard rank, in Mori-Mukai's order.

    Records go by (-K)^3, and within one cube the blowups of P^3 come first,
    then those of Q, then those of V_d, then every other family; no two
    records of one call tie.  ``primitive_only`` restricts rank 2 to
    families without an E1 ray.  The rank-3 enumeration covers only the
    primitive families, so it must be called with ``primitive_only=True``.
    """
    if rho == 2:
        records = _solve(_PRIMITIVE_PAIRINGS if primitive_only else _RANK2_PAIRINGS)
    elif rho == 3:
        if not primitive_only:
            raise UnsupportedScopeError(
                "rank-3 enumeration covers only the primitive families; "
                "pass primitive_only=True"
            )
        records = solve_rho3_CCC() + solve_rho3_CE()
    else:
        raise UnsupportedScopeError(f"no enumeration for Picard rank {rho}")
    return tuple(sorted(records, key=_classification_order))
