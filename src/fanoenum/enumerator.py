"""Case-analysis solvers reproducing the rank-2 and primitive rank-3 tables.

Each ``solve_*`` function treats one pairing of extremal-ray types.  The two
pullback classes H1, H2 form a basis of the Picard lattice (index 1, see
:func:`fanoenum.ray_constraints.lattice_index_candidates`), so every pairing
reduces to a small integer system:

  (A) the c2 balance    24 = mu2 (c2 . H1) + mu1 (c2 . H2),
  (B) a cross term      H1^2 . H2 expressed through both rays' data,
  (C) a second cross    H1 . H2^2 likewise.

The solver derives each unknown from the system and keeps exactly the integer
solutions in range; no floats, no approximation.  Every surviving solution is
wrapped in a :class:`SolutionRecord` carrying the full intersection form, the
anticanonical class, the derived invariants and a human-readable description,
then labelled with the row id of the embedded classification table it matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .chern_calculus import (
    SurfaceBundleData,
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
    anticanonical_class,
    triple_product,
)
from .ray_constraints import (
    RaySpec,
    RayType,
    SECOND_RAY_CUBE_DOMAIN,
    SECOND_RAY_INDEX_DOMAIN,
    balance_check,
    c2_dot_H,
    l3_range,
    mu_of,
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


@dataclass(frozen=True)
class SolutionRecord:
    """One solved family: rays, intersection form, anticanonical data.

    ``rays`` are in canonical order (C types before D types before E types);
    ``form`` and ``minus_k`` are written in the matching basis of pullbacks,
    so ``kx3`` always equals the triple product of ``minus_k`` with itself.
    ``genus`` is the genus of the blowup centre of the first E1 ray, when
    there is one.  ``descriptions`` lists the known constructions of the
    family; ``char_note`` records a positive-characteristic caveat and is
    never part of table comparisons.
    """

    rho: int
    rays: tuple[RaySpec, ...]
    form: TrilinearForm
    minus_k: DivisorClass
    kx3: int
    genus: Optional[int] = None
    table_id: str = ""
    descriptions: tuple[str, ...] = ()
    char_note: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kx3 % 2 != 0:
            raise ParityError(f"(-K)^3 must be even, got {self.kx3}")
        if not 0 < self.kx3 <= 72:
            raise ConstraintError(f"(-K)^3 must lie in (0, 72], got {self.kx3}")
        if triple_product(self.form, self.minus_k, self.minus_k, self.minus_k) != self.kx3:
            raise InconsistencyError(
                f"stored (-K)^3 = {self.kx3} disagrees with the intersection form"
            )
        if self.genus is not None and self.genus < 0:
            raise ConstraintError(f"genus must be >= 0, got {self.genus}")
        orders = [spec.ray_type.order for spec in self.rays]
        if orders != sorted(orders):
            raise InconsistencyError("rays are not in canonical order")

    @property
    def ray_types(self) -> tuple[RayType, ...]:
        return tuple(spec.ray_type for spec in self.rays)

    @property
    def description(self) -> str:
        return ", or ".join(self.descriptions)


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


def _ci_clause(r: int, L3: int, degB: int) -> Optional[str]:
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


# ------------------------------------------------------- record assembly ----


def _pair_record(
    ray_a: RaySpec,
    ray_b: RaySpec,
    cubes: tuple[int, int, int, int],
    *,
    genus: Optional[int] = None,
    descriptions: tuple[str, ...] = (),
    char_note: Optional[str] = None,
) -> SolutionRecord:
    """Build a rank-2 record from data in the (ray_a, ray_b) basis.

    ``cubes`` = (H1^3, H1^2.H2, H1.H2^2, H2^3) for H1, H2 the pullbacks along
    ray_a, ray_b.  The pair is normalized to canonical type order, transposing
    the form and the anticanonical coordinates along with it, and the c2
    balance is re-verified as a final consistency check.
    """
    if not balance_check(ray_a.mu, ray_b.mu, c2_dot_H(ray_a), c2_dot_H(ray_b)):
        raise InconsistencyError(
            f"solved pair ({ray_a.ray_type.value}, {ray_b.ray_type.value}) "
            "violates the c2 balance"
        )
    form = TrilinearForm.rank2(*cubes)
    minus_k = anticanonical_class(ray_a.mu, ray_b.mu, 2)
    if ray_b.ray_type.order < ray_a.ray_type.order:
        ray_a, ray_b = ray_b, ray_a
        form = form.transposed((2, 1))
        minus_k = DivisorClass((minus_k.coords[1], minus_k.coords[0]))
    kx3 = triple_product(form, minus_k, minus_k, minus_k)
    rays = (ray_a, ray_b)
    return SolutionRecord(
        rho=2,
        rays=rays,
        form=form,
        minus_k=minus_k,
        kx3=kx3,
        genus=genus,
        table_id=_table_id(2, kx3, rays),
        descriptions=descriptions,
        char_note=char_note,
    )


def _ray_payload(ray_type_value: str, degB, d2, deg_delta) -> tuple:
    return (
        ray_type_value,
        0 if degB is None else degB,
        0 if d2 is None else d2,
        -1 if deg_delta is None else deg_delta,
    )


_ID_CACHE: dict[str, dict[tuple, str]] = {}


def _id_index() -> dict[tuple, str]:
    """Row-id lookup keyed by (rho, kx3, per-ray degree data), built lazily."""
    from .table_oracle import ground_truth, truth_source

    source = truth_source()
    index = _ID_CACHE.get(source)
    if index is None:
        index = {}
        for rho, primitive_only in ((2, False), (3, True)):
            for row in ground_truth(rho, primitive_only=primitive_only):
                degBs = row.invariants.get("degB", (None,) * len(row.ray_types))
                d2s = row.invariants.get("d2", (None,) * len(row.ray_types))
                deltas = row.invariants.get("deg_delta", (None,) * len(row.ray_types))
                payload = tuple(
                    sorted(
                        _ray_payload(tag, degBs[i], d2s[i], deltas[i])
                        for i, tag in enumerate(row.ray_types)
                    )
                )
                index[(row.rho, row.kx3, payload)] = row.table_id
        _ID_CACHE[source] = index
    return index


def _table_id(rho: int, kx3: int, rays: tuple[RaySpec, ...]) -> str:
    """The id of the table row with this rank, cube and per-ray degree data."""
    payload = tuple(
        sorted(
            _ray_payload(spec.ray_type.value, spec.degB, spec.d2, spec.deg_delta)
            for spec in rays
        )
    )
    return _id_index().get((rho, kx3, payload), "")


def _genus_or_none(kx3: int, ky3: int, r: int, degB: int) -> Optional[int]:
    """genus_from_blowup, with constraint violations turned into pruning."""
    try:
        return genus_from_blowup(kx3, ky3, r, degB)
    except (ParityError, ConstraintError):
        return None


# ------------------------------------------------------------ E1 pairings ---


def solve_E1_C(sub: RayType) -> tuple[SolutionRecord, ...]:
    """Blowup ray opposite a conic bundle over P^2 (sub = C1 or C2).

    With H1 the pullback of the target generator and H2 that of O_{P^2}(1):
    H2^3 = 0, H1 . H2^2 = 2/mu2, and the system (A)(B)(C) of the module
    docstring pins degB and deg Delta for each admissible target.
    """
    if sub not in (RayType.C1, RayType.C2):
        raise ConstraintError(f"expected a conic-bundle type, got {sub.value}")
    mu2 = mu_of(sub)
    fibre_term = 2 // mu2  # H1 . H2^2, integral for mu2 in {1, 2}
    records = []
    for r1 in SECOND_RAY_INDEX_DOMAIN:
        for L1 in l3_range(r1):
            degB_exact = (r1 - mu2) ** 2 * L1 - Fraction(2, mu2)  # (C)
            deg_delta = 8 - mu2 * mu2 * (r1 - mu2) * L1  # (B)
            if degB_exact != int(degB_exact) or int(degB_exact) < 1:
                continue
            degB = int(degB_exact)
            if not 0 <= deg_delta <= 12:
                continue
            if sub is RayType.C1 and deg_delta < 1:
                continue
            if sub is RayType.C2 and deg_delta != 0:
                continue
            if 18 != mu2 * (24 // r1 + degB) + deg_delta:  # (A)
                continue
            kx3 = mu2**3 * L1 + 3 * mu2**2 * (r1 - mu2) * L1 + 6
            genus = _genus_or_none(kx3, antican_cube_by_index(r1, L1), r1, degB)
            if genus is None:
                continue
            e1 = RaySpec(RayType.E1, r=r1, L3=L1, degB=degB, genus=genus)
            conic = RaySpec(sub, deg_delta=deg_delta)
            records.append(
                _pair_record(
                    e1,
                    conic,
                    (L1, (r1 - mu2) * L1, fibre_term, 0),
                    genus=genus,
                    descriptions=(
                        _blowup_description(r1, L1, degB, genus, with_ci=False),
                    ),
                )
            )
    return tuple(records)


def solve_E1_D(sub: RayType) -> tuple[SolutionRecord, ...]:
    """Blowup ray opposite a del Pezzo fibration over P^1 (sub = D1/D2/D3).

    H2 is the fibre class, so H2^2 = 0 and both cross cubes close the system:
    degB = (r1 - mu2)^2 L1 and d2 = mu2^2 (r1 - mu2) L1.
    """
    if sub not in (RayType.D1, RayType.D2, RayType.D3):
        raise ConstraintError(f"expected a del Pezzo fibration type, got {sub.value}")
    mu2 = mu_of(sub)
    records = []
    for r1 in SECOND_RAY_INDEX_DOMAIN:
        for L1 in l3_range(r1):
            degB = (r1 - mu2) ** 2 * L1  # (C)
            d2 = mu2 * mu2 * (r1 - mu2) * L1  # (B)
            if degB < 1:
                continue
            if sub is RayType.D1 and not 1 <= d2 <= 7:
                continue
            if sub is RayType.D2 and d2 != 8:
                continue
            if sub is RayType.D3 and d2 != 9:
                continue
            if 12 != mu2 * (24 // r1 + degB) - d2:  # (A)
                continue
            kx3 = mu2**3 * L1 + 3 * mu2**2 * (r1 - mu2) * L1
            genus = _genus_or_none(kx3, antican_cube_by_index(r1, L1), r1, degB)
            if genus is None:
                continue
            e1 = RaySpec(RayType.E1, r=r1, L3=L1, degB=degB, genus=genus)
            fibration = RaySpec(sub, d2=d2)
            records.append(
                _pair_record(
                    e1,
                    fibration,
                    (L1, (r1 - mu2) * L1, 0, 0),
                    genus=genus,
                    descriptions=(
                        _blowup_description(r1, L1, degB, genus, with_ci=True),
                    ),
                )
            )
    return tuple(records)


def _solve_E1_E1() -> tuple[SolutionRecord, ...]:
    records = []
    for r1 in SECOND_RAY_INDEX_DOMAIN:
        for L1 in l3_range(r1):
            for r2 in (r for r in SECOND_RAY_INDEX_DOMAIN if r <= r1):
                for L2 in l3_range(r2):
                    degB1 = (r1 - 1) ** 2 * L1 - (r2 - 1) * L2  # (C)
                    degB2 = (r2 - 1) ** 2 * L2 - (r1 - 1) * L1  # (B)
                    if degB1 < 1 or degB2 < 1:
                        continue
                    if r1 == r2 and degB1 < degB2:
                        continue  # the symmetric twin of a kept solution
                    if 24 != 24 // r1 + degB1 + 24 // r2 + degB2:  # (A)
                        continue
                    kx3 = L1 + 3 * (r1 - 1) * L1 + 3 * (r2 - 1) * L2 + L2
                    g1 = _genus_or_none(kx3, antican_cube_by_index(r1, L1), r1, degB1)
                    g2 = _genus_or_none(kx3, antican_cube_by_index(r2, L2), r2, degB2)
                    if g1 is None or g2 is None:
                        continue
                    first = RaySpec(RayType.E1, r=r1, L3=L1, degB=degB1, genus=g1)
                    second = RaySpec(RayType.E1, r=r2, L3=L2, degB=degB2, genus=g2)
                    texts = [
                        _blowup_description(r1, L1, degB1, g1, with_ci=False),
                        _blowup_description(r2, L2, degB2, g2, with_ci=False),
                    ]
                    if texts[0] == texts[1]:
                        texts = texts[:1]
                    records.append(
                        _pair_record(
                            first,
                            second,
                            (L1, (r1 - 1) * L1, (r2 - 1) * L2, L2),
                            genus=g1,
                            descriptions=tuple(texts),
                        )
                    )
    return tuple(records)


def solve_E1_E(sub: RayType) -> tuple[SolutionRecord, ...]:
    """Blowup ray opposite a second divisorial ray (sub = E1/E2/E34/E5).

    The second ray contracts a divisor with conormal cube L2; its c2 value is
    24/r2 (E2, E3/E4) or 45/r2 (E5), and the two cross cubes tie L2 to the
    blowup data of the first ray.
    """
    if sub is RayType.E1:
        return _solve_E1_E1()
    if sub not in (RayType.E2, RayType.E34, RayType.E5):
        raise ConstraintError(f"expected a divisorial type, got {sub.value}")
    mu2 = mu_of(sub)
    c2_numerator = 45 if sub is RayType.E5 else 24
    records = []
    for r1 in SECOND_RAY_INDEX_DOMAIN:
        for L1 in l3_range(r1):
            for r2 in SECOND_RAY_INDEX_DOMAIN:
                if c2_numerator % r2 != 0:
                    continue
                # (A) solved for degB1
                numerator = 24 - c2_numerator // r2 - mu2 * (24 // r1)
                if numerator % mu2 != 0 or numerator // mu2 < 1:
                    continue
                degB1 = numerator // mu2
                # ratio = H1 . H2^2 / L2: (r2-1)/mu2 for E2 and E3/E4,
                # r2/2 - 1 for E5 (the half-point index convention).
                if sub is RayType.E5:
                    ratio = Fraction(r2, 2) - 1
                else:
                    ratio = Fraction(r2 - 1, mu2)
                if ratio <= 0:
                    continue
                L2_exact = Fraction((r1 - mu2) * L1) / ratio**2  # (B)
                if L2_exact != int(L2_exact) or not int(L2_exact) in SECOND_RAY_CUBE_DOMAIN:
                    continue
                L2 = int(L2_exact)
                cross = ratio * L2
                if cross != int(cross):
                    continue
                if cross != (r1 - mu2) ** 2 * L1 - degB1:  # (C)
                    continue
                kx3 = (
                    mu2**3 * L1
                    + 3 * mu2**2 * (r1 - mu2) * L1
                    + 3 * mu2 * int(cross)
                    + L2
                )
                genus = _genus_or_none(kx3, antican_cube_by_index(r1, L1), r1, degB1)
                if genus is None:
                    continue
                first = RaySpec(RayType.E1, r=r1, L3=L1, degB=degB1, genus=genus)
                second = RaySpec(sub, r=r2, L3=L2)
                texts = [_blowup_description(r1, L1, degB1, genus, with_ci=False)]
                if sub is RayType.E2:
                    texts.append("blowup of %s at a point" % _target_name(r2, L2))
                records.append(
                    _pair_record(
                        first,
                        second,
                        (L1, (r1 - mu2) * L1, int(cross), L2),
                        genus=genus,
                        descriptions=tuple(texts),
                    )
                )
    return tuple(records)


# ------------------------------------------------------ primitive pairings --


def solve_C_C() -> tuple[SolutionRecord, ...]:
    """Two conic-bundle rays; X maps into P^2 x P^2 with bidegree data.

    deg Delta_i = 12 - (4 mu_j + 2 mu_i^2 / mu_j) from c2 pushforward, and the
    double-cover structures are counted by the common divisors of the two
    fibre degrees 2/mu_i.
    """
    records = []
    for mu1, mu2 in ((1, 1), (1, 2), (2, 2)):
        d1_exact = 12 - (4 * mu2 + Fraction(2 * mu1 * mu1, mu2))
        d2_exact = 12 - (4 * mu1 + Fraction(2 * mu2 * mu2, mu1))
        if d1_exact != int(d1_exact) or d2_exact != int(d2_exact):
            continue
        deg_d1, deg_d2 = int(d1_exact), int(d2_exact)
        if not (0 <= deg_d1 <= 12 and 0 <= deg_d2 <= 12):
            continue
        if (mu1 == 1) != (deg_d1 >= 1) or (mu2 == 1) != (deg_d2 >= 1):
            continue
        if 24 != mu2 * (6 + deg_d1) + mu1 * (6 + deg_d2):
            continue
        bidegree = (2 // mu2, 2 // mu1)
        if (mu1, mu2) == (2, 2):
            texts = ["W, a divisor on P^2 x P^2 of bidegree (1,1)"]
        else:
            texts = ["a divisor on P^2 x P^2 of bidegree (%d,%d)" % bidegree]
        if (mu1, mu2) == (1, 1):
            texts.append("a split double cover of W with L^2 = omega_W^{-1}")
        char_note = (
            "wild conic bundle possible only in characteristic 2"
            if (mu1, mu2) == (1, 2)
            else None
        )
        type1 = RayType.C1 if mu1 == 1 else RayType.C2
        type2 = RayType.C1 if mu2 == 1 else RayType.C2
        records.append(
            _pair_record(
                RaySpec(type1, deg_delta=deg_d1),
                RaySpec(type2, deg_delta=deg_d2),
                (0, 2 // mu1, 2 // mu2, 0),
                descriptions=tuple(texts),
                char_note=char_note,
            )
        )
    return tuple(records)


def solve_C_D() -> tuple[SolutionRecord, ...]:
    """Conic-bundle ray + del Pezzo fibration ray; X maps into P^2 x P^1.

    d2 = 2 mu_D^2 / mu_C and deg Delta = 12 - 4 mu_D, with the fibre-degree
    subtyping and the c2 balance eliminating all but three (mu_C, mu_D) pairs.
    """
    records = []
    for mu_c in (1, 2):
        for mu_d in (1, 2, 3):
            d2_exact = Fraction(2 * mu_d * mu_d, mu_c)
            if d2_exact != int(d2_exact):
                continue
            d2 = int(d2_exact)
            if not 1 <= d2 <= 9:
                continue
            if (mu_d == 1) != (d2 <= 7) or (mu_d == 2) != (d2 == 8):
                continue
            deg_delta = 12 - 4 * mu_d
            if (mu_c == 1) != (deg_delta >= 1):
                continue
            if 24 != mu_d * (6 + deg_delta) + mu_c * (12 - d2):
                continue
            if (mu_c, mu_d) == (2, 3):
                text = "P^2 x P^1"
            else:
                text = "a split double cover of P^2 x P^1 with L = O(%d,1)" % (2 // mu_d)
            c_type = RayType.C1 if mu_c == 1 else RayType.C2
            d_type = {1: RayType.D1, 2: RayType.D2, 3: RayType.D3}[mu_d]
            records.append(
                _pair_record(
                    RaySpec(c_type, deg_delta=deg_delta),
                    RaySpec(d_type, d2=d2),
                    (0, 2 // mu_c, 0, 0),
                    descriptions=(text,),
                )
            )
    return tuple(records)


# (omega_D tensor O_D(-D))^2 on the contracted divisor D, by second-ray type.
_CONTRACTED_SQUARE = {RayType.E2: 4, RayType.E34: 2, RayType.E5: 1}


def solve_C_E_primitive() -> tuple[SolutionRecord, ...]:
    """Conic-bundle ray + divisorial ray with no E1 (the primitive cases).

    The contracted divisor D maps onto P^2 with deg(f|_D) = (omega_D(-D))^2
    divided by mu_E^2; this must equal the conic-bundle value H_C^2 . D =
    2/mu_C, which pairs each divisorial type with exactly one conic type.
    The E2 and E5 cases are the P(O + O(e)) bundles over P^2 (e = 2/mu_E);
    the E3/E4 case is a relative quadric in a P^2-bundle.
    """
    records = []
    for sub in (RayType.E2, RayType.E34, RayType.E5):
        mu_e = mu_of(sub)
        cover_degree = Fraction(_CONTRACTED_SQUARE[sub], mu_e * mu_e)
        matches = [mu_c for mu_c in (1, 2) if cover_degree == Fraction(2, mu_c)]
        if not matches:
            continue
        mu_c = matches[0]
        c_type = RayType.C1 if mu_c == 1 else RayType.C2
        if sub is RayType.E34:
            # relative quadric: the cross cubes x = H1 . H2^2, y = H2^3
            # satisfy 3x + y = 8 together with x = (r2 - 1) y
            for r2 in SECOND_RAY_INDEX_DOMAIN:
                y, remainder = divmod(8, 3 * (r2 - 1) + 1)
                if remainder or y < 1:
                    continue
                x = (r2 - 1) * y
                deg_delta = 8 - x
                if deg_delta < 1:
                    continue
                chern_value = antican_cube_divisor_in_p2_bundle(
                    SurfaceBundleData(
                        c1_sq=9,
                        c2=2,
                        Ky_sq=9,
                        c1_dot_F=0,
                        c1_dot_Ky=-9,
                        F_dot_Ky=0,
                        F_sq=0,
                    )
                )
                record = _pair_record(
                    RaySpec(c_type, deg_delta=deg_delta),
                    RaySpec(sub, r=r2, L3=y),
                    (0, 2 // mu_c, x, y),
                    descriptions=(
                        "a split double cover of V_7 with L^2 = omega_{V_7}^{-1}",
                    ),
                )
                if record.kx3 != chern_value:
                    raise InconsistencyError(
                        "relative-quadric cube disagrees with the bundle formula"
                    )
                records.append(record)
        else:
            e = 2 // mu_e
            chern_value = antican_cube_p1_bundle_over_surface(
                SurfaceBundleData(c1_sq=e * e, c2=0, Ky_sq=9)
            )
            # balance solved for the formal index r2 of the contracted divisor
            c2_numerator = 45 if sub is RayType.E5 else 24
            remainder_term = 24 - 6 * mu_e
            if (c2_numerator * mu_c) % remainder_term != 0:
                continue
            r2 = c2_numerator * mu_c // remainder_term
            record = _pair_record(
                RaySpec(c_type, deg_delta=0),
                RaySpec(sub, r=r2, L3=e * e, e=e),
                (0, 2 // mu_c, e, e * e),
                descriptions=(
                    (
                        "V_7, i.e. P(O + O(1)) over P^2",
                        "blowup of P^3 at a point",
                    )
                    if sub is RayType.E2
                    else (
                        "P(O + O(2)) over P^2",
                        "blowup at the singular point of the cone over the Veronese surface",
                    )
                ),
            )
            if record.kx3 != chern_value:
                raise InconsistencyError(
                    "P(O + O(e)) cube disagrees with the bundle formula"
                )
            records.append(record)
    return tuple(records)


# ------------------------------------------------------------- rank three ---


def solve_rho3_CCC() -> tuple[SolutionRecord, ...]:
    """Three conic-bundle rays over pairwise products P^1 x P^1.

    X carries a finite cover X -> P^1 x P^1 x P^1 of degree d with
    H1 . H2 . H3 = d, -K = (2/d)(H1 + H2 + H3), and Riemann-Roch forcing
    d^2 (g - 1) = 24 for the sectional genus g.  Only d = 1, 2 survive.
    """
    records = []
    for d in range(1, 25):
        if 24 % (d * d) != 0 or 2 % d != 0:
            continue
        genus_section = 24 // (d * d) + 1
        kx3 = 2 * genus_section - 2
        if kx3 * d * d != 48:
            raise InconsistencyError("rank-3 triple-cover identity broken")
        form = TrilinearForm.from_nonzero(3, {(1, 2, 3): d})
        minus_k = anticanonical_class(d, d, 3)
        # discriminant bidegree on each P^1 x P^1 factor, pinned by
        # K^2 . H_i = -4 K_S . D - Delta . D on a ruling D
        delta_dot = 4 if d == 2 else 0
        basis_first = DivisorClass((1, 0, 0))
        if conic_bundle_ksq_dot_pullback(-2, delta_dot) != triple_product(
            form, minus_k, minus_k, basis_first
        ):
            raise InconsistencyError("discriminant bidegree fails the K^2 check")
        conic_type = RayType.C1 if delta_dot else RayType.C2
        ray = RaySpec(conic_type, delta_bidegree=(delta_dot, delta_dot))
        text = (
            "a split double cover of P^1 x P^1 x P^1 with L = O(1,1,1)"
            if d == 2
            else "P^1 x P^1 x P^1"
        )
        rays = (ray, ray, ray)
        records.append(
            SolutionRecord(
                rho=3,
                rays=rays,
                form=form,
                minus_k=minus_k,
                kx3=kx3,
                table_id=_table_id(3, kx3, rays),
                descriptions=(text,),
            )
        )
    return tuple(records)


def solve_rho3_CE() -> tuple[SolutionRecord, ...]:
    """Conic-bundle ray over P^1 x P^1 paired with a divisorial ray.

    Two primitive families: the index-two bundle P(O + O(1,1)) (smooth conic
    bundle, length 2) and a divisor in the P^2-bundle P(O + O(-1,-1)^2)
    (discriminant of bidegree (2,5), length 1).  Both cubes are checked
    against the corresponding Chern-class formulas.
    """
    records = []

    bundle_kx3 = antican_cube_p1_bundle_over_surface(
        SurfaceBundleData(c1_sq=2, c2=0, Ky_sq=8)
    )
    bundle_form = TrilinearForm.from_nonzero(
        3, {(1, 1, 1): 2, (1, 1, 2): 1, (1, 1, 3): 1, (1, 2, 3): 1}
    )
    bundle_rays = (RaySpec(RayType.C2, delta_bidegree=(0, 0)), RaySpec(RayType.E1))
    records.append(
        SolutionRecord(
            rho=3,
            rays=bundle_rays,
            form=bundle_form,
            minus_k=DivisorClass((2, 1, 1)),
            kx3=bundle_kx3,
            table_id=_table_id(3, bundle_kx3, bundle_rays),
            descriptions=("P(O + O(1,1)) over P^1 x P^1",),
        )
    )

    divisor_kx3 = antican_cube_divisor_in_p2_bundle(
        SurfaceBundleData(
            c1_sq=8,
            c2=2,
            Ky_sq=8,
            c1_dot_F=-10,
            c1_dot_Ky=8,
            F_dot_Ky=-10,
            F_sq=12,
        )
    )
    divisor_form = TrilinearForm.from_nonzero(
        3, {(1, 1, 1): 2, (1, 1, 2): -1, (1, 1, 3): -2, (1, 2, 3): 2}
    )
    divisor_rays = (RaySpec(RayType.C1, delta_bidegree=(2, 5)), RaySpec(RayType.E1))
    records.append(
        SolutionRecord(
            rho=3,
            rays=divisor_rays,
            form=divisor_form,
            minus_k=DivisorClass((1, 2, 1)),
            kx3=divisor_kx3,
            table_id=_table_id(3, divisor_kx3, divisor_rays),
            descriptions=("a divisor in P(O + O(-1,-1)^2) over P^1 x P^1",),
        )
    )
    return tuple(records)


# ------------------------------------------------------------- aggregation --


def _table_order_key(record: SolutionRecord) -> tuple[int, int]:
    table_id = record.table_id
    if table_id and "-" in table_id:
        suffix = int(table_id.split("-", 1)[1])
    else:
        suffix = 10**6  # unmatched records sort last within their cube
    return (record.kx3, suffix)


def enumerate_all(rho: int, primitive_only: bool = False) -> tuple[SolutionRecord, ...]:
    """Every solved family of the given Picard rank, in table order.

    ``primitive_only`` restricts rank 2 to families without an E1 ray.  The
    rank-3 enumeration covers only the primitive families, so it must be
    called with ``primitive_only=True``.
    """
    if rho == 2:
        records = list(solve_C_C()) + list(solve_C_D()) + list(solve_C_E_primitive())
        if not primitive_only:
            for sub in (RayType.C1, RayType.C2):
                records.extend(solve_E1_C(sub))
            for sub in (RayType.D1, RayType.D2, RayType.D3):
                records.extend(solve_E1_D(sub))
            for sub in (RayType.E1, RayType.E2, RayType.E34, RayType.E5):
                records.extend(solve_E1_E(sub))
    elif rho == 3:
        if not primitive_only:
            raise UnsupportedScopeError(
                "rank-3 enumeration covers only the primitive families; "
                "pass primitive_only=True"
            )
        records = list(solve_rho3_CCC()) + list(solve_rho3_CE())
    else:
        raise UnsupportedScopeError(f"no enumeration for Picard rank {rho}")
    return tuple(sorted(records, key=_table_order_key))
