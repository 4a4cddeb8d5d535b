"""Closed-form Chern-number evaluators for the standard fibration geometries.

Each function evaluates one anticanonical-degree or curve-genus formula that
the rank-2/3 classification consumes, from plain integers to a plain integer:

* ``antican_cube_p1_bundle_over_surface(c1_sq, c2, Ky_sq)``
* ``xi_square_on_curve(deg_E)``
* ``antican_cube_divisor_in_p2_bundle(c1_sq, c2, Ky_sq, c1_dot_F, c1_dot_Ky,
  F_dot_Ky, F_sq)``
* ``blowup_exceptional_cube(deg_conormal)``
* ``antican_sq_dot_exceptional(ky_dot_C, genus)``
* ``conic_bundle_ksq_dot_pullback(ks_dot_d, delta_dot_d)``
* ``genus_from_blowup(kx3, ky3, r, degB)``
* ``antican_cube_by_index(r, L3=None)``

:data:`FANO_TARGETS` is the one table of the smooth Fano threefolds Y of
index r >= 2 that a blowup or point contraction can land on: their indices
and generator cubes L^3.  Parity and sign conditions are checked, never
rounded away.
"""

from .errors import (
    ConstraintError,
    IncompleteSpecError,
    ParityError,
    UnsupportedIndexError,
)

__all__ = [
    "antican_cube_p1_bundle_over_surface",
    "xi_square_on_curve",
    "antican_cube_divisor_in_p2_bundle",
    "blowup_exceptional_cube",
    "antican_sq_dot_exceptional",
    "conic_bundle_ksq_dot_pullback",
    "genus_from_blowup",
    "antican_cube_by_index",
]

# index r -> the generator cubes L^3 of a smooth Fano threefold of index r:
# P^3 (r = 4), the quadric (r = 3) and the del Pezzo threefolds with L^3 =
# 1..5 that contain enough curves for the blowup analysis (r = 2).
# (-K_Y)^3 = r^3 L^3.
FANO_TARGETS = {2: (1, 2, 3, 4, 5), 3: (2,), 4: (1,)}


def antican_cube_p1_bundle_over_surface(c1_sq: int, c2: int, Ky_sq: int) -> int:
    """(-K_X)^3 for X = P(E) -> Y a P^1-bundle over a smooth surface.

    With E a rank-2 bundle on Y this is 2 c_1(E)^2 - 8 c_2(E) + 6 K_Y^2,
    obtained by cubing -K_X = 2 xi + pi^*(c_1(E) - K_Y) with the relation
    xi^2 = xi . pi^* c_1(E) - pi^* c_2(E).
    """
    return 2 * c1_sq - 8 * c2 + 6 * Ky_sq


def xi_square_on_curve(deg_E: int) -> int:
    """xi^2 for the tautological class of P(E) over a curve: deg E itself."""
    return int(deg_E)


def antican_cube_divisor_in_p2_bundle(
    c1_sq: int,
    c2: int,
    Ky_sq: int,
    c1_dot_F: int,
    c1_dot_Ky: int,
    F_dot_Ky: int,
    F_sq: int,
) -> int:
    """(-K_X)^3 for X in |O_P(2) (x) pi^* F| inside a P^2-bundle P(E) -> Y.

    X is a conic bundle over the surface Y; adjunction plus the Grothendieck
    relation for rank-3 E collapse to

        2 c1^2 - 2 c2 + 4 c1.F + 6 c1.K_Y + 9 F.K_Y + 6 K_Y^2 + 3 F^2

    with c1 = c_1(E), F the twisting bundle on Y.
    """
    return (
        2 * c1_sq
        - 2 * c2
        + 4 * c1_dot_F
        + 6 * c1_dot_Ky
        + 9 * F_dot_Ky
        + 6 * Ky_sq
        + 3 * F_sq
    )


def blowup_exceptional_cube(deg_conormal: int) -> int:
    """D^3 for the exceptional divisor of a blowup along a smooth curve.

    D = P(N*) over the centre, and D^3 = deg N* (the conormal degree).
    """
    return int(deg_conormal)


def antican_sq_dot_exceptional(ky_dot_C: int, genus: int) -> int:
    """(-K_X)^2 . D for the exceptional divisor over a curve of genus g.

    Pushing down gives -K_Y . C + 2 - 2g.  A negative genus is rejected, and
    so is -K_Y . C <= 0: -K_Y is ample on the Fano target Y.
    """
    if genus < 0:
        raise ConstraintError(f"genus must be >= 0, got {genus}")
    if ky_dot_C < 1:
        raise ConstraintError(f"-K_Y . C must be >= 1 on a Fano target, got {ky_dot_C}")
    return ky_dot_C + 2 - 2 * genus


def conic_bundle_ksq_dot_pullback(ks_dot_d: int, delta_dot_d: int) -> int:
    """K_X^2 . f^*D for a conic bundle f: X -> S with discriminant Delta.

    Equals -4 K_S . D - Delta . D for any divisor D on the base S.
    """
    return -4 * ks_dot_d - delta_dot_d


def genus_from_blowup(kx3: int, ky3: int, r: int, degB: int) -> int:
    """Genus of the blowup centre from the two anticanonical cubes.

    For X = Bl_B Y with Y Fano of index r and deg B = (-K_Y . B)/r,

        g(B) = (-K_X)^3/2 - (-K_Y)^3/2 + r deg B + 1,

    which is the blowup formula (-K_X)^3 = (-K_Y)^3 - 2(-K_Y).B + 2g - 2
    solved for g.  The index must be 2, 3 or 4, the centre is a curve
    (deg B >= 1), both cubes must be even, and a negative result violates
    g >= 0 and is rejected.
    """
    if r not in FANO_TARGETS:
        raise UnsupportedIndexError(f"no smooth Fano threefold has index {r} >= 2")
    if degB < 1:
        raise ConstraintError(f"a blowup centre is a curve, so degB >= 1, got {degB}")
    if kx3 % 2 != 0:
        raise ParityError(f"(-K_X)^3 must be even, got {kx3}")
    if ky3 % 2 != 0:
        raise ParityError(f"(-K_Y)^3 must be even, got {ky3}")
    genus = kx3 // 2 - ky3 // 2 + r * degB + 1
    if genus < 0:
        raise ConstraintError(
            f"genus computed as {genus} < 0 for kx3={kx3}, ky3={ky3}, r={r}, degB={degB}"
        )
    return genus


def antican_cube_by_index(r: int, L3: int | None = None) -> int:
    """(-K_Y)^3 = r^3 L^3 for a smooth Fano threefold Y of index r >= 2.

    Index 4 forces Y = P^3 (cube 64), index 3 forces the quadric (cube 54);
    index 2 needs the degree L3 = L^3 of the ample generator, giving 8*L3.
    A given L3 must be one of its index's :data:`FANO_TARGETS`, whatever the
    index.
    """
    cubes = FANO_TARGETS.get(r)
    if cubes is None:
        raise UnsupportedIndexError(f"no smooth Fano threefold has index {r} >= 2")
    if L3 is None and len(cubes) == 1:
        (L3,) = cubes
    if L3 is None:
        raise IncompleteSpecError(f"index-{r} targets need L3 = L^3")
    if type(L3) is not int or L3 not in cubes:  # True in (1,) holds
        raise ConstraintError(
            f"an index-{r} target has L3 in {cubes[0]}..{cubes[-1]}, got {L3}"
        )
    return r**3 * L3
