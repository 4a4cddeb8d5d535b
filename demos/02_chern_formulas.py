"""The Chern-class formulas behind the degree computations.

Each extremal contraction comes with a closed formula for (-K_X)^3 or a
related intersection number in terms of Chern data on the base.  The
functions here are tiny, exact, and total on integers; this demo walks
through the ones the classification leans on.
"""

from fanoenum import (
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
    antican_sq_dot_exceptional,
    conic_bundle_ksq_dot_pullback,
    genus_from_blowup,
)

# --- P^1-bundles over a surface -------------------------------------------
# For X = P(E) over a surface Y the degree is 2c1(E)^2 - 8c2(E) + 6K_Y^2.
# Over P^1 x P^1 with E = O + O(1,1) this gives the primitive rank-3
# family of degree 52; over P^2 with E = O + O(e) it gives V_7 (e=1)
# and the cone resolution P(O + O(2)) (e=2).
for c1_sq, ky_sq, label in ((2, 8, "P(O+O(1,1)) over P^1xP^1"),
                            (1, 9, "P(O+O(1))   over P^2"),
                            (4, 9, "P(O+O(2))   over P^2")):
    degree = antican_cube_p1_bundle_over_surface(c1_sq=c1_sq, c2=0, Ky_sq=ky_sq)
    print("(-K)^3 = %2d   for %s" % (degree, label))

# --- Divisors in a P^2-bundle ---------------------------------------------
# A member of |2xi + f*F| in P(E) over a surface has a seven-term degree
# formula.  Two very different inputs both land on 14: a divisor in
# P(O + O(-1,-1)^2) over P^1 x P^1, and the double cover of V_7.
print(
    "divisor in P(O+O(-1,-1)^2):",
    antican_cube_divisor_in_p2_bundle(
        8, 2, 8, c1_dot_F=-10, c1_dot_Ky=8, F_dot_Ky=-10, F_sq=12
    ),
)
print(
    "double cover of V_7:       ",
    antican_cube_divisor_in_p2_bundle(
        9, 2, 9, c1_dot_F=0, c1_dot_Ky=-9, F_dot_Ky=0, F_sq=0
    ),
)

# --- Conic bundles ----------------------------------------------------------
# K_X^2 . f*D = -4 K_S.D - Delta.D, so over S = P^2 (K_S . line = -3)
# the pullback of a line meets K_X^2 in 12 - deg(Delta).
for deg_delta in (3, 6, 12):
    print(
        "deg Delta = %2d  ->  K^2 . f*line = %d"
        % (deg_delta, conic_bundle_ksq_dot_pullback(-3, deg_delta))
    )

# --- Blowups ----------------------------------------------------------------
# Blowing up a smooth curve B in Y relates the degrees of X and Y to the
# degree and genus of B: g(B) = (-K_X)^3/2 - (-K_Y)^3/2 + r.degB + 1.
# The genus comes out of intersection numbers alone.
print("genus of the degree-7 center in P^3:", genus_from_blowup(16, 64, 4, 7))
print("genus of the degree-6 center in Q:  ", genus_from_blowup(20, 54, 3, 6))

# (-K_X)^2 . E on the exceptional divisor is -K_Y.B + 2 - 2g(B); for a
# line in P^3 (degree 4 against -K, genus 0) it is 6.
print(
    "(-K)^2 . E for the blowup of a line:",
    antican_sq_dot_exceptional(ky_dot_C=4, genus=0),
)
