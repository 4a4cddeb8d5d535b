"""The type facts, derived again by restricting to a general surface S in |H|.

Every other check of the engine reads ``TYPE_FACTS``; this one derives each
side's four facts H^3, (-K).H^2, (-K)^2.H and c2.H, and the (q, w) of a
point contraction, from the geometry its type names, in Fractions.  By
Bertini a general S in |H| is smooth, and with h = H|_S adjunction
(K_S = (K_X + S)|_S) gives

    H^3 = h^2,   (-K).H^2 = (-K_S + h).h,   (-K)^2.H = (-K_S + h)^2,

and c(T_X|_S) = c(T_S) c(N_S), N_S = O_S(h), gives c2.H = e(S) + (-K_S).h
(Fulton, *Intersection Theory*, ch. 3 and 15).  The only numbers it shares
with ``TYPE_FACTS`` are the inputs each type names: the index r and cube
L^3 of an E1 target (``FANO_TARGETS``), the index r of a point contraction's
target, and the domain of the unknown u.  The facts are affine in u, so
agreeing at two values of u (at the one value of a one-point domain) is
agreeing everywhere.

The mutation it is written to kill: the E1 (-K)^2.H slope at -8 quarters in
place of -4, which counts deg B twice.
"""

from fractions import Fraction

import pytest

from fanoenum.ray_constraints import TYPE_FACTS, RayType

# (h^2, -K_S.h, K_S^2, e(S)) of a general S in |H|, for a side's fixed data
# and its unknown u.


def _conic_surface(deg_delta):
    # S lies over a line of P^2: a conic bundle over P^1 with deg Delta
    # singular fibres, a ruled surface (K^2 = 8) blown up deg Delta times.  h
    # is a fibre, a smooth conic: h^2 = 0 and K_S.h = 2g - 2 - h^2 = -2.  S
    # is rational, so e(S) = 12 - K_S^2 (Noether).
    k_sq = 8 - deg_delta
    return 0, 2, k_sq, 12 - k_sq


def _del_pezzo_surface(d2):
    # S is a fibre, a del Pezzo surface of degree d2 with trivial normal
    # bundle: h = 0, and e(S) = 12 - K_S^2 (Noether).
    return 0, 0, d2, 12 - d2


def _blown_up_surface(r, L3, degB):
    # S is S_Y in |L| on the target Y (-K_Y = r L), blown up at the deg B
    # points where the centre B meets it; h, the pullback of L|S_Y, misses
    # the exceptional curves.  K_{S_Y} = (K_Y + L)|S_Y = (1 - r) L|S_Y, and
    # e(S_Y) = c2(Y).L - (-K_{S_Y}).L|S_Y with c2(Y).L = 24 / r, from
    # -K_Y.c2(Y) = 24.  Each point blown up lowers K^2 and raises e by one.
    minus_k_h = (r - 1) * L3
    return L3, minus_k_h, (r - 1) ** 2 * L3 - degB, Fraction(24, r) - minus_k_h + degB


# A divisor D contracted to a point: the discrepancy a in K_X = f^*K_Y + a D,
# the self-intersection (D|_D)^2 = D^3, and -K_Y.c2(Y) (Kawamata 1986, Reid
# 1987: 24 less 3/2 for the 1/2(1,1,1) point of E5).
_POINT_CONTRACTIONS = {
    RayType.E2: (Fraction(2), 1, Fraction(24)),  # D = P^2, N = O(-1)
    RayType.E34: (Fraction(1), 2, Fraction(24)),  # D a quadric, N = O(-1)
    RayType.E5: (Fraction(1, 2), 4, Fraction(45, 2)),  # D = P^2, N = O(-2)
}


def _contracted(ray_type):
    """(q, w) with m D = r H - q (-K) and (m D)^3 = w.

    -K = f^*(-K_Y) - a D, so a q D = r H - q (-K) for the q that makes
    m = a q an integer, with -K_Y = (r / q) L on the target.
    """
    a, d_cubed, _ = _POINT_CONTRACTIONS[ray_type]
    q = a.denominator
    return q, int(a * q) ** 3 * d_cubed


def _point_surface(ray_type, r, L3):
    # S misses the point, so S is S_Y in |L| on the target, where
    # -K_Y = s L with s = r / q: -K_S = (s - 1) h, and
    # e(S_Y) = c2(Y).L - (-K_{S_Y}).L|S_Y with c2(Y).L = -K_Y.c2(Y) / s.
    q, _ = _contracted(ray_type)
    s = Fraction(r, q)
    minus_k_h = (s - 1) * L3
    return L3, minus_k_h, (s - 1) ** 2 * L3, _POINT_CONTRACTIONS[ray_type][2] / s - minus_k_h


def _surface(ray_type, fixed, u):
    """S's data for a side of ``ray_type`` that fixes ``fixed``, and the unknown u names."""
    if ray_type in (RayType.C1, RayType.C2):
        return "deg_delta", _conic_surface(u)
    if ray_type in (RayType.D1, RayType.D2, RayType.D3):
        return "d2", _del_pezzo_surface(u)
    if ray_type is RayType.E1:
        return "degB", _blown_up_surface(fixed["r"], fixed["L3"], u)
    return "L3", _point_surface(ray_type, fixed["r"], u)


def _derived_facts(ray_type, fixed, u):
    unknown, (h_sq, minus_k_h, k_sq, euler) = _surface(ray_type, fixed, u)
    return unknown, (h_sq, minus_k_h + h_sq, k_sq + 2 * minus_k_h + h_sq, euler + minus_k_h)


def _disagreements(ray_type, fixed, facts):
    """Each u at which ``facts`` (in quarters) and the derived facts differ."""
    t = TYPE_FACTS[ray_type]
    samples = (t.low,) if t.low == t.high else (t.low, t.low + 1)
    found = []
    for u in samples:
        unknown, derived = _derived_facts(ray_type, dict(fixed), u)
        table = tuple(Fraction(c + k * u, 4) for c, k in facts)
        if unknown != t.unknown or derived != table:
            found.append((u, derived, table))
    return found


@pytest.mark.parametrize("ray_type", RayType, ids=lambda t: t.value)
def test_every_side_has_the_facts_of_its_surface(ray_type):
    for fixed, facts in TYPE_FACTS[ray_type].sides:
        assert _disagreements(ray_type, fixed, facts) == [], fixed


@pytest.mark.parametrize("ray_type", list(_POINT_CONTRACTIONS), ids=lambda t: t.value)
def test_a_point_contraction_has_the_q_and_w_of_its_divisor(ray_type):
    assert TYPE_FACTS[ray_type].contracted == _contracted(ray_type)


def test_the_oracle_sees_deg_b_counted_twice_in_an_e1_side():
    fixed, facts = TYPE_FACTS[RayType.E1].sides[0]
    constant, slope = facts[2]
    assert slope == -4
    assert _disagreements(RayType.E1, fixed, (*facts[:2], (constant, -8), facts[3]))


def test_the_oracle_kills_every_fact_move_that_changes_a_value():
    # each constant or slope of each fact of each side moved by 4 quarters
    # either way; only a slope move on C2's one-point domain deg Delta = 0
    # changes no value
    survivors, moves = [], 0
    for ray_type in RayType:
        for fixed, facts in TYPE_FACTS[ray_type].sides:
            for index in range(4):
                for part in (0, 1):
                    for quarters in (-4, 4):
                        moved = [list(fact) for fact in facts]
                        moved[index][part] += quarters
                        moves += 1
                        if not _disagreements(ray_type, fixed, moved):
                            survivors.append((ray_type, index, part))
    assert moves == 416
    assert survivors == [(RayType.C2, index, 1) for index in range(4) for _ in (-4, 4)]
