"""Independent brute-force oracles for the case-analysis solvers.

Each oracle below re-encodes one (A)(B)(C) constraint system directly from
its defining relations -- exact Fractions, full bounded sweep of the integer
domain (r in {2,3,4}, L^3 by index, degB in [1,24], degDelta in [0,12],
d2 in [1,9], second-ray L^3 in [1,24]) -- sharing no code with the solvers.
The tests then demand set equality between oracle and solver output.  Every
rank-2 solver and solve_rho3_CCC has one; solve_rho3_CE has none yet.

Solution tuples carry every solved integer plus the derived kx3 and genus, so
agreement pins the whole record, not just its count.
"""

from fractions import Fraction

from fanoenum.enumerator import (
    solve_C_C,
    solve_C_D,
    solve_C_E_primitive,
    solve_E1_C,
    solve_E1_D,
    solve_E1_E,
    solve_rho3_CCC,
)
from fanoenum.ray_constraints import RayType

L3_BY_INDEX = {4: (1,), 3: (2,), 2: (1, 2, 3, 4, 5)}
KY3_BY_INDEX = {4: 64, 3: 54}


def ky3(r, L3):
    return KY3_BY_INDEX.get(r, 8 * L3)


def genus_or_none(kx3, y3, r, degB):
    if kx3 % 2 or y3 % 2:
        return None
    g = kx3 // 2 - y3 // 2 + r * degB + 1
    return g if g >= 0 else None


# ---------------------------------------------------------------- E1 + C ---


def oracle_E1_C(mu2):
    """System: blowup ray opposite a conic bundle over P^2 of length mu2.

    (A) 18 = mu2 (24/r1 + degB) + degDelta
    (B) (r1 - mu2) L1 = (8 - degDelta) / mu2^2
    (C) (r1 - mu2)^2 L1 - degB = 2 / mu2
    """
    out = set()
    for r1 in (2, 3, 4):
        for L1 in L3_BY_INDEX[r1]:
            for degB in range(1, 25):
                for degD in range(0, 13):
                    if mu2 == 1 and degD < 1:
                        continue
                    if mu2 == 2 and degD != 0:
                        continue
                    if 18 != mu2 * (24 // r1 + degB) + degD:
                        continue
                    if (r1 - mu2) * L1 != Fraction(8 - degD, mu2 * mu2):
                        continue
                    if (r1 - mu2) ** 2 * L1 - degB != Fraction(2, mu2):
                        continue
                    kx3 = (
                        mu2**3 * L1
                        + 3 * mu2**2 * (r1 - mu2) * L1
                        + 3 * mu2 * Fraction(2, mu2)
                    )
                    assert kx3 == int(kx3)
                    kx3 = int(kx3)
                    g = genus_or_none(kx3, ky3(r1, L1), r1, degB)
                    if g is None:
                        continue
                    out.add((r1, L1, degB, degD, kx3, g))
    return out


def solver_E1_C_tuples(sub):
    out = set()
    for rec in solve_E1_C(sub):
        c_ray, e_ray = rec.rays
        assert c_ray.ray_type is sub and e_ray.ray_type is RayType.E1
        out.add(
            (e_ray.r, e_ray.L3, e_ray.degB, c_ray.deg_delta or 0, rec.kx3, rec.genus)
        )
    return out


def test_oracle_E1_C1():
    expected = oracle_E1_C(1)
    assert expected == solver_E1_C_tuples(RayType.C1)
    assert {t[4] for t in expected} == {16, 20, 18, 22, 26}
    assert (4, 1, 7, 5, 16, 5) in expected


def test_oracle_E1_C2():
    expected = oracle_E1_C(2)
    assert expected == solver_E1_C_tuples(RayType.C2)
    assert {t[4] for t in expected} == {38, 46}
    # no index-2 target survives: (B) forces (r1-2) L1 = 2 and (C) pins it
    assert not [t for t in expected if t[0] == 2]


# ---------------------------------------------------------------- E1 + D ---


def oracle_E1_D(mu2):
    """System: blowup ray opposite a del Pezzo fibration of length mu2.

    (A) 12 = mu2 (24/r1 + degB) - d2
    (B) (r1 - mu2) L1 = d2 / mu2^2
    (C) (r1 - mu2)^2 L1 - degB = 0
    """
    out = set()
    for r1 in (2, 3, 4):
        for L1 in L3_BY_INDEX[r1]:
            for degB in range(1, 25):
                for d2 in range(1, 10):
                    if mu2 == 1 and not d2 <= 7:
                        continue
                    if mu2 == 2 and d2 != 8:
                        continue
                    if mu2 == 3 and d2 != 9:
                        continue
                    if 12 != mu2 * (24 // r1 + degB) - d2:
                        continue
                    if (r1 - mu2) * L1 != Fraction(d2, mu2 * mu2):
                        continue
                    if (r1 - mu2) ** 2 * L1 - degB != 0:
                        continue
                    kx3 = mu2**3 * L1 + 3 * mu2**2 * (r1 - mu2) * L1
                    g = genus_or_none(kx3, ky3(r1, L1), r1, degB)
                    if g is None:
                        continue
                    out.add((r1, L1, degB, d2, kx3, g))
    return out


def solver_E1_D_tuples(sub):
    out = set()
    for rec in solve_E1_D(sub):
        d_ray, e_ray = rec.rays
        assert d_ray.ray_type is sub and e_ray.ray_type is RayType.E1
        out.add((e_ray.r, e_ray.L3, e_ray.degB, d_ray.d2, rec.kx3, rec.genus))
    return out


def test_oracle_E1_D1():
    expected = oracle_E1_D(1)
    assert expected == solver_E1_D_tuples(RayType.D1)
    assert {t[4] for t in expected} == {10, 14, 4, 8, 12, 16, 20}
    # the five index-2 records: kx3 = 4 L^3, centre degree = fibre degree = L^3
    for L3 in range(1, 6):
        assert (2, L3, L3, L3, 4 * L3, 1) in expected


def test_oracle_E1_D2():
    expected = oracle_E1_D(2)
    assert expected == solver_E1_D_tuples(RayType.D2)
    assert expected == {(4, 1, 4, 8, 32, 1), (3, 2, 2, 8, 40, 0)}


def test_oracle_E1_D3():
    expected = oracle_E1_D(3)
    assert expected == solver_E1_D_tuples(RayType.D3)
    assert expected == {(4, 1, 1, 9, 54, 0)}


# ---------------------------------------------------------------- E1 + E ---


def oracle_E1_E2_or_E34(mu2):
    """System: blowup ray opposite a second divisorial ray with c2.H = 24/r2.

    (A) 24 = mu2 (24/r1 + degB1) + 24/r2
    (B) (r1 - mu2) L1 = ((r2-1)/mu2)^2 L2
    (C) ((r2-1)/mu2) L2 = (r1 - mu2)^2 L1 - degB1
    """
    out = set()
    for r1 in (2, 3, 4):
        for L1 in L3_BY_INDEX[r1]:
            for degB1 in range(1, 25):
                for r2 in (2, 3, 4):
                    for L2 in range(1, 25):
                        if 24 % r2 != 0:
                            continue
                        if 24 != mu2 * (24 // r1 + degB1) + 24 // r2:
                            continue
                        ratio = Fraction(r2 - 1, mu2)
                        if (r1 - mu2) * L1 != ratio**2 * L2:
                            continue
                        if ratio * L2 != (r1 - mu2) ** 2 * L1 - degB1:
                            continue
                        if ratio * L2 != int(ratio * L2):
                            continue
                        kx3 = (
                            mu2**3 * L1
                            + 3 * mu2**2 * (r1 - mu2) * L1
                            + 3 * (r2 - 1) * L2
                            + L2
                        )
                        g = genus_or_none(kx3, ky3(r1, L1), r1, degB1)
                        if g is None:
                            continue
                        out.add((r1, L1, degB1, r2, L2, kx3, g))
    return out


def oracle_E1_E5():
    """System: blowup ray opposite an E5 ray with c2.H = 45/r2.

    (A) 24 = 24/r1 + degB1 + 45/r2
    (B) (r1 - 1) L1 = (r2/2 - 1)^2 L2
    (C) (r2/2 - 1) L2 = (r1 - 1)^2 L1 - degB1
    """
    out = set()
    for r1 in (2, 3, 4):
        for L1 in L3_BY_INDEX[r1]:
            for degB1 in range(1, 25):
                for r2 in (2, 3, 4):
                    for L2 in range(1, 25):
                        if 45 % r2 != 0:
                            continue
                        if 24 != 24 // r1 + degB1 + 45 // r2:
                            continue
                        half = Fraction(r2, 2) - 1
                        if (r1 - 1) * L1 != half**2 * L2:
                            continue
                        if half * L2 != (r1 - 1) ** 2 * L1 - degB1:
                            continue
                        if half * L2 != int(half * L2):
                            continue
                        kx3 = L1 + 3 * (r1 - 1) * L1 + 3 * int(half * L2) + L2
                        g = genus_or_none(kx3, ky3(r1, L1), r1, degB1)
                        if g is None:
                            continue
                        out.add((r1, L1, degB1, r2, L2, kx3, g))
    return out


def oracle_E1_E1():
    """Symmetric system of two blowup rays, normalized r1 >= r2, degB1 >= degB2.

    (A) 24 = 24/r1 + degB1 + 24/r2 + degB2
    (B) (r1 - 1) L1 = (r2 - 1)^2 L2 - degB2
    (C) (r2 - 1) L2 = (r1 - 1)^2 L1 - degB1
    """
    out = set()
    for r1 in (2, 3, 4):
        for L1 in L3_BY_INDEX[r1]:
            for degB1 in range(1, 25):
                for r2 in (2, 3, 4):
                    for L2 in L3_BY_INDEX[r2]:
                        for degB2 in range(1, 25):
                            if (r1, degB1) < (r2, degB2):
                                continue
                            if 24 != 24 // r1 + degB1 + 24 // r2 + degB2:
                                continue
                            if (r1 - 1) * L1 != (r2 - 1) ** 2 * L2 - degB2:
                                continue
                            if (r2 - 1) * L2 != (r1 - 1) ** 2 * L1 - degB1:
                                continue
                            kx3 = L1 + 3 * (r1 - 1) * L1 + 3 * (r2 - 1) * L2 + L2
                            g1 = genus_or_none(kx3, ky3(r1, L1), r1, degB1)
                            g2 = genus_or_none(kx3, ky3(r2, L2), r2, degB2)
                            if g1 is None or g2 is None:
                                continue
                            out.add((r1, L1, degB1, g1, r2, L2, degB2, g2, kx3))
    return out


def solver_E1_E_tuples(sub):
    out = set()
    for rec in solve_E1_E(sub):
        first, second = rec.rays
        assert first.ray_type is RayType.E1 and second.ray_type is sub
        if sub is RayType.E1:
            out.add(
                (
                    first.r,
                    first.L3,
                    first.degB,
                    first.genus,
                    second.r,
                    second.L3,
                    second.degB,
                    second.genus,
                    rec.kx3,
                )
            )
        else:
            out.add((first.r, first.L3, first.degB, second.r, second.L3, rec.kx3, rec.genus))
    return out


def test_oracle_E1_E2():
    expected = oracle_E1_E2_or_E34(2)
    assert expected == solver_E1_E_tuples(RayType.E2)
    assert expected == {(4, 1, 2, 3, 2, 46, 0)}


def test_oracle_E1_E34():
    expected = oracle_E1_E2_or_E34(1)
    assert expected == solver_E1_E_tuples(RayType.E34)
    assert expected == {(4, 1, 6, 2, 3, 22, 4), (3, 2, 4, 2, 4, 30, 1)}


def test_oracle_E1_E5():
    expected = oracle_E1_E5()
    assert expected == solver_E1_E_tuples(RayType.E5)
    assert expected == {(4, 1, 3, 3, 12, 40, 1)}


def test_oracle_E1_E1():
    expected = oracle_E1_E1()
    assert expected == solver_E1_E_tuples(RayType.E1)
    assert {t[8] for t in expected} == {20, 24, 26, 30, 28, 34}
    assert (4, 1, 6, 3, 4, 1, 6, 3, 20) in expected
    assert (4, 1, 5, 2, 2, 4, 1, 0, 26) in expected


# ------------------------------------------------------- rank-3 C + C + C ---


def oracle_rho3_CCC():
    """d^2 (g - 1) = 24 with 2g - 2 = (-K)^3 and -K = (2/d)(H1 + H2 + H3)."""
    out = set()
    for d in range(1, 25):
        if 24 % (d * d) != 0:
            continue
        if 2 % d != 0:
            continue
        g = 24 // (d * d) + 1
        kx3 = 2 * g - 2
        out.add((d, kx3))
    return out


def test_oracle_rho3_CCC():
    expected = oracle_rho3_CCC()
    assert expected == {(1, 48), (2, 12)}
    computed = set()
    for rec in solve_rho3_CCC():
        d = rec.form.value(1, 2, 3)
        computed.add((d, rec.kx3))
    assert expected == computed


# --------------------------------------------- closed-form C + C and C + D ---


def oracle_C_C():
    """Two conic bundles: degDelta_i = 12 - (4 mu_j + 2 mu_i^2 / mu_j) >= 0,
    subtype consistency, the c2 balance, and cover degrees df | gcd(2/mu2, 2/mu1)."""
    out = set()
    for mu1 in (1, 2):
        for mu2 in (1, 2):
            if mu1 > mu2:
                continue
            d1 = 12 - (4 * mu2 + Fraction(2 * mu1 * mu1, mu2))
            d2 = 12 - (4 * mu1 + Fraction(2 * mu2 * mu2, mu1))
            if d1 != int(d1) or d2 != int(d2):
                continue
            d1, d2 = int(d1), int(d2)
            if not (0 <= d1 <= 12 and 0 <= d2 <= 12):
                continue
            if (mu1 == 1) != (d1 >= 1) or (mu2 == 1) != (d2 >= 1):
                continue
            if 24 != mu2 * (6 + d1) + mu1 * (6 + d2):
                continue
            covers = sum(
                1 for df in (1, 2) if (2 // mu2) % df == 0 and (2 // mu1) % df == 0
            )
            out.add((mu1, mu2, d1, d2, 6 * (mu1**2 + mu2**2), covers))
    return out


def test_oracle_C_C():
    expected = oracle_C_C()
    assert expected == {(1, 1, 6, 6, 12, 2), (1, 2, 3, 0, 30, 1), (2, 2, 0, 0, 48, 1)}
    computed = set()
    for rec in solve_C_C():
        r1, r2 = rec.rays
        computed.add(
            (
                r1.mu,
                r2.mu,
                r1.deg_delta or 0,
                r2.deg_delta or 0,
                rec.kx3,
                len(rec.descriptions),
            )
        )
    assert expected == computed


def oracle_C_D():
    """Conic bundle + del Pezzo fibration: d2 = 2 mu_D^2 / mu_C, fibre-degree
    subtyping, degDelta = 12 - 4 mu_D, subtype consistency, the c2 balance."""
    out = set()
    for mu_c in (1, 2):
        for mu_d in (1, 2, 3):
            for d2 in range(1, 10):
                for degD in range(0, 13):
                    if d2 != Fraction(2 * mu_d * mu_d, mu_c):
                        continue
                    if (mu_d == 1) != (d2 <= 7):
                        continue
                    if (mu_d == 2) != (d2 == 8):
                        continue
                    if degD != 12 - 4 * mu_d:
                        continue
                    if (mu_c == 1) != (degD >= 1):
                        continue
                    if 24 != mu_d * (6 + degD) + mu_c * (12 - d2):
                        continue
                    out.add((mu_c, mu_d, d2, degD, 6 * mu_d * mu_d))
    return out


def test_oracle_C_D():
    expected = oracle_C_D()
    assert expected == {(1, 1, 2, 8, 6), (1, 2, 8, 4, 24), (2, 3, 9, 0, 54)}
    computed = set()
    for rec in solve_C_D():
        c_ray, d_ray = rec.rays
        computed.add(
            (c_ray.mu, d_ray.mu, d_ray.d2, c_ray.deg_delta or 0, rec.kx3)
        )
    assert expected == computed
    # the excluded pairings, independently: no C2+D1, C2+D2, or C1+D3 solution
    assert not [t for t in expected if (t[0], t[1]) in ((2, 1), (2, 2), (1, 3))]


# ---------------------------------------------------- C + E, no E1 (primitive) ---


# Each point contraction: length mu_E, q with m D = r H_E - q (-K), the cube
# (m D)^3, the numerator of c2.H_E = n / r, and the indices r it may have.
POINT_CONTRACTIONS = {
    "E2": (2, 1, 8, 24, (1, 2, 3, 4)),
    "E34": (1, 1, 2, 24, (1, 2, 3, 4)),
    "E5": (1, 2, 4, 45, (1, 3, 5, 9, 15, 45)),
}


def oracle_C_E():
    """Conic bundle (H_C) + point contraction (H_E), -K = mu_E H_C + mu_C H_E.

    With s = r/q: h112 = 2/mu_C and h122 = (s - mu_C) L^3 / mu_E, and
    (A) (-K)^2.H_C = 12 - degDelta
    (B) (-K)^2.H_E = s^2 L^3
    (C) 24 = mu_E (6 + degDelta) + mu_C c2.H_E
    (D) (r H_E - q (-K))^3 = 8 (E2), 2 (E3/E4) or 4 (E5)
    The twist e of an E2 or E5 ray is h122.
    """
    out = set()
    for c_name, mu_c in (("C1", 1), ("C2", 2)):
        for e_name, (mu_e, q, cube, c2_numerator, indices) in POINT_CONTRACTIONS.items():
            for degD in range(0, 13):
                if mu_c == 1 and degD < 1:
                    continue
                if mu_c == 2 and degD != 0:
                    continue
                for r in indices:
                    for L3 in range(1, 25):
                        s = Fraction(r, q)
                        h112 = Fraction(2, mu_c)
                        h122 = (s - mu_c) * L3 / mu_e
                        if 2 * mu_e * mu_c * h112 + mu_c**2 * h122 != 12 - degD:
                            continue
                        if mu_e**2 * h112 + 2 * mu_e * mu_c * h122 + mu_c**2 * L3 != s * s * L3:
                            continue
                        if 24 != mu_e * (6 + degD) + mu_c * Fraction(c2_numerator, r):
                            continue
                        a, b = -q * mu_e, r - q * mu_c
                        if 3 * a * a * b * h112 + 3 * a * b * b * h122 + b**3 * L3 != cube:
                            continue
                        kx3 = 3 * mu_e**2 * mu_c * h112 + 3 * mu_e * mu_c**2 * h122 + mu_c**3 * L3
                        assert kx3 == int(kx3)
                        e = int(h122) if e_name in ("E2", "E5") else None
                        out.add((c_name, degD, e_name, r, L3, e, int(kx3)))
    return out


def test_oracle_C_E_primitive():
    expected = oracle_C_E()
    assert expected == {
        ("C1", 6, "E34", 2, 2, None, 14),
        ("C2", 0, "E2", 4, 1, 1, 56),
        ("C2", 0, "E5", 5, 4, 2, 62),
    }
    computed = set()
    for rec in solve_C_E_primitive():
        c_ray, e_ray = rec.rays
        computed.add(
            (
                c_ray.ray_type.value,
                c_ray.deg_delta or 0,
                e_ray.ray_type.value,
                e_ray.r,
                e_ray.L3,
                e_ray.e,
                rec.kx3,
            )
        )
    assert expected == computed
