"""An intersection-form oracle for every pairing of two ray types at every index.

Mori-Mukai solve each pair of extremal rays in the basis (H1, H2) of the
two pullbacks.  If Z H1 + Z H2 has index a in Pic(X), then
L = -aK = mu2 H1 + mu1 H2, and the facts of :data:`TYPE_FACTS` (H^3 = C,
(-K).H^2 = A, (-K)^2.H = B, each affine in the side's unknown u, in
quarters) fill the form:

  h111 = C1,  h112 = (a A1 - mu2 C1) / mu1,
  h122 = (a A2 - mu1 C2) / mu2,  h222 = C2,

and leave linear rows in (u1, u2):

  L^2 . H_i = a^2 B_i,  and for a point contraction (q, w) of index r,
  (a r H_i - q L)^3 = a^3 w.

Then (-K)^3 = (mu2 B1 + mu1 B2) / a.  The solve below reads nothing but
:data:`TYPE_FACTS` and eliminates in ``Fraction`` s by Cramer's rule, so it
shares no code with the engine; the engine is read only to compare the
index-1 solutions with its records.  A solution has integer unknowns in the
type domains, integral form entries and a positive even (-K)^3.  At every
index above 1 each solution fails the 24-balance, so the engine's 24
pairings at index 1 are a shortcut this file proves.  On fact tables with
one fact moved the two agree as well, except where the engine raises in a
mode that ``ENGINE_REFUSALS`` names.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd

import pytest
from test_engine import RECORD_SIDE_PAIRS

from fanoenum import enumerator
from fanoenum.errors import ConstraintError, InconsistencyError, ParityError
from fanoenum.ray_constraints import TYPE_FACTS, RayType, _value_set

PAIRINGS = tuple(combinations_with_replacement(RayType, 2))
TOP_INDEX = 8


def _affine(fact, slot):
    """A fact (constant, slope) in quarters as c + k1 u1 + k2 u2."""
    c, k = Fraction(fact[0], 4), Fraction(fact[1], 4)
    return (c, k, Fraction(0)) if slot == 1 else (c, Fraction(0), k)


def _sum(*terms):
    """The affine function sum of x * f over the (x, f) given."""
    return tuple(sum(x * f[n] for x, f in terms) for n in range(3))


def _at(f, u1, u2):
    return f[0] + f[1] * u1 + f[2] * u2


def _cramer(rows):
    """The one (u1, u2) on every row c + k1 u1 + k2 u2 = 0, or None.

    Rows without two independent ones are consistent only if each is a
    multiple of one nonzero row, and then they leave an unknown free.
    """
    pairs = list(combinations(rows, 2))
    for (c, k1, k2), (d, l1, l2) in pairs:
        det = k1 * l2 - k2 * l1
        if det:
            u1, u2 = (k2 * d - l2 * c) / det, (l1 * c - k1 * d) / det
            return (u1, u2) if all(_at(row, u1, u2) == 0 for row in rows) else None
    if any(c and not (k1 or k2) for c, k1, k2 in rows) or any(
        c * l1 != d * k1 or c * l2 != d * k2 for (c, k1, k2), (d, l1, l2) in pairs
    ):
        return None
    raise AssertionError("a system leaves an unknown free")


def _in_domain(facts, u):
    return u.denominator == 1 and facts.admits(u)


def _oracle_solve(type1, i, type2, j, a):
    """The solution of one side pair at index a: form entries, (-K)^3, u1, u2."""
    facts1, facts2 = TYPE_FACTS[type1], TYPE_FACTS[type2]
    mu1, mu2 = facts1.mu, facts2.mu
    C1, A1, B1, _ = (_affine(f, 1) for f in facts1.sides[i][1])
    C2, A2, B2, _ = (_affine(f, 2) for f in facts2.sides[j][1])
    h111 = C1
    h112 = _sum((Fraction(a, mu1), A1), (Fraction(-mu2, mu1), C1))
    h122 = _sum((Fraction(a, mu2), A2), (Fraction(-mu1, mu2), C2))
    h222 = C2

    def cube(x, y):
        return _sum((x**3, h111), (3 * x * x * y, h112), (3 * x * y * y, h122), (y**3, h222))

    rows = [
        _sum((mu2 * mu2, h111), (2 * mu2 * mu1, h112), (mu1 * mu1, h122), (-a * a, B1)),
        _sum((mu2 * mu2, h112), (2 * mu2 * mu1, h122), (mu1 * mu1, h222), (-a * a, B2)),
    ]
    for facts, (fixed, _), vector in (
        (facts1, facts1.sides[i], lambda ar, q: (ar - q * mu2, -q * mu1)),
        (facts2, facts2.sides[j], lambda ar, q: (-q * mu2, ar - q * mu1)),
    ):
        if facts.contracted:
            q, w = facts.contracted
            row = cube(*vector(a * dict(fixed)["r"], q))
            rows.append((row[0] - a**3 * w, row[1], row[2]))
    solution = _cramer(rows)
    if solution is None:
        return None
    u1, u2 = solution
    if not (_in_domain(facts1, u1) and _in_domain(facts2, u2)):
        return None
    entries = tuple(_at(h, u1, u2) for h in (h111, h112, h122, h222))
    kx3 = (mu2 * _at(B1, u1, u2) + mu1 * _at(B2, u1, u2)) / a
    if any(h.denominator != 1 for h in entries + (kx3,)) or kx3 <= 0 or kx3 % 2:
        return None
    return tuple(map(int, entries)), int(kx3), int(u1), int(u2)


def _side_pairs(type1, type2):
    """The side indices (i, j) of a pairing, each unordered pair once for one type."""
    n1, n2 = len(TYPE_FACTS[type1].sides), len(TYPE_FACTS[type2].sides)
    return [(i, j) for i in range(n1) for j in range(i + 1 if type1 is type2 else n2)]


# (type1, i, type2, j, a) -> the solution, over every pairing, side pair and index
SOLUTIONS = {
    (type1, i, type2, j, a): solution
    for type1, type2 in PAIRINGS
    for i, j in _side_pairs(type1, type2)
    for a in range(1, TOP_INDEX + 1)
    if (solution := _oracle_solve(type1, i, type2, j, a)) is not None
}

# The solutions above index 1, by pairing, side indices and index.
LARGER_INDEX_SOLUTIONS = {
    ("D2", 0, "E1", 3, 2), ("D2", 0, "E1", 5, 2),
    ("D3", 0, "E1", 2, 3), ("D3", 0, "E1", 6, 3),
    ("E1", 3, "E1", 3, 2), ("E1", 4, "E1", 2, 2), ("E1", 5, "E1", 5, 2),
    ("E1", 4, "E5", 0, 5),
}


def _key(type1, i, type2, j, a):
    return type1.value, i, type2.value, j, a


def c2_values(type1, i, type2, j, a):
    """(c2.H1, c2.H2) of a solution of :data:`SOLUTIONS`: each side's fact at its unknown."""
    *_, u1, u2 = SOLUTIONS[type1, i, type2, j, a]
    (c1, k1), (c2, k2) = TYPE_FACTS[type1].sides[i][1][3], TYPE_FACTS[type2].sides[j][1][3]
    return Fraction(c1 + k1 * u1, 4), Fraction(c2 + k2 * u2, 4)


def balances(type1, i, type2, j, a):
    """Whether a solution of :data:`SOLUTIONS` meets the 24-balance at its index.

    -K . c2 = 24 with -aK = mu2 H1 + mu1 H2 reads 24 a = mu2 c2.H1 + mu1 c2.H2.
    """
    c2_h1, c2_h2 = c2_values(type1, i, type2, j, a)
    return 24 * a == TYPE_FACTS[type2].mu * c2_h1 + TYPE_FACTS[type1].mu * c2_h2


def test_the_oracle_visits_every_side_pair_the_engine_does():
    assert len(PAIRINGS) == 45
    assert sum(len(_side_pairs(*pair)) for pair in PAIRINGS) == 351


def test_at_index_one_the_oracle_finds_the_engine_records():
    engine = {}
    for type1, type2 in PAIRINGS:
        for i, j in _side_pairs(type1, type2):
            side1, side2 = enumerator._SIDES[type1][i], enumerator._SIDES[type2][j]
            record = enumerator._solve_sides(side1, side2)
            if type(record) is enumerator.SolutionRecord:
                engine[type1.value, i, type2.value, j] = record.form.values, record.kx3
    oracle = {
        _key(*key)[:4]: solution[:2] for key, solution in SOLUTIONS.items() if key[4] == 1
    }
    assert oracle == engine
    assert set(oracle) == set(RECORD_SIDE_PAIRS)


def test_above_index_one_there_are_eight_solutions_and_the_balance_rejects_each():
    larger = [key for key in SOLUTIONS if key[4] > 1]
    assert {_key(*key) for key in larger} == LARGER_INDEX_SOLUTIONS
    assert len(larger) == 8
    for key in larger:
        assert not balances(*key)
    # the four D+E1 solutions fail primitivity as well
    del_pezzo_first = [key for key in larger if TYPE_FACTS[key[0]].family == "D"]
    assert len(del_pezzo_first) == 4
    for type1, _, type2, _, a in del_pezzo_first:
        assert gcd(a, TYPE_FACTS[type1].mu) != gcd(a, TYPE_FACTS[type2].mu)


def test_the_sweep_reaches_every_index_the_balance_admits():
    # the balance bounds the index by (mu2 M1 + mu1 M2) / 24, M the largest c2
    # value; the E1 cap (r - mu/a)^2 L^3 on deg B grows as mu/a falls to 0, so
    # the value sets at mu = 0 hold those at every index
    bounds = {
        (type1, type2): (
            TYPE_FACTS[type2].mu * max(_value_set(type1, 0))
            + TYPE_FACTS[type1].mu * max(_value_set(type2, 0))
        ) // 24
        for type1 in RayType
        for type2 in RayType
    }
    assert max(bounds.values()) == bounds[RayType.D3, RayType.E5] == 5 <= TOP_INDEX


def test_only_the_record_pairings_have_a_solution_at_any_index():
    solved = {(type1, type2) for type1, _, type2, _, _ in SOLUTIONS}
    recorded = {(RayType(t1), RayType(t2)) for t1, _, t2, _ in RECORD_SIDE_PAIRS}
    assert solved == recorded and len(solved) == 18
    empty = set(PAIRINGS) - solved
    assert len(empty) == 27
    engine_pairings = set(enumerator._RANK2_PAIRINGS)
    assert len(empty - engine_pairings) == 21
    assert {f"{t1.value}+{t2.value}" for t1, t2 in empty & engine_pairings} == {
        "C2+D2", "C2+E34", "C1+D3", "C2+D1", "C1+E2", "C1+E5",
    }


# A mutant fact table moves one fact of one side, H^3, (-K).H^2 or (-K)^2.H
# (fact 0, 1, 2), in its constant or slope (part 0 or 1), by 4 quarters.
MUTANTS = [
    (ray_type, index, fact, part, quarters)
    for ray_type in RayType
    for index in range(len(TYPE_FACTS[ray_type].sides))
    for fact in range(3)
    for part in (0, 1)
    for quarters in (-4, 4)
]
# Every point-type fact has a zero constant, so only a moved constant gives
# a point side's cube term M one: these two, on the E3/E4 side r = 2, do.
SAMPLED_MUTANTS = random.Random(19).sample(MUTANTS, 20) + [
    (RayType.E34, 1, 0, 0, -4), (RayType.E34, 1, 2, 0, 4)
]
# Where the engine may raise on a mutant side pair, by type and message:
# what the constructors check and the two ways the system itself fails.
ENGINE_REFUSALS = (
    (ParityError, "must be even"),
    (ConstraintError, "genus computed as"),
    (ConstraintError, "the twist of an"),
    (ConstraintError, "must lie in (0, 64]"),
    (InconsistencyError, "leave an unknown free"),
    (InconsistencyError, "fractional form entry"),
)


@pytest.mark.parametrize(
    "ray_type,index,fact,part,quarters",
    SAMPLED_MUTANTS,
    ids=[f"{t.value}-{i}-fact{f}-part{p}-{q:+d}" for t, i, f, p, q in SAMPLED_MUTANTS],
)
def test_the_engine_and_the_oracle_agree_on_a_mutant_fact_table(
    ray_type, index, fact, part, quarters, monkeypatch
):
    facts = TYPE_FACTS[ray_type]
    sides = list(facts.sides)
    fixed, moved = sides[index]
    moved = [list(pair) for pair in moved]
    moved[fact][part] += quarters
    sides[index] = (fixed, tuple(map(tuple, moved)))
    monkeypatch.setitem(TYPE_FACTS, ray_type, facts._replace(sides=tuple(sides)))
    monkeypatch.setitem(enumerator._SIDES, ray_type, enumerator._compile(ray_type))
    for type1, type2 in PAIRINGS:
        if ray_type not in (type1, type2):
            continue
        for i, j in _side_pairs(type1, type2):
            side1, side2 = enumerator._SIDES[type1][i], enumerator._SIDES[type2][j]
            try:
                record = enumerator._solve_sides(side1, side2)
            except (ParityError, ConstraintError, InconsistencyError) as exc:
                assert any(
                    type(exc) is kind and message in str(exc)
                    for kind, message in ENGINE_REFUSALS
                ), exc
                continue
            solution = _oracle_solve(type1, i, type2, j, 1)
            engine = (
                (record.form.values, record.kx3)
                if type(record) is enumerator.SolutionRecord else None
            )
            assert engine == (solution and solution[:2]), _key(type1, i, type2, j, 1)
