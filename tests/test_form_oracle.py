"""A form-first oracle for rank 2: search intersection forms, then match facts.

Every other check that finds records solves the rows of a side pair for its
unknowns.  This one runs the other way round and solves nothing.  H1 and H2
are nef, so each entry of the form is a product of nef classes and is >= 0
(Lazarsfeld, *Positivity* I, 1.4).  -K = n1 H1 + n2 H2 with n1 = mu2 and
n2 = mu1, and

  (-K)^3 = n1^3 h111 + 3 n1^2 n2 h112 + 3 n1 n2^2 h122 + n2^3 h222

is a sum of non-negative terms, even, and at most 64 (Iskovskikh-Prokhorov).
That leaves a finite simplex of forms for each of the nine pairs of lengths,
and no other bound.  On each form the search evaluates (H_i^3, (-K).H_i^2,
(-K)^2.H_i) for both pullbacks and matches each triple against every side
of every type of that length in :data:`TYPE_FACTS`: the one fact with a
nonzero slope gives the unknown u, the other two and the type's domain must
hold, and for a divisor contracted to a point (r H - q(-K))^3 = w.  A pair
of matches in canonical type order is a record.  The genus of a blowup
centre comes from the blowup formula, and the twist e of an E2 or E5 ray
opposite a conic bundle is h122 (X is P(O + O(e)) over P^2).

``TYPE_FACTS`` is read as input data only.  The engine is read only to get
the records the search is compared with: ``_solve_sides`` over every ordered
side pair of all 45 pairings.  A pairing of a type with itself then gives
each record of two different sides twice, once in each order.  The mutation
it is written to kill: the sign of the M term of every compiled side, which
the fact oracle cannot see.
"""

from functools import cache
from itertools import combinations_with_replacement, product

import pytest
from test_engine import RECORD_SIDE_PAIRS

from fanoenum import enumerator
from fanoenum.ray_constraints import TYPE_FACTS, RaySpec, RayType

MAX_CUBE = 64  # (-K)^3 of a smooth Fano threefold, at most that of P^3
ORDER = {ray_type: index for index, ray_type in enumerate(RayType)}
TWISTED = (RayType.E2, RayType.E5)


def _sides_of_length(mu):
    """Every side of length mu, with what matching it needs.

    That is its type and index, the fields it fixes, its facts H^3,
    (-K).H^2 and (-K)^2.H, which of them has a nonzero slope, and the
    (q, w) of a divisor it contracts to a point.
    """
    return [
        (ray_type, index, dict(fixed), facts[:3],
         next(n for n, (_, slope) in enumerate(facts) if slope), type_facts.contracted)
        for ray_type, type_facts in TYPE_FACTS.items()
        if type_facts.mu == mu
        for index, (fixed, facts) in enumerate(type_facts.sides)
    ]


def _matches(sides, values):
    """The sides whose three facts, in quarters, take these values, with their u.

    The fact with a nonzero slope gives u; the other two and the domain check it.
    """
    found = []
    for ray_type, index, fixed, facts, at, contracted in sides:
        constant, slope = facts[at]
        u, remainder = divmod(4 * values[at] - constant, slope)
        type_facts = TYPE_FACTS[ray_type]
        if (
            remainder
            or u < type_facts.low
            or (type_facts.high is not None and u > type_facts.high)
            or any(4 * v != c + k * u for (c, k), v in zip(facts, values))
        ):
            continue
        found.append((ray_type, index, fixed, u, contracted))
    return found


def _contracts_to_its_point(match, cube, minus_k_h2, minus_k2_h, kx3):
    """Whether (r H - q(-K))^3 = w for a side that contracts a divisor to a point."""
    _, _, fixed, _, contracted = match
    if contracted is None:
        return True
    q, w = contracted
    r = fixed["r"]
    expansion = r**3 * cube - 3 * r * r * q * minus_k_h2 + 3 * r * q * q * minus_k2_h - q**3 * kx3
    return expansion == w


def _ray(match, kx3, e):
    """The RaySpec fields of a matched side, as a plain tuple."""
    ray_type, _, fixed, u, _ = match
    fields = dict.fromkeys(RaySpec._fields)
    fields.update(fixed, ray_type=ray_type, e=e)
    fields[TYPE_FACTS[ray_type].unknown] = u
    if ray_type is RayType.E1:  # g = (-K)^3/2 - (-K_Y)^3/2 + r deg B + 1
        r, L3, degB = fields["r"], fields["L3"], fields["degB"]
        fields["genus"] = kx3 // 2 - r**3 * L3 // 2 + r * degB + 1
    return tuple(fields.values())


@cache
def form_search():
    """The number of forms visited, and (side pair, record) for every record found.

    A side pair is (type1, i, type2, j), and a record is (rays, the four form
    entries, -K, (-K)^3), with each ray a tuple of RaySpec fields.
    """
    visited, found = 0, []
    for mu1, mu2 in product((1, 2, 3), repeat=2):
        sides1, sides2 = _sides_of_length(mu1), _sides_of_length(mu2)
        n1, n2 = mu2, mu1
        w111, w112, w122, w222 = n1**3, 3 * n1 * n1 * n2, 3 * n1 * n2 * n2, n2**3
        for h111 in range(MAX_CUBE // w111 + 1):
            for h112 in range((MAX_CUBE - w111 * h111) // w112 + 1):
                for h122 in range((MAX_CUBE - w111 * h111 - w112 * h112) // w122 + 1):
                    partial = w111 * h111 + w112 * h112 + w122 * h122
                    facts1 = (
                        h111,
                        n1 * h111 + n2 * h112,
                        n1 * n1 * h111 + 2 * n1 * n2 * h112 + n2 * n2 * h122,
                    )
                    matches1 = _matches(sides1, facts1)
                    for h222 in range((MAX_CUBE - partial) // w222 + 1):
                        kx3 = partial + w222 * h222
                        if kx3 == 0 or kx3 % 2:
                            continue
                        visited += 1
                        if not matches1:
                            continue
                        facts2 = (
                            h222,
                            n1 * h122 + n2 * h222,
                            n1 * n1 * h112 + 2 * n1 * n2 * h122 + n2 * n2 * h222,
                        )
                        for match1, match2 in product(matches1, _matches(sides2, facts2)):
                            (type1, i, *_), (type2, j, *_) = match1, match2
                            if ORDER[type1] > ORDER[type2] or not (
                                _contracts_to_its_point(match1, *facts1, kx3)
                                and _contracts_to_its_point(match2, *facts2, kx3)
                            ):
                                continue
                            conic = TYPE_FACTS[type1].family == "C"
                            e = h122 if conic and type2 in TWISTED else None
                            rays = (_ray(match1, kx3, None), _ray(match2, kx3, e))
                            record = (rays, (h111, h112, h122, h222), (n1, n2), kx3)
                            found.append(((type1.value, i, type2.value, j), record))
    return visited, tuple(found)


def _engine_records():
    """``_solve_sides`` over every ordered side pair of all 45 pairings, by side pair."""
    records = {}
    for type1, type2 in combinations_with_replacement(RayType, 2):
        for (i, side1), (j, side2) in product(
            enumerate(enumerator._SIDES[type1]), enumerate(enumerator._SIDES[type2])
        ):
            record = enumerator._solve_sides(side1, side2)
            if record is not None:
                entries = record.form.entries
                form = tuple(entries[key] for key in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)))
                records[type1.value, i, type2.value, j] = (
                    tuple(map(tuple, record.rays)), form, record.minus_k.coords, record.kx3,
                )
    return records


def disagreements():
    """The side pairs whose record the engine and the search do not agree on."""
    engine, search = _engine_records(), dict(form_search()[1])
    return {key for key in engine.keys() | search.keys() if engine.get(key) != search.get(key)}


def test_the_form_search_visits_a_fixed_simplex_and_finds_forty_records():
    visited, found = form_search()
    assert visited == 55750
    assert len(found) == 40
    search = dict(found)
    # the 36 families, each from the side pair the engine visits
    visits = {key for key in search if key[0] != key[2] or key[1] >= key[3]}
    assert visits == set(RECORD_SIDE_PAIRS)
    # and 4 mirrors: the other order of two different sides of one type
    for type1, i, type2, j in search.keys() - visits:
        rays, (h111, h112, h122, h222), (n1, n2), kx3 = search[type1, i, type2, j]
        mirror = (rays[::-1], (h222, h122, h112, h111), (n2, n1), kx3)
        assert search[type2, j, type1, i] == mirror


def _negate_m(side):
    """The side with the sign of M, its part of the D^3 row, flipped."""
    return side._replace(terms={
        n: (*terms[:4], tuple(-x for x in terms[4])) for n, terms in side.terms.items()
    })


@pytest.mark.parametrize(
    "mutant,changed",
    [(None, 0), (_negate_m, 7)],
    ids=["engine", "M-term sign"],
)
def test_the_engine_finds_what_the_form_search_finds(monkeypatch, mutant, changed):
    if mutant is not None:
        mutated = {t: tuple(map(mutant, sides)) for t, sides in enumerator._SIDES.items()}
        monkeypatch.setattr(enumerator, "_SIDES", mutated)
    assert len(disagreements()) == changed
