"""Per-case solvers and the assembled classification tables."""

from collections import namedtuple

import pytest

from fanoenum import enumerator
from fanoenum.enumerator import (
    SolutionRecord,
    enumerate_all,
    solve_C_C,
    solve_C_D,
    solve_C_E_primitive,
    solve_E1_C,
    solve_E1_D,
    solve_E1_E,
    solve_rho3_CCC,
    solve_rho3_CE,
)
from fanoenum.errors import (
    ConstraintError,
    InconsistencyError,
    ParityError,
    UnsupportedScopeError,
)
from fanoenum.picard_lattice import (
    DivisorClass,
    TrilinearForm,
    anticanonical_class,
    triple_product,
)
from fanoenum.ray_constraints import (
    TYPE_FACTS,
    RaySpec,
    RayType,
    balance_check,
    c2_dot_H,
)
from fanoenum.table_oracle import emit, label, record_to_row

FULL_CUBE_MULTISET = [
    4, 6, 8, 10, 12, 12, 14, 14, 16, 16, 18, 20, 20, 20, 22, 22, 24, 24,
    26, 26, 28, 30, 30, 30, 32, 34, 38, 40, 40, 46, 46, 48, 54, 54, 56, 62,
]


def _unknown_field_error():
    """What a plain named tuple's ``_replace`` raises for a field it lacks.

    ValueError before CPython 3.13, TypeError since.  The package's named
    tuples inherit ``_replace``, so theirs must raise the same.
    """
    try:
        namedtuple("Plain", "field")(0)._replace(other=0)
    except Exception as exc:
        return type(exc)
    raise AssertionError("a named tuple took a field it lacks")


UNKNOWN_FIELD_ERROR = _unknown_field_error()


def _ids(records):
    """The table ids the active ground truth labels ``records`` with."""
    return [row.table_id for row in label(records)]


def _by_id(records):
    return dict(zip(_ids(records), records))


@pytest.mark.parametrize(
    "solver,sub,count,cubes",
    [
        (solve_E1_C, RayType.C1, 5, {16, 18, 20, 22, 26}),
        (solve_E1_C, RayType.C2, 2, {38, 46}),
        (solve_E1_D, RayType.D1, 7, {4, 8, 10, 12, 14, 16, 20}),
        (solve_E1_D, RayType.D2, 2, {32, 40}),
        (solve_E1_D, RayType.D3, 1, {54}),
        (solve_E1_E, RayType.E1, 6, {20, 24, 26, 28, 30, 34}),
        (solve_E1_E, RayType.E2, 1, {46}),
        (solve_E1_E, RayType.E34, 2, {22, 30}),
        (solve_E1_E, RayType.E5, 1, {40}),
    ],
)
def test_blowup_solver_solution_sets(solver, sub, count, cubes):
    records = solver(sub)
    assert len(records) == count
    assert {rec.kx3 for rec in records} == cubes


def test_E1_C2_excludes_index_two():
    # (B) forces (r-2)L^3 = 2 with deg-delta = 0, impossible for r = 2
    assert all(rec.rays[1].r in (3, 4) for rec in solve_E1_C(RayType.C2))


def test_E1_C1_case_data():
    cases = {
        (rec.rays[1].r, rec.rays[1].degB, rec.rays[1].genus, rec.rays[0].deg_delta)
        for rec in solve_E1_C(RayType.C1)
    }
    assert cases == {(4, 7, 5, 5), (3, 6, 2, 4), (2, 1, 0, 5), (2, 2, 0, 4), (2, 3, 0, 3)}


def test_del_pezzo_centers_are_elliptic():
    # blowups of the five V_d along an elliptic curve of degree L^3
    for rec in solve_E1_D(RayType.D1):
        e_ray = rec.rays[1]
        if e_ray.r == 2:
            assert e_ray.genus == 1
            assert e_ray.degB == e_ray.L3
            assert rec.kx3 == 4 * e_ray.L3


def test_cubic_fibration_row():
    (rec,) = solve_E1_D(RayType.D3)
    assert _ids([rec]) == ["2-33"]
    assert rec.kx3 == 54
    assert rec.rays[0].d2 == 9
    assert (rec.rays[1].r, rec.rays[1].degB, rec.rays[1].genus) == (4, 1, 0)


def test_conic_bundle_pairs():
    records = solve_C_C()
    assert set(_ids(records)) == {"2-6", "2-24", "2-32"}
    assert {rec.kx3 for rec in records} == {12, 30, 48}
    by_id = _by_id(records)
    assert by_id["2-6"].rays[0].deg_delta == 6
    assert len(by_id["2-6"].descriptions) == 2
    assert by_id["2-32"].rays[0].deg_delta == 0


def test_wild_characteristic_note_is_unique_to_the_mixed_pair():
    noted = [rec for rec in enumerate_all(2) if rec.char_note is not None]
    assert _ids(noted) == ["2-24"]
    assert noted[0].char_note == "wild conic bundle possible only in characteristic 2"


def test_conic_del_pezzo_pairs():
    records = solve_C_D()
    assert set(_ids(records)) == {"2-2", "2-18", "2-34"}
    pairs = {tuple(ray.ray_type for ray in rec.rays) for rec in records}
    # (C2, D1), (C2, D2) and (C1, D3) each leave a (-K)^2.H row with no
    # unknown and a nonzero constant
    assert pairs == {
        (RayType.C1, RayType.D1),
        (RayType.C1, RayType.D2),
        (RayType.C2, RayType.D3),
    }


def test_primitive_bundle_pairs():
    records = solve_C_E_primitive()
    assert set(_ids(records)) == {"2-8", "2-35", "2-36"}
    pairs = {tuple(ray.ray_type for ray in rec.rays) for rec in records}
    assert pairs == {
        (RayType.C1, RayType.E34),
        (RayType.C2, RayType.E2),
        (RayType.C2, RayType.E5),
    }


def test_rank3_conic_bundles():
    records = solve_rho3_CCC()
    assert set(_ids(records)) == {"3-1", "3-27"}
    for rec in records:
        d = rec.form.values[4]  # H1.H2.H3
        assert rec.kx3 * d * d == 48
        assert all(ray.delta_bidegree == rec.rays[0].delta_bidegree for ray in rec.rays)
    by_id = _by_id(records)
    assert by_id["3-1"].rays[0].delta_bidegree == (4, 4)
    assert by_id["3-27"].rays[0].delta_bidegree == (0, 0)


def test_rank3_bundle_rows():
    by_id = _by_id(solve_rho3_CE())
    assert set(by_id) == {"3-2", "3-31"}
    assert by_id["3-2"].kx3 == 14
    assert by_id["3-31"].kx3 == 52
    assert by_id["3-2"].minus_k.coords == (1, 2, 1)
    assert by_id["3-31"].minus_k.coords == (2, 1, 1)


def test_full_rank2_table():
    records = enumerate_all(2)
    assert _ids(records) == ["2-%d" % i for i in range(1, 37)]
    assert sorted(rec.kx3 for rec in records) == FULL_CUBE_MULTISET
    assert [rec.kx3 for rec in records] == sorted(rec.kx3 for rec in records)


def test_primitive_rank2_table():
    records = enumerate_all(2, primitive_only=True)
    assert _ids(records) == [
        "2-2", "2-6", "2-8", "2-18", "2-24", "2-32", "2-34", "2-35", "2-36",
    ]
    assert not any(spec.ray_type is RayType.E1 for rec in records for spec in rec.rays)


def test_primitive_rank3_table():
    records = enumerate_all(3, primitive_only=True)
    assert _ids(records) == ["3-1", "3-2", "3-27", "3-31"]
    assert [rec.kx3 for rec in records] == [12, 14, 48, 52]


ENUMERATE_CALLS = ((2, False), (2, True), (3, True))

# Every solver entry point, with each sub-type it takes.
SOLVER_CALLS = [
    *((solve_E1_C, (sub,)) for sub in (RayType.C1, RayType.C2)),
    *((solve_E1_D, (sub,)) for sub in (RayType.D1, RayType.D2, RayType.D3)),
    *((solve_E1_E, (sub,)) for sub in (RayType.E1, RayType.E2, RayType.E34, RayType.E5)),
    *((solver, ()) for solver in (solve_C_C, solve_C_D, solve_C_E_primitive)),
    (solve_rho3_CCC, ()),
    (solve_rho3_CE, ()),
    *((enumerate_all, call) for call in ENUMERATE_CALLS),
]


def test_the_solvers_need_no_ground_truth(tmp_path, monkeypatch):
    packaged = [solver(*args) for solver, args in SOLVER_CALLS]
    monkeypatch.setenv("FANO_GROUND_TRUTH", str(tmp_path / "missing.json"))
    assert [solver(*args) for solver, args in SOLVER_CALLS] == packaged
    # no two records of a call tie, so the order never falls back on the solvers'
    for call in ENUMERATE_CALLS:
        keys = [enumerator._classification_order(rec) for rec in enumerate_all(*call)]
        assert keys == sorted(set(keys))


# The rank-2 case solvers, and of them the three without an E1 ray.
RANK2_CALLS = [
    call for call in SOLVER_CALLS if call[0].__name__.startswith(("solve_E1", "solve_C"))
]
PRIMITIVE_CALLS = [call for call in RANK2_CALLS if call[0].__name__.startswith("solve_C")]


def test_the_rank2_solvers_split_the_pairings_enumerate_all_solves(monkeypatch):
    found = {call: call[0](*call[1]) for call in RANK2_CALLS}
    selected = {}
    for call in RANK2_CALLS:
        monkeypatch.setattr(
            enumerator, "_solve", lambda pairings: selected.setdefault(call, pairings)
        )
        call[0](*call[1])
    monkeypatch.undo()
    assert len(RANK2_CALLS) == 12 and len(PRIMITIVE_CALLS) == 3
    for calls, pairings, primitive_only in (
        (RANK2_CALLS, enumerator._RANK2_PAIRINGS, False),
        (PRIMITIVE_CALLS, enumerator._PRIMITIVE_PAIRINGS, True),
    ):
        chosen = [pair for call in calls for pair in selected[call]]
        assert len(chosen) == len(set(chosen)) and set(chosen) == set(pairings)
        records = [record for call in calls for record in found[call]]
        assert enumerate_all(2, primitive_only) == tuple(
            sorted(records, key=enumerator._classification_order)
        )


def test_enumeration_scope():
    with pytest.raises(UnsupportedScopeError):
        enumerate_all(3)
    with pytest.raises(UnsupportedScopeError):
        enumerate_all(1, primitive_only=True)
    with pytest.raises(UnsupportedScopeError):
        enumerate_all(4)
    with pytest.raises(ConstraintError, match="expected one of C1, C2, got D1"):
        solve_E1_C(RayType.D1)
    # a non-member, even one that spells a member's tag
    with pytest.raises(ConstraintError, match="expected one of C1, C2, got 'C1'"):
        solve_E1_C("C1")
    with pytest.raises(ConstraintError, match="expected one of D1, D2, D3, got None"):
        solve_E1_D(None)
    with pytest.raises(ConstraintError, match="expected one of E1, E2, E34, E5, got 'E2'"):
        solve_E1_E("E2")


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((2.0,), UnsupportedScopeError, "no enumeration for Picard rank 2.0"),
        (("2",), UnsupportedScopeError, "no enumeration for Picard rank '2'"),
        ((True,), UnsupportedScopeError, "no enumeration for Picard rank True"),
        ((2, "no"), ConstraintError, "primitive_only must be a bool, got 'no'"),
        ((2, 1), ConstraintError, "primitive_only must be a bool, got 1"),
        ((3, None), ConstraintError, "primitive_only must be a bool, got None"),
    ],
)
def test_enumeration_takes_an_int_rank_and_a_bool_flag(args, error, message):
    with pytest.raises(error) as caught:
        enumerate_all(*args)
    assert str(caught.value) == message


def all_records():
    return list(enumerate_all(2)) + list(enumerate_all(3, primitive_only=True))


def test_descriptions_memo_gives_the_texts_of_each_records_own_rays():
    uncached = enumerator._descriptions.__wrapped__
    assert type(enumerator._descriptions.cache_info().maxsize) is int
    e1_records = 0
    for record in all_records():
        rho, types = record.form.rho, tuple(spec.ray_type for spec in record.rays)
        texts = enumerator._TEXTS.get((rho, types))
        assert record.descriptions == (texts or uncached(rho, record.rays))
        if texts is not None or RayType.E1 not in types:
            continue
        e1_records += 1
        # read after the record's own texts are memoized: a memo hit must
        # not hand the rebuilt record the texts of the original
        for field in ("genus", "degB"):
            rays = tuple(
                spec._replace(**{field: getattr(spec, field) + 1})
                if spec.ray_type is RayType.E1 else spec
                for spec in record.rays
            )
            rebuilt = record._replace(rays=rays)
            assert rebuilt.descriptions == uncached(rho, rays) != record.descriptions
    assert e1_records == 27


def test_rays_are_canonically_ordered():
    for rec in all_records():
        orders = [list(RayType).index(ray.ray_type) for ray in rec.rays]
        assert orders == sorted(orders), record_to_row(rec).table_id


def test_anticanonical_class_convention():
    for rec in enumerate_all(2):
        mu1, mu2 = (TYPE_FACTS[ray.ray_type].mu for ray in rec.rays)
        assert rec.minus_k == anticanonical_class(mu1, mu2)
        assert rec.minus_k.coords == (mu2, mu1)


def test_cube_recomputes_from_the_form():
    for rec in all_records():
        mk = rec.minus_k
        assert triple_product(rec.form, mk, mk, mk) == rec.kx3


def test_c2_balance_over_the_full_table():
    for rec in enumerate_all(2):
        first, second = rec.rays
        assert balance_check(
            TYPE_FACTS[first.ray_type].mu, TYPE_FACTS[second.ray_type].mu,
            c2_dot_H(first), c2_dot_H(second),
        ), record_to_row(rec).table_id


def test_blowup_centers_respect_degree_bound():
    for rec in enumerate_all(2):
        mus = [TYPE_FACTS[ray.ray_type].mu for ray in rec.rays]
        for i, ray in enumerate(rec.rays):
            if ray.ray_type is RayType.E1:
                bound = (ray.r - mus[1 - i]) ** 2 * ray.L3  # at index 1
                assert ray.degB <= bound, record_to_row(rec).table_id


def test_records_are_hashable():
    assert len(set(enumerate_all(2))) == 36


def test_an_engine_records_form_cannot_be_changed_in_place():
    # enumerate_all hands out the same records on every call: a form whose
    # values could be changed would change its cube and hash
    for call, cube in (((3, True), 12), ((2,), 4)):
        record = enumerate_all(*call)[0]
        with pytest.raises(AttributeError, match="cannot assign"):
            record.form.values = record.form.values
        with pytest.raises(TypeError):
            record.form.values[0] = record.form.values[0]
        again = enumerate_all(*call)[0]
        assert triple_product(again.form, *(again.minus_k,) * 3) == again.kx3 == cube
        assert type(again.form.values) is tuple
    form = TrilinearForm(2, (0, 2, 2, 0))
    for same in (TrilinearForm(2, tuple([0, 2, 2, 0])), TrilinearForm(2, (0, 2, 2, 0))):
        assert same == form and hash(same) == hash(form)


def test_genus_is_recorded_exactly_for_blowdowns():
    # on every E1 ray of rank 2, 2-19's second centre (genus 0) included
    for rec in all_records():
        for spec in rec.rays:
            has_e1 = rec.form.rho == 2 and spec.ray_type is RayType.E1
            assert (spec.genus is not None) == has_e1, record_to_row(rec).table_id
            assert spec.genus is None or spec.genus >= 0
    (blowup_pair,) = [rec for rec in enumerate_all(2) if record_to_row(rec).table_id == "2-19"]
    assert [spec.genus for spec in blowup_pair.rays] == [2, 0]


def test_description_joins_alternatives():
    by_id = _by_id(enumerate_all(2))
    rec = by_id["2-6"]
    # the one place a family's alternatives are joined is its Markdown cell
    assert len(rec.descriptions) > 1
    assert f"| {', or '.join(rec.descriptions)} |" in emit(label([rec]), "markdown").decode()
    assert by_id["2-34"].descriptions == ("P^2 x P^1",)


def test_record_validation_rejects_corruption():
    (base,) = solve_E1_D(RayType.D3)
    with pytest.raises(ParityError):
        base._replace(kx3=base.kx3 + 1)
    with pytest.raises(InconsistencyError):
        base._replace(kx3=base.kx3 + 2)
    with pytest.raises(ConstraintError):
        base._replace(kx3=74)
    with pytest.raises(ConstraintError):
        base._replace(rays=(base.rays[0], base.rays[1]._replace(genus=-1)))
    with pytest.raises(ConstraintError, match="tuple of RaySpecs"):
        base._replace(rays=(1, 2))
    with pytest.raises(InconsistencyError, match="not in canonical order"):
        base._replace(rays=base.rays[::-1])


def test_a_record_derives_what_its_fields_imply():
    rec = _by_id(enumerate_all(2))["2-1"]
    (e1,) = [i for i, spec in enumerate(rec.rays) if spec.ray_type is RayType.E1]
    rays = list(rec.rays)
    rays[e1] = rays[e1]._replace(genus=5)
    assert "elliptic curve" in rec.descriptions[0]
    assert "genus 5" in rec._replace(rays=tuple(rays)).descriptions[0]
    for derived in ({"genus": 7}, {"descriptions": ("abc",)}, {"char_note": "x"}):
        with pytest.raises(UNKNOWN_FIELD_ERROR, match="unexpected field names"):
            rec._replace(**derived)
    assert SolutionRecord._fields == ("rays", "form", "minus_k", "kx3")
    # what restates a stored field is not a reader of its own
    for name in ("rho", "ray_types", "genus"):
        assert not hasattr(rec, name) and not hasattr(SolutionRecord, name)
    assert not hasattr(rec.minus_k, "rho") and not hasattr(DivisorClass, "rho")
    for call in ((2, False), (2, True), (3, True)):
        for record in enumerate_all(*call):
            assert record.form.rho == len(record.minus_k.coords) == call[0]


@pytest.mark.parametrize(
    "changes,error,message",
    [
        ({"kx3": 4.0}, ConstraintError, "must be integers"),
        ({"form": {}}, ConstraintError, "needs a TrilinearForm and a DivisorClass, got {}"),
        ({"minus_k": (1, 1)}, ConstraintError, r"a DivisorClass, got .* and \(1, 1\)$"),
    ],
    ids=["float-kx3", "dict-form", "tuple-minus-k"],
)
def test_record_scalars_are_exact(changes, error, message):
    record = enumerate_all(2)[0]
    assert record.rays[1].genus == 1
    with pytest.raises(error, match=message):
        record._replace(**changes)


def test_a_record_cube_is_at_most_that_of_p3():
    # (-K)^3 <= 64, the cube of P^3 (Iskovskikh-Prokhorov): 64 is a cube a
    # record may store, and 66 on an otherwise consistent record is not
    conics = (RaySpec(RayType.C2),) * 2
    assert SolutionRecord(conics, TrilinearForm(2, (1, 1, 1, 1)), DivisorClass((2, 2)), 64)
    with pytest.raises(ConstraintError, match=r"must lie in \(0, 64\], got 66$"):
        SolutionRecord(
            (RaySpec(RayType.C1),) * 2, TrilinearForm(2, (0, 11, 11, 0)), DivisorClass((1, 1)), 66
        )


def test_a_rank2_record_minus_k_is_the_class_its_rays_fix():
    # two rays of lengths mu1, mu2 fix -K = mu2 H1 + mu1 H2: 2-1's rays have
    # length 1, and -K = H1 - 2 H2 has the same cube 4 on its form
    record = _by_id(enumerate_all(2))["2-1"]
    doctored = DivisorClass((1, -2))
    assert triple_product(record.form, *(doctored,) * 3) == record.kx3 == 4
    with pytest.raises(
        InconsistencyError, match=r"^-K must be \(1, 1\) for these rays, got \(1, -2\)$"
    ):
        record._replace(minus_k=doctored)
