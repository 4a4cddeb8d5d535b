"""Acceptance checklist for the classification engine.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in failure output), so a full run
reads as a checklist:

  1. the rank-2 table (36 families) is reproduced exactly, in under 1s;
  2. the primitive rank-3 table (4 families) is reproduced exactly, <1s;
  3. the recorded Chern-formula evaluations reproduce exactly;
  4. the lattice index is 1 in all nine basis-elimination configurations,
     by the index oracle of ``test_index_oracle``;
  5. the engine finds exactly the records of a search over intersection
     forms in rank 2 (``test_form_oracle``), and solve_rho3_CCC those of
     an independent sweep, <10s;
  6. structural invariants hold for every emitted record.
"""

import time

import test_form_oracle as form_oracle
import test_index_oracle as index_oracle
import test_solver_oracles as oracles
from test_ray_constraints import NINE_CONFIGURATIONS

from fanoenum.chern_calculus import (
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
    conic_bundle_ksq_dot_pullback,
    genus_from_blowup,
)
from fanoenum.cli import run
from fanoenum.enumerator import enumerate_all
from fanoenum.picard_lattice import triple_product
from fanoenum.ray_constraints import (
    TYPE_FACTS,
    RayType,
    balance_check,
    c2_dot_H,
)
from fanoenum.table_oracle import diff, ground_truth, label

RANK2_CUBES = [
    4, 6, 8, 10, 12, 12, 14, 14, 16, 16, 18, 20, 20, 20, 22, 22, 24, 24,
    26, 26, 28, 30, 30, 30, 32, 34, 38, 40, 40, 46, 46, 48, 54, 54, 56, 62,
]


def _report(label, ok):
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, label


def test_criterion_1_full_rank2_reproduction(capsys):
    start = time.perf_counter()
    exit_code = run(["verify", "--rho", "2"])
    elapsed = time.perf_counter() - start
    report = diff(enumerate_all(2), ground_truth(2))
    cubes = sorted(rec.kx3 for rec in enumerate_all(2))
    ok = (
        exit_code == 0
        and report.is_empty
        and cubes == RANK2_CUBES
        and elapsed < 1.0
    )
    capsys.readouterr()  # swallow the CLI's own output; keep the checklist line
    with capsys.disabled():
        _report("criterion 1: rank-2 table of 36 families reproduced exactly "
                "(%.2fs)" % elapsed, ok)


def test_criterion_2_primitive_rank3_reproduction(capsys):
    start = time.perf_counter()
    exit_code = run(["verify", "--rho", "3"])
    elapsed = time.perf_counter() - start
    records = enumerate_all(3, primitive_only=True)
    report = diff(records, ground_truth(3, primitive_only=True))
    by_id = {row.table_id: rec for rec, row in zip(records, label(records))}
    shape_ok = (
        sorted(rec.kx3 for rec in records) == [12, 14, 48, 52]
        and by_id["3-1"].ray_types == (RayType.C1,) * 3
        and all(ray.delta_bidegree == (4, 4) for ray in by_id["3-1"].rays)
        and by_id["3-27"].ray_types == (RayType.C2,) * 3
        and by_id["3-2"].ray_types == (RayType.C1, RayType.E1)
        and by_id["3-31"].ray_types == (RayType.C2, RayType.E1)
    )
    ok = exit_code == 0 and report.is_empty and shape_ok and elapsed < 1.0
    capsys.readouterr()
    with capsys.disabled():
        _report("criterion 2: primitive rank-3 table of 4 families reproduced "
                "exactly (%.2fs)" % elapsed, ok)


def test_criterion_3_chern_formula_evaluations(capsys):
    checks = [
        antican_cube_p1_bundle_over_surface(2, 0, 8) == 52,
        antican_cube_p1_bundle_over_surface(1, 0, 9) == 56,
        antican_cube_p1_bundle_over_surface(4, 0, 9) == 62,
        antican_cube_divisor_in_p2_bundle(
            8, 2, 8, c1_dot_F=-10, c1_dot_Ky=8, F_dot_Ky=-10, F_sq=12
        )
        == 14,
        antican_cube_divisor_in_p2_bundle(
            9, 2, 9, c1_dot_F=0, c1_dot_Ky=-9, F_dot_Ky=0, F_sq=0
        )
        == 14,
        all(
            conic_bundle_ksq_dot_pullback(-3, deg_delta) == 12 - deg_delta
            for deg_delta in range(13)
        ),
        genus_from_blowup(16, 64, 4, 7) == 5,
        genus_from_blowup(20, 54, 3, 6) == 2,
        genus_from_blowup(40, 64, 4, 3) == 1,
    ]
    with capsys.disabled():
        _report("criterion 3: recorded Chern-formula evaluations reproduce "
                "exactly", all(checks))


def test_criterion_4_lattice_index_elimination(capsys):
    # The index oracle solves every pairing at every index up to 8.  In each
    # configuration (mu1, mu2, first type, second type or None for every
    # type of length mu2), every solution above index 1 fails the balance.
    larger = {
        config: [
            key for key in index_oracle.SOLUTIONS
            if key[4] > 1 and _in_configuration(key[0], key[2], config)
        ]
        for config in NINE_CONFIGURATIONS
    }
    unbalanced = all(
        not index_oracle.balances(*key) for keys in larger.values() for key in keys
    )
    # the eight solutions above index 1 lie in the three E1 configurations
    with_larger = [config for config, keys in larger.items() if keys]
    ok = (
        unbalanced
        and with_larger == NINE_CONFIGURATIONS[6:]
        and sum(map(len, larger.values())) == 8
    )
    with capsys.disabled():
        _report("criterion 4: lattice index is 1 in all nine basis "
                "configurations", ok)


def _in_configuration(type1, type2, configuration):
    """Whether the pairing of type1 and type2, in either order, fits the configuration."""
    _, mu2, first, second = configuration
    return any(
        t1 is first and TYPE_FACTS[t2].mu == mu2 and second in (None, t2)
        for t1, t2 in ((type1, type2), (type2, type1))
    )


def _form_search_finds_the_engine_records():
    form_oracle.test_the_form_search_visits_a_fixed_simplex_and_finds_forty_records()
    assert not form_oracle.disagreements()


def test_criterion_5_solver_oracle_equivalence(capsys):
    sweeps = [_form_search_finds_the_engine_records, oracles.test_oracle_rho3_CCC]
    start = time.perf_counter()
    failures = []
    for sweep in sweeps:
        try:
            sweep()
        except AssertionError:
            failures.append(sweep.__name__)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    with capsys.disabled():
        _report("criterion 5: the engine equals a form-first search in rank 2 "
                "and solve_rho3_CCC its brute-force sweep (%.2fs)" % elapsed, ok)


def test_criterion_6_structural_invariants(capsys):
    records = list(enumerate_all(2)) + list(enumerate_all(3, primitive_only=True))
    problems = []
    for rec, row in zip(records, label(records)):
        mk = rec.minus_k
        if triple_product(rec.form, mk, mk, mk) != rec.kx3:
            problems.append((row.table_id, "cube"))
        if rec.kx3 % 2 != 0:
            problems.append((row.table_id, "parity"))
        if rec.genus is not None and rec.genus < 0:
            problems.append((row.table_id, "genus"))
        if rec.rho == 2:
            first, second = rec.rays
            if not balance_check(
                first.mu, second.mu, c2_dot_H(first), c2_dot_H(second)
            ):
                problems.append((row.table_id, "balance"))
        elif all(ray.ray_type in (RayType.C1, RayType.C2) for ray in rec.rays):
            d = rec.form.entries[1, 2, 3]
            if rec.kx3 * d * d != 48:
                problems.append((row.table_id, "fibre-degree"))
    ok = len(records) == 40 and not problems
    with capsys.disabled():
        _report("criterion 6: structural invariants hold for all 40 emitted "
                "records", ok)
