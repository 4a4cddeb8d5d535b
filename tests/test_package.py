"""The public surface of the ``fanoenum`` package."""

import importlib

import fanoenum

PUBLIC_NAMES = [
    "ConstraintError",
    "DiffReport",
    "DimensionMismatchError",
    "DivisorClass",
    "FanoEngineError",
    "IncompleteSpecError",
    "InconsistencyError",
    "ParityError",
    "RaySpec",
    "RayType",
    "SolutionRecord",
    "TableRow",
    "TrilinearForm",
    "UnsupportedIndexError",
    "UnsupportedScopeError",
    "__version__",
    "antican_cube_by_index",
    "antican_cube_divisor_in_p2_bundle",
    "antican_cube_p1_bundle_over_surface",
    "antican_sq_dot_exceptional",
    "anticanonical_class",
    "balance_check",
    "blowup_exceptional_cube",
    "c2_dot_H",
    "conic_bundle_ksq_dot_pullback",
    "diff",
    "emit",
    "enumerate_all",
    "genus_from_blowup",
    "ground_truth",
    "label",
    "mu_of",
    "parse_rows",
    "record_to_row",
    "solve_C_C",
    "solve_C_D",
    "solve_C_E_primitive",
    "solve_E1_C",
    "solve_E1_D",
    "solve_E1_E",
    "solve_rho3_CCC",
    "solve_rho3_CE",
    "triple_product",
    "xi_square_on_curve",
]


def test_public_names_are_pinned():
    assert sorted(fanoenum.__all__) == PUBLIC_NAMES


def test_public_names_are_listed_once():
    assert len(fanoenum.__all__) == len(set(fanoenum.__all__))


def test_each_name_is_the_object_its_module_exports():
    for name in PUBLIC_NAMES:
        if name == "__version__":
            continue
        value = getattr(fanoenum, name)
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from fanoenum import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
