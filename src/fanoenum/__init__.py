"""Exact-arithmetic enumeration of rank-2 and primitive rank-3 Fano threefolds.

The package encodes the intersection-theoretic constraints attached to pairs
of extremal rays on a smooth Fano threefold, solves the resulting integer
systems exhaustively, and diffs the outcome against the embedded
classification table.  Everything is integer or Fraction arithmetic; results
are deterministic.
"""

from .chern_calculus import (
    antican_cube_by_index,
    antican_cube_divisor_in_p2_bundle,
    antican_cube_p1_bundle_over_surface,
    antican_sq_dot_exceptional,
    blowup_exceptional_cube,
    conic_bundle_ksq_dot_pullback,
    genus_from_blowup,
    xi_square_on_curve,
)
from .enumerator import (
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
from .errors import (
    ConstraintError,
    DimensionMismatchError,
    FanoEngineError,
    IncompleteSpecError,
    InconsistencyError,
    ParityError,
    UnsupportedIndexError,
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
    balance_check,
    c2_dot_H,
    degB_upper_bound,
    l3_range,
    lattice_index_candidates,
    mu_of,
)
from .table_oracle import (
    DiffReport,
    TableRow,
    diff,
    emit,
    ground_truth,
    parse_rows,
    record_to_row,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice arithmetic
    "DivisorClass",
    "TrilinearForm",
    "triple_product",
    "anticanonical_class",
    # Chern-class formulas
    "antican_cube_p1_bundle_over_surface",
    "antican_cube_divisor_in_p2_bundle",
    "antican_cube_by_index",
    "antican_sq_dot_exceptional",
    "blowup_exceptional_cube",
    "conic_bundle_ksq_dot_pullback",
    "genus_from_blowup",
    "xi_square_on_curve",
    # ray data and constraints
    "RayType",
    "RaySpec",
    "mu_of",
    "c2_dot_H",
    "balance_check",
    "l3_range",
    "degB_upper_bound",
    "lattice_index_candidates",
    # solvers
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
    # table oracle
    "TableRow",
    "DiffReport",
    "ground_truth",
    "record_to_row",
    "diff",
    "emit",
    "parse_rows",
    # errors
    "FanoEngineError",
    "DimensionMismatchError",
    "ConstraintError",
    "ParityError",
    "IncompleteSpecError",
    "UnsupportedIndexError",
    "InconsistencyError",
    "UnsupportedScopeError",
]
