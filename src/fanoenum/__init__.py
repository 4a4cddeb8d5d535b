"""Exact-arithmetic enumeration of rank-2 and primitive rank-3 Fano threefolds.

The package encodes the intersection-theoretic constraints attached to pairs
of extremal rays on a smooth Fano threefold, solves the resulting integer
systems exhaustively, and diffs the outcome against the embedded
classification table.  Everything is exact integer arithmetic (the rational
bound ``degB_upper_bound`` returns a Fraction); results are deterministic.
"""

from .chern_calculus import *
from .enumerator import *
from .errors import *
from .picard_lattice import *
from .ray_constraints import *
from .table_oracle import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *chern_calculus.__all__,
    *enumerator.__all__,
    *errors.__all__,
    *picard_lattice.__all__,
    *ray_constraints.__all__,
    *table_oracle.__all__,
]
