"""Exact-arithmetic enumeration of rank-2 and primitive rank-3 Fano threefolds.

The package encodes the intersection-theoretic constraints attached to pairs
of extremal rays on a smooth Fano threefold, solves the resulting integer
systems exhaustively, and diffs the outcome against the embedded
classification table.  Everything is exact integer arithmetic; results are
deterministic.

``import fanoenum`` loads no module of the package.  A submodule loads on its
first use (``fanoenum.table_oracle``); the first use of any public name, or
of ``__all__`` and so ``from fanoenum import *``, loads them all and binds
each module's ``__all__`` here.
"""

import importlib

__version__ = "0.1.0"

_MODULES = (
    "chern_calculus",
    "enumerator",
    "errors",
    "picard_lattice",
    "ray_constraints",
    "table_oracle",
)


def __getattr__(name: str):
    # a submodule name loads only that submodule: the import system asks for
    # it (hasattr) on every ``from fanoenum import <module>``
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    namespace = globals()
    if "__all__" not in namespace:
        names = ["__version__"]
        for module_name in _MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            for public in module.__all__:
                namespace[public] = getattr(module, public)
            names += module.__all__
        namespace["__all__"] = names
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
