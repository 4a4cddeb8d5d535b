"""Exception types shared across the engine.

Everything derives from :class:`FanoEngineError` so callers can catch the whole
family at once, and from ``ValueError`` so sloppy call sites still fail loudly.
Nothing catches them to prune a search: the solvers drop a candidate only for
its domain, and the constructors' checks assert invariants.  So each one is
misuse or bad data (:class:`ConstraintError`, :class:`ParityError`,
:class:`DimensionMismatchError`, :class:`IncompleteSpecError`,
:class:`UnsupportedIndexError`, :class:`UnsupportedScopeError`) or internal
breakage (:class:`InconsistencyError`).
"""

__all__ = [
    "FanoEngineError",
    "DimensionMismatchError",
    "ConstraintError",
    "ParityError",
    "IncompleteSpecError",
    "UnsupportedIndexError",
    "InconsistencyError",
    "UnsupportedScopeError",
]


class FanoEngineError(ValueError):
    """Base class for every error raised by this package."""


class DimensionMismatchError(FanoEngineError):
    """Operands live on lattices of different (or unsupported) rank."""


class ConstraintError(FanoEngineError):
    """An exact integrality, range or positivity constraint fails."""


class ParityError(FanoEngineError):
    """An integer that must be even is odd (anticanonical cubes, etc.)."""


class IncompleteSpecError(FanoEngineError):
    """A data object lacks a field required by the requested computation."""


class UnsupportedIndexError(FanoEngineError):
    """A Fano index outside the supported range {2, 3, 4} was supplied."""


class InconsistencyError(FanoEngineError):
    """The engine's facts or a record contradict what they must satisfy.

    Raised when the facts of a pairing leave an unknown free or give a
    fractional form entry, and on a record whose (-K)^3 disagrees with its
    form, whose rays are out of canonical order or whose -K they do not fix.
    """


class UnsupportedScopeError(FanoEngineError):
    """The requested enumeration scope is outside what the engine covers."""
