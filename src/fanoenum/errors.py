"""Exception types shared across the engine.

Everything derives from :class:`FanoEngineError` so callers can catch the whole
family at once, and from ``ValueError`` so sloppy call sites still fail loudly.
The distinction that matters operationally is between *pruning* events
(:class:`ConstraintError`, :class:`ParityError` -- an integer constraint system
simply has no solution at this point of the search, which is normal) and
genuine misuse (:class:`DimensionMismatchError`, :class:`IncompleteSpecError`,
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
    """An exact integrality or positivity constraint fails.

    Inside the enumeration this is a pruning event, not a bug: candidates
    violating a divisibility or sign condition are discarded by catching it.
    """


class ParityError(FanoEngineError):
    """An integer that must be even is odd (anticanonical cubes, etc.)."""


class IncompleteSpecError(FanoEngineError):
    """A data object lacks a field required by the requested computation."""


class UnsupportedIndexError(FanoEngineError):
    """A Fano index outside the supported range {2, 3, 4} was supplied."""


class InconsistencyError(FanoEngineError):
    """The engine derived something impossible (or the pairing cannot occur).

    Raised when a constraint system that must admit a solution admits none --
    either the configuration can never arise on an actual variety, or there is
    an encoding bug.
    """


class UnsupportedScopeError(FanoEngineError):
    """The requested enumeration scope is outside what the engine covers."""
