"""Exception types raised across the package."""

from __future__ import annotations


class CoupledFpiError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CoupledFpiError, ValueError):
    """Malformed point, set, sequence or argument."""


class NotAVertexError(InvalidInputError):
    """Point queried against an extensional graph that does not list it."""


class UnsupportedModeError(CoupledFpiError):
    """Operation requires an extensional graph but got an intensional one."""


class InvalidParameterError(CoupledFpiError, ValueError):
    """Numeric parameter outside its admissible range (e.g. k not in (0,1))."""


class InsufficientSamplesError(CoupledFpiError):
    """Rejection sampling produced no admissible samples."""


class SeedEdgeError(CoupledFpiError):
    """Starting pair violates the product-graph seed condition."""


class InvalidSeedError(CoupledFpiError):
    """Declared first iterate is not a member of the seed image set."""


class SelectionFailureError(CoupledFpiError):
    """No admissible successor in a multivalued image at some step."""


class HypothesisViolationError(CoupledFpiError):
    """Observed iterate step exceeded the declared geometric bound.

    Carries the offending trace step in ``step``.
    """

    def __init__(self, message: str, step=None):
        super().__init__(message)
        self.step = step


class NonFiniteValueError(CoupledFpiError):
    """A map produced a NaN or infinite value where a finite one is required."""


class InapplicableCheckError(CoupledFpiError):
    """A diagnostic check's precondition does not hold for the given data."""


class ExpressionError(CoupledFpiError, ValueError):
    """Arithmetic expression failed to tokenize, parse or validate.

    ``position`` is the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SpecError(CoupledFpiError, ValueError):
    """Problem-spec document is malformed or semantically invalid."""
