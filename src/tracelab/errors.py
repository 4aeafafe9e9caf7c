"""Shared exception types.

Mathematical "no" answers (NoSolution, a predicate being false) are values,
not exceptions; everything here signals invalid input, exceeded limits, or
an internal cross-check failure that should never happen.
"""


class TraceLabError(Exception):
    """Base class for all package errors."""


class ParseError(TraceLabError):
    """Malformed polynomial, input file, or scalar literal."""


class DimensionMismatch(TraceLabError):
    """Operands live in different ambient dimensions or shapes."""


class FieldNotFinite(TraceLabError):
    """An exhaustive enumeration was requested over an infinite field."""


class NotArtinian(TraceLabError):
    """The presented quotient is not a finite-dimensional local algebra."""


class ResidueFieldError(TraceLabError):
    """A relation has a nonzero constant term, so the residue field would
    be a proper extension of the coefficient field."""


class DimensionCapExceeded(TraceLabError):
    """Quotient dimension grew past the configured cap."""


class AlgebraMismatch(TraceLabError):
    """Operands belong to different algebras."""


class NotSubmodule(TraceLabError):
    """A carrier subspace is not closed under the module action, or a
    submodule was passed for the wrong ambient module."""


class EnumerationCapExceeded(TraceLabError):
    """An exhaustive enumeration would exceed the configured cap."""


class ExtNotVanishing(TraceLabError):
    """The colon route for the trace needs Ext1(R/I, X) = 0 and it fails."""


class NotCoFinite(TraceLabError):
    """Semigroup generators have gcd > 1, so the complement is infinite."""


class InvalidArgument(TraceLabError, ValueError):
    """A numeric argument lies outside the range an operation accepts."""


class EmptyGenerators(TraceLabError):
    """A generator list that must be nonempty is empty."""


class IdealNotIntegral(TraceLabError):
    """A value-set operation requires an ideal contained in the semigroup."""


class InternalCheckError(TraceLabError):
    """A dual-route identity that holds by theorem failed numerically.

    This always indicates a bug in this package, never bad user input.
    """
