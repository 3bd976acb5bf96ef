"""Exception types shared across the package.

Everything raised on purpose derives from PrefattachError so callers can
catch one base class at the CLI boundary.
"""

from __future__ import annotations


class PrefattachError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PrefattachError):
    """A config file, law string, or CLI value could not be parsed."""


class RangeError(PrefattachError):
    """A numeric field is outside its allowed range.

    Carries the dotted path of the offending field so CLI messages can
    point at it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class EmptyLaw(PrefattachError):
    """An edge-count law was given with no support at all."""


class NonPositiveSupport(PrefattachError):
    """An edge-count law puts mass on j <= 0; support must be {1, 2, ...}."""


class NotNormalized(PrefattachError):
    """Explicit probabilities do not sum to 1 within tolerance."""


class NonPositiveMean(PrefattachError):
    """An operation needs a strictly positive mean edge count."""


class MismatchedLengths(PrefattachError):
    """Two parallel series disagree on length."""


class TruncationTooSmall(PrefattachError):
    """The truncated spectrum leaves more mass unaccounted than allowed."""

    def __init__(self, mass: float, tol: float):
        self.mass = mass
        self.tol = tol
        super().__init__(
            f"truncated spectrum leaves mass {mass:.3e} above the cutoff "
            f"(allowed {tol:.3e}); raise j_max"
        )


class StepTooCoarse(PrefattachError):
    """The quadrature grid cannot reach the requested tolerance.

    ``values`` holds the (unreliable) result, ``estimate`` the error bound
    that tripped the guard.
    """

    def __init__(self, message: str, values=None, estimate: float | None = None):
        self.values = values
        self.estimate = estimate
        super().__init__(message)


class InsufficientBins(PrefattachError):
    """Too few usable degree bins for a tail fit."""


class SeriesTooShort(PrefattachError):
    """A convergence check needs more recorded points."""


class DegenerateBinning(PrefattachError):
    """Bin merging for the chi-square test collapsed to fewer than two bins."""
