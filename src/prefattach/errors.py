"""Exception types shared across the package.

Everything raised on purpose derives from PrefattachError so callers can
catch one base class at the CLI boundary.
"""

from __future__ import annotations

import math
import numbers


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


def checked_int(field: str, value, lo: int | None, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi], else RangeError naming ``field``.

    A None bound is no bound.  A bool, a float (even an integral one) and a
    non-number are refused, never truncated.
    """
    # Exact builtins skip the ABC test, which costs ~300 ns per call.
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise RangeError(field, f"must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise RangeError(field, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise RangeError(field, f"must be <= {hi}, got {value}")
    return int(value)


def checked_real(field: str, value, lo: float | None = 0.0) -> float:
    """``value`` as a finite float >= ``lo``, else RangeError naming ``field``.

    A None ``lo`` is no bound.  A bool and a non-number are refused.
    """
    if not isinstance(value, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise RangeError(field, f"must be a number, got {value!r}")
    if not math.isfinite(value):
        raise RangeError(field, f"must be finite, got {value}")
    if lo is not None and value < lo:
        raise RangeError(field, f"must be >= {lo:g}, got {value}")
    return float(value)


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
