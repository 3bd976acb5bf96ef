"""The package's one refusal type and the checkers that raise it.

Everything raised on purpose is a RangeError naming the field it refuses (a
dotted path such as ``run.n`` for the CLI, a bare argument name such as
``j_max`` for the Python API), so the CLI catches one class and every message
points at its input.  StepTooCoarse is the one subclass: it also carries the
quadrature's unreliable values and error estimate.
"""

from __future__ import annotations

import math
import numbers


class RangeError(Exception):
    """An input the package refuses: out of range, mistyped or unreadable.

    Carries the dotted path of the offending field so CLI messages can
    point at it, and the message without that prefix.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        # the default rebuilds from ``args``, the one joined string, and fails;
        # a refusal raised in a worker process must reach the parent whole
        return type(self), (self.field, self.message)


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


# Largest uniform attachment weight beta accepted anywhere.  Far below float
# overflow, so beta (n + 2) at the largest chain and 2m + 2 beta + j_max in the
# spectra stay finite; above about 9e307 they overflow to inf and the spectra
# silently become zeros.
MAX_BETA = 1e200


def checked_real(field: str, value, lo: float | None = 0.0, hi: float | None = None) -> float:
    """``value`` as a finite float in [lo, hi], else RangeError naming ``field``.

    A None bound is no bound.  A bool and a non-number are refused.
    """
    if not isinstance(value, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise RangeError(field, f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise RangeError(field, f"must be finite, got {number}")
    if lo is not None and number < lo:
        raise RangeError(field, f"must be >= {lo:g}, got {number}")
    if hi is not None and number > hi:
        raise RangeError(field, f"must be <= {hi:g}, got {number:g}")
    return number


class StepTooCoarse(RangeError):
    """The quadrature grid cannot reach the requested tolerance.

    ``field`` is ``y_max`` when the domain cutoff keeps too much mass and
    ``steps`` when step doubling fails; ``values`` holds the (unreliable)
    result, ``estimate`` the error bound that tripped the guard.
    """

    def __init__(self, field: str, message: str, values=None, estimate: float | None = None):
        self.values = values
        self.estimate = estimate
        super().__init__(field, message)

    def __reduce__(self):
        return type(self), (self.field, self.message, self.values, self.estimate)
