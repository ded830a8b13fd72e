"""Exception types raised by the cellescape library, and the checks of malformed input.

Malformed input raises ``InputError``, or one of its subclasses, naming the
bad field; ``InputError`` is also a ``ValueError``.
"""

import math
import numbers
import operator

import numpy as np

__all__ = [
    "CellEscapeError", "InputError", "DegenerateElement", "DimensionMismatch",
    "EmptyInterval", "DensityUnavailable", "SamplerUnavailable", "OriginSingularity",
    "QuadratureFailure", "ToleranceNotMet", "NonFiniteIntegrand", "TooFewRuns",
]


class CellEscapeError(Exception):
    """Base class for all library errors."""


class InputError(CellEscapeError, ValueError):
    """Malformed input: an argument, a configuration field, or an entry of a file.

    ``field`` names the offending entry so callers (e.g. the CLI) can point
    the user at the exact problem.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"field '{field}': {message}")

    def __reduce__(self):  # pickle by the two arguments, not by the formatted text
        return type(self), (self.field, self.message)


class DegenerateElement(InputError):
    """Spanning edge vectors are (numerically) linearly dependent."""


class DimensionMismatch(InputError):
    """Point, step, or distribution dimension does not match the geometry."""


class EmptyInterval(InputError):
    """A 1D interval has non-positive length."""


class DensityUnavailable(CellEscapeError):
    """The step distribution does not offer density evaluation."""


class SamplerUnavailable(CellEscapeError):
    """The step distribution does not offer random sampling."""


class OriginSingularity(CellEscapeError):
    """The density diverges at a zero step and cannot be evaluated there."""


class QuadratureFailure(CellEscapeError):
    """A numerical integration did not reach the requested accuracy."""


class ToleranceNotMet(QuadratureFailure):
    """Adaptive integration exhausted its subdivision budget.

    Carries the best available result so callers can still report it.
    """

    def __init__(self, value: float, error_estimate: float):
        self.value = value
        self.error_estimate = error_estimate
        super().__init__(
            f"subdivision budget exhausted; best value {value!r} "
            f"with error estimate {error_estimate:.3e}"
        )


class NonFiniteIntegrand(QuadratureFailure):
    """The integrand returned NaN or infinity."""


class TooFewRuns(CellEscapeError):
    """Empirical error estimation needs at least two run values."""


def _integer(field: str, value, minimum: int, limit: int | None = None) -> int:
    """``value`` as an int; ``InputError`` naming ``field`` unless it is an integer in ``[minimum, limit)``.

    An integer is a Python or numpy one, but not a bool.
    """
    try:
        number = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum or (limit is not None and number >= limit):
        span = f"of at least {minimum}" if limit is None else f"in [{minimum}, {limit})"
        raise InputError(field, f"expected an integer {span}, got {value!r}")
    return number


def _real(field: str, value, positive: bool = True) -> float:
    """``value`` as a float; ``InputError`` naming ``field`` unless it is a finite real number, not a bool.

    It must be positive, or with ``positive=False`` non-negative.
    """
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not (0 < value if positive else 0 <= value) or not value < math.inf):
        sign = "positive" if positive else "non-negative"
        raise InputError(field, f"expected a {sign} finite number, got {value!r}")
    return float(value)
