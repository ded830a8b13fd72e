"""Exception types raised by the cellescape library."""

__all__ = [
    "CellEscapeError", "InputError", "DegenerateElement", "DimensionMismatch",
    "EmptyInterval", "DensityUnavailable", "SamplerUnavailable", "OriginSingularity",
    "QuadratureFailure", "ToleranceNotMet", "NonFiniteIntegrand", "TooFewRuns",
]


class CellEscapeError(Exception):
    """Base class for all library errors."""


class InputError(CellEscapeError):
    """A configuration file or dictionary is malformed.

    ``field`` names the offending entry so callers (e.g. the CLI) can point
    the user at the exact problem.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field '{field}': {message}")


class DegenerateElement(CellEscapeError):
    """Spanning edge vectors are (numerically) linearly dependent."""


class DimensionMismatch(CellEscapeError):
    """Point, step, or distribution dimension does not match the geometry."""


class EmptyInterval(CellEscapeError):
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
