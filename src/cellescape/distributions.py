"""Step-probability laws: density evaluation and random sampling.

Two laws ship with the library:

* :class:`WienerStep` -- zero-mean Gaussian increments with variance ``dt``
  per coordinate.
* :class:`VelocityJumpStep` -- one flight of a velocity-jump process: an
  exponentially distributed travel time times a standard-normal velocity.

The :class:`StepDistribution` interface is open: user laws only need to
supply ``sample`` (for the Monte Carlo estimator) and/or ``density`` (for
the deterministic solver).  Every stochastic operation takes the random
generator explicitly; concurrent sampling requires independent generators.
"""

from __future__ import annotations

import inspect
import math
import numbers
import operator
from abc import ABC

import numpy as np

from .errors import (
    DensityUnavailable,
    DimensionMismatch,
    InputError,
    OriginSingularity,
    SamplerUnavailable,
)
from .geometry import _as_batch

__all__ = [
    "StepDistribution",
    "WienerStep",
    "VelocityJumpStep",
    "distribution_from_dict",
    "distribution_to_dict",
]

# Steps closer to the origin than this are treated as exactly zero when
# probing a law whose density diverges there.
ORIGIN_THRESHOLD = 1e-300


class StepDistribution(ABC):
    """Abstract step law ``p(dx)`` on R^n.

    Subclasses set ``dim`` and override ``sample`` and/or ``density``.  A
    density may diverge at ``dx = 0`` (like ``|dx|^(1-n)`` above 1D, or
    logarithmically in 1D): the deterministic solver integrates over cones
    from the zero step, whose Jacobian ``t^(n-1)`` cancels such a
    divergence, and never evaluates the density at ``dx = 0``.

    ``sample(rng, size)`` returns ``size`` steps as a ``(size, dim)`` array.
    It may also take an optional ``out``, a C-contiguous ``(size, dim)``
    float array: it then writes the steps there, with exactly the draws it
    makes without ``out``, and returns ``out``.  The Monte Carlo estimator
    passes ``out`` to a ``sample`` with a parameter of that name or with
    ``**kwargs``, and maps whatever array comes back, so a law without
    ``out``, or one that ignores it, gives the same estimate.  The shipped
    laws take ``out``.

    ``typical_scale``, when set, is the rough magnitude of one step: a
    positive finite real number.  The deterministic solver uses it to seed
    the subdivision near the zero step, where the shipped densities
    concentrate; without it a density much narrower than the cell could
    fall between the integration nodes of the initial boxes and go
    unnoticed.

    A density that is a mixture of centred isotropic Gaussians may also be
    described by the private hook ``_scale_mixture(radii)``, which returns
    ``(scales, weights)`` of shape ``(len(radii), q)``, or ``(1, q)`` when
    they do not depend on the radius: the density is
    ``sum_j weights[:, j] N(0, scales[:, j]^2 I)`` along the rays whose
    longest steps have the given ``radii``.  The deterministic solver then
    integrates the radial coordinate of each cone in closed form.
    ``WienerStep`` has the hook, with its one scale ``sqrt(dt)`` of weight
    1; ``VelocityJumpStep`` and user laws do not, and the hook is ignored
    on a subclass that overrides ``density`` without overriding the hook,
    so those laws take the cubature over whole cones.
    """

    dim: int
    typical_scale: float | None = None

    @property
    def has_density(self) -> bool:
        return type(self).density is not StepDistribution.density

    @property
    def has_sampler(self) -> bool:
        return type(self).sample is not StepDistribution.sample

    def density(self, steps: np.ndarray) -> np.ndarray:
        raise DensityUnavailable(f"{type(self).__name__} offers no density")

    def sample(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        raise SamplerUnavailable(f"{type(self).__name__} offers no sampler")


def _check_law(dist, dim: int, sampler: bool = False) -> None:
    """Raise unless ``dist`` is a ``dim``-dimensional law with a density, or with ``sampler`` a sampler.

    A law with a density must also have a ``typical_scale`` that is None or
    positive and finite.
    """
    if sampler and not dist.has_sampler:
        raise SamplerUnavailable(
            f"{type(dist).__name__} offers no sampler; use the deterministic solver"
        )
    if not sampler and not dist.has_density:
        raise DensityUnavailable(
            f"{type(dist).__name__} offers no density; use the Monte Carlo estimator"
        )
    if not sampler and getattr(dist, "typical_scale", None) is not None:
        _positive("typical_scale", dist.typical_scale)
    if dist.dim != dim:
        raise DimensionMismatch(
            f"distribution dimension {dist.dim} != element dimension {dim}"
        )


def _sample_takes_out(dist) -> bool:
    """Whether ``dist.sample`` takes ``out``: a parameter of that name, or ``**kwargs``."""
    try:
        parameters = inspect.signature(dist.sample).parameters.values()
    except (TypeError, ValueError):  # a callable without a readable signature
        return False
    return any(p.name == "out" or p.kind is p.VAR_KEYWORD for p in parameters)


def _integer(value) -> int | None:
    """``value`` as an int if it is an integer, numpy's too, but not a bool; else None."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _positive(field: str, value) -> float:
    """``value`` as a float; ``InputError`` naming ``field`` unless it is a positive finite real, not a bool."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise InputError(field, f"must be a positive finite number, got {value!r}")
    return float(value)


def _check_dim(n: int) -> int:
    """The dimension ``n`` as an int in {1, 2, 3}."""
    value = _integer(n)
    if value not in (1, 2, 3):
        raise InputError("dim", f"dimension must be 1, 2, or 3, got {n!r}")
    return value


class WienerStep(StepDistribution):
    """Gaussian increments ``N(0, dt * I_n)`` of a Wiener process."""

    def __init__(self, dt: float, dim: int):
        self.dt = _positive("dt", dt)
        self.dim = _check_dim(dim)
        self.typical_scale = math.sqrt(self.dt)

    def density(self, steps) -> float | np.ndarray:
        arr, scalar = _as_batch(steps, self.dim, "steps")
        norm2 = np.einsum("ij,ij->i", arr, arr)
        out = (2.0 * math.pi * self.dt) ** (-self.dim / 2.0) * np.exp(-norm2 / (2.0 * self.dt))
        return float(out[0]) if scalar else out

    def sample(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        steps = rng.standard_normal((int(size), self.dim), out=out)
        return np.multiply(math.sqrt(self.dt), steps, out=steps)

    def _scale_mixture(self, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.array([[self.typical_scale]]), np.array([[1.0]])


# The velocity-jump density is an integral taken in v = log u by the
# trapezoid rule on a fixed number of nodes spanning a window per point.
# Its integrand is analytic in the strip |Im v| < pi/4 and negligible at
# both ends of the window, so the rule converges exponentially in the node
# count (Trefethen & Weideman, "The exponentially convergent trapezoidal
# rule", SIAM Review 56, 2014): 256 nodes keep the density within 1e-14
# relative for s in [1e-12, 1e3] in dimensions 1-3.
_LOG_U_NODES = 256
# The window widens like log(1/s) as s falls; 256 nodes space the window
# of s = 1e-12 at 0.139.  A block holding smaller s gets more nodes, so
# that its spacing stays below this (5,000 nodes at s = 1e-300).
_LOG_U_SPACING = 0.14
# Points per block of the density: each (block, nodes) temporary takes
# 512 kB, small enough to stay in cache (about 1.7x faster than 1024 points
# on a 2-vCPU Xeon).
_BLOCK = 256


class VelocityJumpStep(StepDistribution):
    """One flight ``v * T`` with ``T ~ Exp(rate)`` and ``v ~ N(0, I_n)``.

    The density is the exponential mixture of centred Gaussians with
    standard deviation ``T`` per coordinate.  It diverges at the origin for
    every dimension (logarithmically in 1D, like ``|dx|^(1-n)`` above), so
    evaluation at ``|dx| < 1e-300`` raises :class:`OriginSingularity`
    instead of returning an overflowing number.  A batch of steps is
    evaluated in blocks of 256, by a trapezoid rule in ``log u`` with 256
    nodes per step; a block whose smallest ``rate * |dx|`` is below about
    7.5e-13 gives more nodes to every step in it.  So a step with
    ``rate * |dx| >= 1e-12`` gets the same value, bit for bit, alone and in
    any batch of such steps, but not beside a much shorter step.
    """

    # Substituting u = rate * T turns the mixture integral into
    #   rate^n (2 pi)^(-n/2) * I_n(s),   s = rate * |dx|,
    #   I_n(s) = integral exp(-u - s^2/(2 u^2) - (n - 1) v) dv,   v = log u.
    # On the window v in [log s - 3.7, log(60 + 2 s)] the integrand leaves
    # out less than 1e-25 of I_n: below it s^2 / (2 u^2) > 800, above it
    # exp(-u) < exp(-60 - 2 s).

    def __init__(self, rate: float, dim: int):
        self.rate = _positive("lambda", rate)
        self.dim = _check_dim(dim)
        self.typical_scale = 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        size = int(size)
        travel = rng.standard_exponential(size)
        travel *= 1.0 / self.rate
        velocity = rng.standard_normal((size, self.dim), out=out)
        velocity *= travel[:, None]
        return velocity

    def density(self, steps) -> float | np.ndarray:
        arr, scalar = _as_batch(steps, self.dim, "steps")
        # hypot scales before it squares, so no short step's radius underflows
        radii = np.abs(arr[:, 0])
        for j in range(1, self.dim):
            radii = np.hypot(radii, arr[:, j])
        if np.any(radii < ORIGIN_THRESHOLD):
            raise OriginSingularity(
                "velocity-jump density is non-finite at a zero step"
            )
        n = self.dim
        prefactor = self.rate**n * (2.0 * math.pi) ** (-n / 2.0)
        out = np.empty(len(arr))
        for start in range(0, len(arr), _BLOCK):
            s = self.rate * radii[start:start + _BLOCK]
            lo, hi = np.log(s) - 3.7, np.log(60.0 + 2.0 * s)
            nodes = max(_LOG_U_NODES, math.ceil(float(np.max(hi - lo)) / _LOG_U_SPACING) + 1)
            h = (hi - lo) / (nodes - 1)
            v = lo[:, None] + h[:, None] * np.arange(nodes)
            u = np.exp(v)
            exponent = -u - 0.5 * (s[:, None] / u) ** 2 - (n - 1) * v
            with np.errstate(over="ignore"):
                out[start:start + _BLOCK] = prefactor * h * np.exp(exponent).sum(axis=1)
        if not np.all(np.isfinite(out)):
            raise OriginSingularity(
                "velocity-jump density overflows at a step this close to the origin"
            )
        return float(out[0]) if scalar else out


# law name: (class, JSON field of its parameter, attribute holding it)
_LAWS = {
    "wiener": (WienerStep, "dt", "dt"),
    "velocity_jump": (VelocityJumpStep, "lambda", "rate"),
}


def distribution_from_dict(data: dict, dim: int) -> StepDistribution:
    """Build a shipped law from ``{"law": ..., <parameters>}``.

    ``dim`` comes from the geometry the law is paired with.  Supported:
    ``{"law": "wiener", "dt": ...}`` and
    ``{"law": "velocity_jump", "lambda": ...}``.
    """
    if not isinstance(data, dict):
        raise InputError("distribution", "expected a JSON object")
    if "law" not in data:
        raise InputError("law", "missing required field")
    law = data["law"]
    if not isinstance(law, str) or law not in _LAWS:
        expected = " or ".join(repr(name) for name in _LAWS)
        raise InputError("law", f"unknown law {law!r}; expected {expected}")
    cls, field, _ = _LAWS[law]
    if field not in data:
        raise InputError(field, f"missing required field for the {law} law")
    return cls(data[field], _check_dim(dim))


def distribution_to_dict(dist: StepDistribution) -> dict:
    for law, (cls, field, attribute) in _LAWS.items():
        if isinstance(dist, cls):
            return {"law": law, field: getattr(dist, attribute)}
    raise InputError("law", f"cannot serialize distribution of type {type(dist).__name__}")
