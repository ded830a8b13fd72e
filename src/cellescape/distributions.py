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
import sys
from abc import ABC

import numpy as np

from .errors import (
    DensityUnavailable,
    DimensionMismatch,
    InputError,
    OriginSingularity,
    SamplerUnavailable,
    _integer,
    _real,
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
    divergence, and never evaluates the density at ``dx = 0``.  It calls
    ``density`` at each step and its negation, so a density need not be even.

    ``sample(rng, size)`` returns ``size`` steps as a ``(size, dim)`` array.
    It may also take an optional ``out``, a C-contiguous ``(size, dim)``
    float array: it then writes the steps there, with exactly the draws it
    makes without ``out``, and returns ``out``.  The Monte Carlo estimator
    passes ``out`` to a ``sample`` with a parameter of that name or with
    ``**kwargs``, and maps whatever array comes back, so a law without
    ``out``, or one that ignores it, gives the same estimate.  The shipped
    laws take ``out``, and refuse any ``size`` but a non-negative integer
    (a bool too) with ``InputError``.

    ``typical_scale``, when set, is the rough magnitude of one step: a
    positive finite real number.  The deterministic solver uses it to seed
    the subdivision near the zero step, where the shipped densities
    concentrate; without it a density much narrower than the cell could
    fall between the integration nodes of the initial boxes and go
    unnoticed.

    A density that is a mixture of centred isotropic Gaussians may also be
    described by the private hook ``_scale_mixture()``, which returns the
    pairs ``(scale_j, weight_j)`` of floats: the density is
    ``sum_j weight_j N(0, scale_j^2 I)``.  The deterministic solver then
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
        _real("typical_scale", dist.typical_scale)
    if dist.dim != dim:
        raise DimensionMismatch("dim", f"distribution dimension {dist.dim} != element dimension {dim}")


def _sample_takes_out(dist) -> bool:
    """Whether ``dist.sample`` takes ``out``: a parameter of that name, or ``**kwargs``."""
    try:
        parameters = inspect.signature(dist.sample).parameters.values()
    except (TypeError, ValueError):  # a callable without a readable signature
        return False
    return any(p.name == "out" or p.kind is p.VAR_KEYWORD for p in parameters)


class WienerStep(StepDistribution):
    """Gaussian increments ``N(0, dt * I_n)`` of a Wiener process.

    At a ``dt`` so small that the density's factor ``(2 pi dt)^(-n/2)``
    leaves the float range (below about 8.9e-310 in 2D and 5e-207 in 3D),
    ``density`` folds that factor into the exponent: it returns the density
    where that is a float, and ``inf`` where the density itself leaves the
    float range.
    """

    def __init__(self, dt: float, dim: int):
        self.dt = _real("dt", dt)
        self.dim = _integer("dim", dim, 1, 4)
        self.typical_scale = math.sqrt(self.dt)

    def density(self, steps) -> float | np.ndarray:
        arr, scalar = _as_batch(steps, self.dim, "steps")
        norm2 = np.einsum("ij,ij->i", arr, arr)
        with np.errstate(over="ignore"):
            exponent = -norm2 / (2.0 * self.dt)
            # np.float64's power calls the same pow as a float's, but gives
            # inf where a float's raises OverflowError
            prefactor = np.float64(2.0 * math.pi * self.dt) ** (-self.dim / 2.0)
            if np.isfinite(prefactor):
                out = prefactor * np.exp(exponent)
            else:
                out = np.exp(exponent - 0.5 * self.dim * math.log(2.0 * math.pi * self.dt))
        return float(out[0]) if scalar else out

    def sample(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        steps = rng.standard_normal((_integer("size", size, 0), self.dim), out=out)
        return np.multiply(math.sqrt(self.dt), steps, out=steps)

    def _scale_mixture(self) -> tuple[tuple[float, float], ...]:
        return ((self.typical_scale, 1.0),)


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
# A step with s = rate * |dx| at least this has density 0, to the last bit:
# exp(-u) underflows at every node of its window, where u >= s e^-3.7.
# (Every node underflows from about s = 1.1e4 on.)
_FAR_S = 1e300
# The widest window of a step whose s is a normal float (with 0.1 to
# spare): a wider one holds a step whose s lost digits below the normal
# range, or underflowed to 0, or one whose 2 s overflowed.
_NORMAL_WIDTH = math.log(60.0) - math.log(sys.float_info.min) + 3.7 + 0.1


class VelocityJumpStep(StepDistribution):
    """One flight ``v * T`` with ``T ~ Exp(rate)`` and ``v ~ N(0, I_n)``.

    The density is the exponential mixture of centred Gaussians with
    standard deviation ``T`` per coordinate.  It diverges at the origin for
    every dimension (logarithmically in 1D, like ``|dx|^(1-n)`` above), so
    evaluation at ``|dx| < 1e-300`` raises :class:`OriginSingularity`
    instead of returning an overflowing number.  So does every evaluation
    at a rate whose ``rate**n`` leaves the float range (above about 1.3e154
    in 2D and 5.6e102 in 3D), where the law is that concentrated at the
    origin.  At a rate so small that the law's factor
    ``rate^n (2 pi)^(-n/2)`` falls below the normal floats, and in a block
    whose integrand overflows before that factor scales it back (a step
    far inside ``1 / rate`` in 2D and 3D), the factor is folded into the
    exponent, as ``WienerStep`` folds its own.  A batch of steps is
    evaluated in blocks of 256, by a trapezoid rule in ``log u`` with 256
    nodes per step; a block whose smallest ``rate * |dx|`` is below about
    7.5e-13 gives more nodes to every step in it.  So a step with
    ``rate * |dx| >= 1e-12`` gets the same value, bit for bit, alone and in
    any batch of such steps, but not beside a much shorter step.  A step whose ``2 * rate * |dx|`` leaves the
    float range has density 0, as its true density rounds to, and a step
    with a NaN component has density NaN.
    """

    # Substituting u = rate * T turns the mixture integral into
    #   rate^n (2 pi)^(-n/2) * I_n(s),   s = rate * |dx|,
    #   I_n(s) = integral exp(-u - s^2/(2 u^2) - (n - 1) v) dv,   v = log u.
    # On the window v in [log s - 3.7, log(60 + 2 s)] the integrand leaves
    # out less than 1e-25 of I_n: below it s^2 / (2 u^2) > 800, above it
    # exp(-u) < exp(-60 - 2 s).

    def __init__(self, rate: float, dim: int):
        self.rate = _real("lambda", rate)
        self.dim = _integer("dim", dim, 1, 4)
        self.typical_scale = 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        size = _integer("size", size, 0)
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
        with np.errstate(over="ignore"):  # the same pow as a float's, but inf where that raises
            prefactor = float(np.float64(self.rate) ** n) * (2.0 * math.pi) ** (-n / 2.0)
        if math.isinf(prefactor):
            raise OriginSingularity(
                f"velocity-jump density overflows: rate**{n} leaves the float range at rate {self.rate!r}"
            )
        # a factor below the normal floats is folded into the exponent in
        # every block, as is one whose block's integrand overflows alone
        log_prefactor = n * math.log(self.rate) - 0.5 * n * math.log(2.0 * math.pi)
        fold = prefactor < sys.float_info.min
        out = np.empty(len(arr))
        # an overflow or underflow of s or of the window's end, or a NaN, is
        # mended in its block; one of the sum, near the origin, is refused
        # after the loop
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, len(arr), _BLOCK):
                s = self.rate * radii[start:start + _BLOCK]
                lo, hi = np.log(s) - 3.7, np.log(60.0 + 2.0 * s)
                width = float(np.max(hi - lo))
                small = None
                if not width < _NORMAL_WIDTH:
                    # 2 s overflowed, where the density is 0, as it is at
                    # s = _FAR_S: such a step takes that s.  An s below the
                    # normal range takes its log as log(rate) + log|dx|, and
                    # s / u as exp(log s - log u).  A NaN sets no width.
                    s = np.where(hi == math.inf, _FAR_S, s)
                    small = s < sys.float_info.min
                    log_s = np.where(small, math.log(self.rate) + np.log(radii[start:start + _BLOCK]), np.log(s))
                    lo, hi = log_s - 3.7, np.log(60.0 + 2.0 * s)
                    width = float(np.fmax.reduce(hi - lo, initial=0.0))
                nodes = max(_LOG_U_NODES, math.ceil(width / _LOG_U_SPACING) + 1)
                h = (hi - lo) / (nodes - 1)
                v = lo[:, None] + h[:, None] * np.arange(nodes)
                u = np.exp(v)
                shrink = s[:, None] / u
                if small is not None and small.any():
                    shrink[small] = np.exp(log_s[small, None] - v[small])
                exponent = -u - 0.5 * shrink ** 2 - (n - 1) * v
                sums = None if fold else np.exp(exponent).sum(axis=1)
                if fold or np.isinf(sums).any():
                    out[start:start + _BLOCK] = h * np.exp(exponent + log_prefactor).sum(axis=1)
                else:
                    out[start:start + _BLOCK] = prefactor * h * sums
        if np.any(np.isinf(out)):
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
    return cls(data[field], _integer("dim", dim, 1, 4))


def distribution_to_dict(dist: StepDistribution) -> dict:
    for law, (cls, field, attribute) in _LAWS.items():
        if isinstance(dist, cls):
            return {"law": law, field: getattr(dist, attribute)}
    raise InputError("law", f"cannot serialize distribution of type {type(dist).__name__}")
