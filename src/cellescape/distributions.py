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

import math
import warnings
from abc import ABC

import numpy as np
from scipy import integrate
from scipy import stats

from .errors import (
    DensityUnavailable,
    DimensionMismatch,
    InputError,
    OriginSingularity,
    QuadratureFailure,
    SamplerUnavailable,
)

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

    Subclasses set ``dim`` and override ``sample`` and/or ``density``.
    ``singular_at_origin`` marks densities that diverge at ``dx = 0``; the
    deterministic solver then excludes a small neighbourhood of the origin
    and accounts for it via :meth:`origin_ball_mass_bound`.

    ``typical_scale``, when set, is the rough magnitude of one step.  The
    deterministic solver uses it to seed the subdivision near the zero
    step, where the shipped densities concentrate; without it a density
    much narrower than the cell could fall between the quadrature nodes of
    the initial boxes and go unnoticed.
    """

    dim: int
    singular_at_origin: bool = False
    typical_scale: float | None = None

    @property
    def has_density(self) -> bool:
        return type(self).density is not StepDistribution.density

    @property
    def has_sampler(self) -> bool:
        return type(self).sample is not StepDistribution.sample

    def density(self, steps: np.ndarray) -> np.ndarray:
        raise DensityUnavailable(f"{type(self).__name__} offers no density")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise SamplerUnavailable(f"{type(self).__name__} offers no sampler")

    def origin_ball_mass_bound(self, radius: float) -> float:
        """Upper bound on the probability mass inside ``|dx| <= radius``."""
        raise NotImplementedError

    def _check_steps(self, steps) -> tuple[np.ndarray, bool]:
        """The steps as an ``(m, dim)`` array, and whether one step was given."""
        arr = np.asarray(steps, dtype=float)
        scalar = arr.ndim == 1
        if scalar:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise DimensionMismatch(
                f"steps must have {self.dim} component(s), got shape {arr.shape}"
            )
        return arr, scalar


def _check_dim(n: int) -> int:
    n = int(n)
    if n not in (1, 2, 3):
        raise InputError("dim", f"dimension must be 1, 2, or 3, got {n}")
    return n


class WienerStep(StepDistribution):
    """Gaussian increments ``N(0, dt * I_n)`` of a Wiener process."""

    def __init__(self, dt: float, dim: int):
        if not (dt > 0) or not math.isfinite(dt):
            raise InputError("dt", f"time interval must be positive, got {dt}")
        self.dt = float(dt)
        self.dim = _check_dim(dim)
        self.typical_scale = math.sqrt(self.dt)

    def density(self, steps) -> float | np.ndarray:
        arr, scalar = self._check_steps(steps)
        norm2 = np.einsum("ij,ij->i", arr, arr)
        out = (2.0 * math.pi * self.dt) ** (-self.dim / 2.0) * np.exp(-norm2 / (2.0 * self.dt))
        return float(out[0]) if scalar else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return math.sqrt(self.dt) * rng.standard_normal((int(size), self.dim))


class VelocityJumpStep(StepDistribution):
    """One flight ``v * T`` with ``T ~ Exp(rate)`` and ``v ~ N(0, I_n)``.

    The density is the exponential mixture of centred Gaussians with
    standard deviation ``T`` per coordinate.  It diverges at the origin for
    every dimension (logarithmically in 1D, like ``|dx|^(1-n)`` above), so
    evaluation at ``|dx| < 1e-300`` raises :class:`OriginSingularity`
    instead of returning an overflowing number.
    """

    singular_at_origin = True

    # Substituting u = rate * T turns the mixture integral into
    #   rate^n (2 pi)^(-n/2) * I_n(s),   s = rate * |dx|,
    #   I_n(s) = integral_0^inf exp(-u - s^2/(2 u^2) - n log u) du.
    # The integrand underflows for u < s / _U_LO_FACTOR and the upper tail
    # beyond 60 + 2 s is below 1e-25 of the total.
    _U_LO_FACTOR = 38.4

    def __init__(self, rate: float, dim: int):
        if not (rate > 0) or not math.isfinite(rate):
            raise InputError("lambda", f"jump rate must be positive, got {rate}")
        self.rate = float(rate)
        self.dim = _check_dim(dim)
        self.typical_scale = 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        size = int(size)
        travel = rng.exponential(1.0 / self.rate, size)
        velocity = rng.standard_normal((size, self.dim))
        return velocity * travel[:, None]

    def _mixture_integral(self, s: float) -> float:
        n = self.dim

        def integrand(u):
            return np.exp(-u - s * s / (2.0 * u * u) - n * np.log(u))

        u_lo = s / self._U_LO_FACTOR
        u_hi = 60.0 + 2.0 * s
        # interior peak near s / sqrt(n) for small s; flag it for QUADPACK
        peak = min(max(s / math.sqrt(n), 1.01 * u_lo), 0.5 * u_hi)
        breaks = sorted({peak, min(1.0, 0.5 * u_hi)})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            value, err = integrate.quad(
                integrand, u_lo, u_hi, epsabs=1e-13, epsrel=1e-12,
                limit=500, points=breaks,
            )
        tolerance_met = np.isfinite(value) and err <= max(1e-10, 1e-9 * abs(value))
        if not tolerance_met:
            # the integrand can span many decades of u; piecewise geometric
            # panels keep QUADPACK's extrapolation out of trouble
            edges = np.unique(np.concatenate([np.geomspace(u_lo, u_hi, 48), breaks]))
            value = err = 0.0
            for left, right in zip(edges[:-1], edges[1:]):
                piece, piece_err = integrate.quad(
                    integrand, left, right, epsabs=1e-14, epsrel=1e-12, limit=200
                )
                value += piece
                err += piece_err
        if not np.isfinite(value):
            raise QuadratureFailure(
                f"velocity-jump density integral is non-finite at s={s:.3e}"
            )
        if err > max(1e-10, 1e-9 * abs(value)):
            raise QuadratureFailure(
                f"velocity-jump density integral reached error {err:.2e} at s={s:.3e}"
            )
        return value

    def density(self, steps) -> float | np.ndarray:
        arr, scalar = self._check_steps(steps)
        radii = np.linalg.norm(arr, axis=1)
        if np.any(radii < ORIGIN_THRESHOLD):
            raise OriginSingularity(
                "velocity-jump density is non-finite at a zero step"
            )
        prefactor = self.rate**self.dim * (2.0 * math.pi) ** (-self.dim / 2.0)
        out = np.empty(len(arr))
        for i, r in enumerate(radii):
            out[i] = prefactor * self._mixture_integral(self.rate * float(r))
        return float(out[0]) if scalar else out

    def origin_ball_mass_bound(self, radius: float) -> float:
        """Mass of ``|v T| <= radius``: the exponential average of the chi CDF.

        The integrand is bounded by 1 and smooth away from ``T = 0``, so a
        single adaptive quadrature gives a tight bound without touching the
        singular density itself.
        """
        chi_cdf = stats.chi(df=self.dim).cdf
        rate = self.rate

        def integrand(t):
            return rate * math.exp(-rate * t) * chi_cdf(radius / t)

        upper = 60.0 / rate
        value, _ = integrate.quad(
            integrand, 0.0, upper, points=[min(radius, upper / 2)], limit=200
        )
        return min(1.0, float(value) + 1e-12)


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
    if law == "wiener":
        if "dt" not in data:
            raise InputError("dt", "missing required field for the wiener law")
        try:
            return WienerStep(dt=float(data["dt"]), dim=dim)
        except (TypeError, ValueError):
            raise InputError("dt", f"expected a positive number, got {data['dt']!r}") from None
    if law == "velocity_jump":
        if "lambda" not in data:
            raise InputError("lambda", "missing required field for the velocity_jump law")
        try:
            return VelocityJumpStep(rate=float(data["lambda"]), dim=dim)
        except (TypeError, ValueError):
            raise InputError("lambda", f"expected a positive number, got {data['lambda']!r}") from None
    raise InputError("law", f"unknown law {law!r}; expected 'wiener' or 'velocity_jump'")


def distribution_to_dict(dist: StepDistribution) -> dict:
    if isinstance(dist, WienerStep):
        return {"law": "wiener", "dt": dist.dt}
    if isinstance(dist, VelocityJumpStep):
        return {"law": "velocity_jump", "lambda": dist.rate}
    raise InputError("law", f"cannot serialize distribution of type {type(dist).__name__}")
