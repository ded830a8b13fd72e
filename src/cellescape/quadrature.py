"""Adaptive tensor-product Gauss-Kronrod cubature and the deterministic solvers.

The escape probability is computed by integrating the *stay* probability in
reference-cell coordinates,

    stay = integral over [-1,1]^n of stay_fraction(U, xi) p(A xi) |det A| dxi,

and returning ``1 - stay``.  The stay integrand has compact support (the
sign-orthant boxes of ``[-1, 1]^n``), so no infinite-domain truncation is
ever needed.  Each box is handled by an embedded 7/15 Gauss-Kronrod pair
(tensorized in 2D/3D); a box whose rule disagreement exceeds its share of
the remaining error budget is split along its longest axis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .conditional import conditional_transition_1d, stay_fraction, support_subdomains
from .errors import (
    DensityUnavailable,
    DimensionMismatch,
    EmptyInterval,
    NonFiniteIntegrand,
    ToleranceNotMet,
)
from .geometry import Box, MeshElement, build_affine_map

__all__ = [
    "QuadratureConfig",
    "ProbabilityEstimate",
    "integrate_adaptive",
    "escape_probability_det",
    "transition_probability_det_1d",
]

# Nodes and weights of the 15-point Kronrod extension of 7-point Gauss on
# [-1, 1] (QUADPACK values).  The Gauss nodes sit at the odd positions of
# the ascending Kronrod node list, so the low-order rule reuses the same
# integrand evaluations.
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG7 = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

# Radius (in local-step coordinates) of the neighbourhood excluded around
# the origin when the density is singular there.
ORIGIN_EXCLUSION_RADIUS = 1e-8


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget of the adaptive integrator."""

    abs_tol: float = 1e-6
    rel_tol: float = 1e-6
    max_subdivisions: int = 10**6

    def __post_init__(self):
        if not (self.abs_tol > 0):
            raise ValueError("abs_tol must be positive")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be non-negative")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A probability with its error estimate and cost metadata.

    ``cost`` counts integrand evaluations for the deterministic method and
    particles for Monte Carlo.  ``error_bound_95`` is only set by the Monte
    Carlo estimator when the estimate is exactly 0 or 1, where the binomial
    standard deviation degenerates; it is the one-sided 95% Clopper-Pearson
    distance to the estimate.
    """

    value: float
    error_estimate: float
    method: str
    cost: int
    wall_time: float
    error_bound_95: float | None = None

    def to_dict(self) -> dict:
        out = {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "method": self.method,
            "cost": self.cost,
            "wall_time": self.wall_time,
        }
        if self.error_bound_95 is not None:
            out["error_bound_95"] = self.error_bound_95
        return out


@dataclass
class _Frame:
    """Mutable state of one multi-box adaptive integration."""

    n_evals: int = 0
    n_splits: int = 0
    # accepted leaves
    acc_value: float = 0.0
    acc_error: float = 0.0
    acc_volume: float = 0.0
    acc_boxes: list = field(default_factory=list)  # (lo, hi, high, err) arrays


def _rule(n: int):
    pts = _XGK.reshape(-1, 1)
    wh = _WGK
    wl_1d = np.zeros(15)
    wl_1d[1::2] = _WG7
    wl = wl_1d
    if n > 1:
        grids = np.meshgrid(*([_XGK] * n), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        for _ in range(n - 1):
            wh = np.multiply.outer(wh, _WGK).ravel()
            wl = np.multiply.outer(wl, wl_1d).ravel()
    return pts, wh, wl


_RULE_CACHE = {n: _rule(n) for n in (1, 2, 3)}


def _evaluate(f, lo, hi, frame: _Frame):
    """Apply the embedded pair to a batch of boxes.  lo, hi: (m, n)."""
    n = lo.shape[1]
    pts, wh, wl = _RULE_CACHE[n]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None, :] + half[:, None, :] * pts[None, :, :]
    values = np.asarray(f(x.reshape(-1, n)), dtype=float).reshape(lo.shape[0], -1)
    frame.n_evals += values.size
    if not np.all(np.isfinite(values)):
        raise NonFiniteIntegrand("integrand returned NaN or infinity")
    jac = np.prod(half, axis=1)
    high = jac * (values @ wh)
    low = jac * (values @ wl)
    return high, np.abs(high - low)


def _refine(f, lo, hi, high, err, budget, total_volume, config, frame: _Frame):
    """Accept or split boxes until the pending set is empty.

    Each pending box is accepted once its rule disagreement is at most its
    volume share of the remaining error budget; the share rate never
    decreases, so the accumulated error stays below ``budget``.
    """
    spent = 0.0
    remaining_volume = total_volume - frame.acc_volume
    while lo.shape[0] > 0:
        volumes = np.prod(hi - lo, axis=1)
        rate = (budget - spent) / remaining_volume
        ok = err <= rate * volumes
        if np.any(ok):
            frame.acc_value += float(high[ok].sum())
            frame.acc_error += float(err[ok].sum())
            frame.acc_volume += float(volumes[ok].sum())
            frame.acc_boxes.append((lo[ok], hi[ok], high[ok], err[ok]))
            spent += float(err[ok].sum())
            remaining_volume -= float(volumes[ok].sum())
        lo, hi, high, err = lo[~ok], hi[~ok], high[~ok], err[~ok]
        if lo.shape[0] == 0:
            break
        if frame.n_splits + lo.shape[0] > config.max_subdivisions:
            raise ToleranceNotMet(
                frame.acc_value + float(high.sum()), frame.acc_error + float(err.sum())
            )
        frame.n_splits += lo.shape[0]
        widths = hi - lo
        axis = np.argmax(widths, axis=1)
        rows = np.arange(lo.shape[0])
        mid = lo.copy()
        mid[rows, axis] += 0.5 * widths[rows, axis]
        hi_left = hi.copy()
        hi_left[rows, axis] = mid[rows, axis]
        lo_right = lo.copy()
        lo_right[rows, axis] = mid[rows, axis]
        lo = np.concatenate([lo, lo_right])
        hi = np.concatenate([hi_left, hi])
        high, err = _evaluate(f, lo, hi, frame)


def _integrate_boxes(f, boxes, config: QuadratureConfig):
    """Adaptive integration over a union of disjoint boxes.

    Returns ``(value, error_estimate, n_evals)`` with
    ``error_estimate <= max(abs_tol, rel_tol * |value|)``.
    """
    frame = _Frame()
    lo = np.array([b.lo for b in boxes], dtype=float)
    hi = np.array([b.hi for b in boxes], dtype=float)
    total_volume = float(np.prod(hi - lo, axis=1).sum())
    high, err = _evaluate(f, lo, hi, frame)
    budget = max(config.abs_tol, config.rel_tol * abs(float(high.sum())))
    while True:
        _refine(f, lo, hi, high, err, budget, total_volume, config, frame)
        goal = max(config.abs_tol, config.rel_tol * abs(frame.acc_value))
        if frame.acc_error <= goal:
            return frame.acc_value, frame.acc_error, frame.n_evals
        # The relative goal tightened below the budget actually used:
        # re-process the accepted leaves against the smaller budget.
        lo = np.concatenate([b[0] for b in frame.acc_boxes])
        hi = np.concatenate([b[1] for b in frame.acc_boxes])
        high = np.concatenate([b[2] for b in frame.acc_boxes])
        err = np.concatenate([b[3] for b in frame.acc_boxes])
        frame.acc_value = frame.acc_error = frame.acc_volume = 0.0
        frame.acc_boxes = []
        budget = goal


def integrate_adaptive(f, box: Box, config: QuadratureConfig | None = None):
    """Integrate ``f`` over an axis-aligned box (1 <= dim <= 3).

    Parameters
    ----------
    f : callable
        Vectorized integrand mapping an ``(m, n)`` array of points to an
        ``(m,)`` array of values.
    box : Box
        Integration domain with positive volume.
    config : QuadratureConfig, optional

    Returns
    -------
    (value, error_estimate) : tuple of float
        ``error_estimate`` is the accumulated rule disagreement of the
        accepted boxes and satisfies
        ``error_estimate <= max(abs_tol, rel_tol * |value|)``.

    Raises
    ------
    ToleranceNotMet
        When ``max_subdivisions`` is exhausted; carries the best value and
        the achieved error estimate.
    NonFiniteIntegrand
        If any integrand evaluation is NaN or infinite.
    """
    config = config or QuadratureConfig()
    if box.dim not in (1, 2, 3):
        raise DimensionMismatch("adaptive integration supports dimensions 1-3")
    value, error, _ = _integrate_boxes(f, [box], config)
    return value, error


def _split_corner_cube(box: Box, radius: float) -> tuple[list[Box], Box]:
    """Split off the cube of half-width ``radius`` at the origin corner.

    Every orthant has one corner at the origin.  Returns
    the remainder, decomposed into ``n`` boxes with disjoint interiors
    (piece k restricts axes before k to the corner strip and axis k to the
    rest), together with the corner cube itself.
    """
    n = box.dim
    sign = np.where(box.hi > 0.0, 1.0, -1.0)
    pieces = []
    for k in range(n):
        lo = box.lo.copy()
        hi = box.hi.copy()
        for j in range(k):
            if sign[j] > 0.0:
                hi[j] = radius
            else:
                lo[j] = -radius
        if sign[k] > 0.0:
            lo[k] = radius
        else:
            hi[k] = -radius
        pieces.append(Box(lo=lo, hi=hi))
    corner = Box(
        lo=np.where(sign > 0.0, 0.0, -radius),
        hi=np.where(sign > 0.0, radius, 0.0),
    )
    return pieces, corner


def _origin_boxes(orthants, dist, op_norm: float) -> tuple[list[Box], float]:
    """Boxes covering orthant cubes, refined toward their corner at the origin.

    Each orthant's corner cube is halved geometrically down to the local
    scale of the step density, so that its core cannot fall between the
    quadrature nodes of the first generation.  For origin-singular
    densities the innermost cube of half-width ``ORIGIN_EXCLUSION_RADIUS``
    is left out (an orthant no wider than it yields no box) and its
    worst-case probability mass is returned as an error contribution.
    ``op_norm`` is the 2-norm of the local-to-global step map.
    """
    singular = bool(getattr(dist, "singular_at_origin", False))
    scale = getattr(dist, "typical_scale", None)
    local_scale = math.inf if scale is None else scale / op_norm
    boxes: list[Box] = []
    for orthant in orthants:
        extent = float(orthant.hi[0] - orthant.lo[0])
        if singular and extent <= ORIGIN_EXCLUSION_RADIUS:
            continue
        levels = 0
        if extent > local_scale:
            levels = min(45, int(math.ceil(math.log2(extent / local_scale))))
        if singular:
            # keep the innermost box wider than the cube that will be excluded
            levels = min(levels, int(math.log2(0.5 * extent / ORIGIN_EXCLUSION_RADIUS)))
        corner, width = orthant, extent
        for _ in range(levels):
            width *= 0.5
            pieces, corner = _split_corner_cube(corner, width)
            boxes.extend(pieces)
        if singular:
            boxes.extend(_split_corner_cube(corner, ORIGIN_EXCLUSION_RADIUS)[0])
        else:
            boxes.append(corner)
    extra_error = 0.0
    if singular and orthants:
        global_radius = op_norm * ORIGIN_EXCLUSION_RADIUS * math.sqrt(orthants[0].dim)
        extra_error = float(dist.origin_ball_mass_bound(global_radius))
    return boxes, extra_error


def _transition_boxes(a, b, c, d, dist) -> tuple[list[Box], float]:
    """Subdivide the transition window ``[c - b, d - a]``, in ascending order.

    A window containing the zero step is split into the orthants
    ``[c - b, 0]`` and ``[0, d - a]``, each refined by the origin ladder.
    The kinks of the conditional factor, at ``c - a`` and ``d - b``, then
    become box edges.
    """
    w0, w1 = c - b, d - a
    if w0 <= 0.0 <= w1:
        orthants = [Box(lo=[lo], hi=[hi]) for lo, hi in ((w0, 0.0), (0.0, w1)) if lo < hi]
        boxes, extra_error = _origin_boxes(orthants, dist, 1.0)
        boxes.sort(key=lambda box: box.lo[0])
    else:
        boxes, extra_error = [Box(lo=[w0], hi=[w1])], 0.0
    kinks = sorted({c - a, d - b})
    split = []
    for box in boxes:
        left, right = float(box.lo[0]), float(box.hi[0])
        inner = [x for x in kinks if left < x < right]
        split.extend(Box(lo=[lo], hi=[hi]) for lo, hi in zip([left, *inner], [*inner, right]))
    return split, extra_error


def _solve(dist, dim: int, config: QuadratureConfig | None, prepare, complement: bool) -> ProbabilityEstimate:
    """The deterministic solve shared by the escape and transition solvers.

    ``prepare()`` returns the integrand, its initial boxes and the mass
    bound of the excluded origin neighbourhood.  The probability is the
    integral, or its complement ``1 - integral`` when ``complement`` is
    set, clamped into ``[0, 1]``.  A ``ToleranceNotMet`` is re-raised with
    that probability of its best value, and with the excluded mass added to
    its error.
    """
    config = config or QuadratureConfig()
    if not dist.has_density:
        raise DensityUnavailable(
            f"{type(dist).__name__} offers no density; use the Monte Carlo estimator"
        )
    if dist.dim != dim:
        raise DimensionMismatch(
            f"distribution dimension {dist.dim} != element dimension {dim}"
        )
    start = time.perf_counter()
    f, boxes, extra_error = prepare()

    def probability(integral: float) -> float:
        return min(1.0, max(0.0, 1.0 - integral if complement else integral))

    try:
        integral, quad_error, n_evals = _integrate_boxes(f, boxes, config)
    except ToleranceNotMet as exc:
        raise ToleranceNotMet(probability(exc.value), exc.error_estimate + extra_error) from None
    return ProbabilityEstimate(
        value=probability(integral),
        error_estimate=quad_error + extra_error,
        method="deterministic",
        cost=n_evals,
        wall_time=time.perf_counter() - start,
    )


def escape_probability_det(element: MeshElement, dist, config: QuadratureConfig | None = None) -> ProbabilityEstimate:
    """Deterministic escape probability of one step from the element.

    Integrates the stay probability over the compact stay support in local
    coordinates and returns its complement, clamped into ``[0, 1]``.

    For densities flagged ``singular_at_origin``, a cube of half-width
    1e-8 (local coordinates) around the zero step is excluded from the
    integration domain and the law's worst-case mass bound for the excluded
    neighbourhood is added to the error estimate.

    Raises
    ------
    DensityUnavailable, DimensionMismatch, ToleranceNotMet,
    NonFiniteIntegrand; DegenerateElement propagates from the geometry.
    """

    cell = element.reference_cell

    def prepare():
        amap = build_affine_map(element)
        op_norm = float(np.linalg.norm(amap.matrix, 2))
        boxes, extra_error = _origin_boxes(support_subdomains(cell).boxes, dist, op_norm)

        def f(local_steps: np.ndarray) -> np.ndarray:
            global_steps = amap.global_step(local_steps)
            return stay_fraction(cell, local_steps) * dist.density(global_steps) * amap.abs_det

        return f, boxes, extra_error

    return _solve(dist, element.dim, config, prepare, complement=True)


def transition_probability_det_1d(source, target, dist, config: QuadratureConfig | None = None) -> ProbabilityEstimate:
    """Deterministic 1D transition probability from ``[a, b]`` into ``[c, d]``.

    Integrates the conditional transition probability times the step
    density over the compact window ``[c - b, d - a]``.  The piecewise-
    linear kinks of the conditional factor at ``c - a`` and ``d - b`` seed
    the initial subdivision, and the zero step gets the same origin ladder
    and exclusion as the escape solver.
    """
    a, b = float(source[0]), float(source[1])
    c, d = float(target[0]), float(target[1])

    def prepare():
        if b <= a:
            raise EmptyInterval(f"source interval [{a}, {b}] has non-positive length")
        if d <= c:
            raise EmptyInterval(f"target interval [{c}, {d}] has non-positive length")
        boxes, extra_error = _transition_boxes(a, b, c, d, dist)

        def f(steps: np.ndarray) -> np.ndarray:
            return conditional_transition_1d((a, b), (c, d), steps[:, 0]) * dist.density(steps)

        return f, boxes, extra_error

    return _solve(dist, 1, config, prepare, complement=False)
