"""Adaptive tensor-product Gauss-Kronrod cubature and the deterministic solvers.

The escape probability is computed by integrating the *stay* probability in
reference-cell coordinates,

    stay = integral of stay_fraction(U, d) p(A d) |det A| dd,

and returning ``1 - stay``.  The stay fraction vanishes outside a compact
support (the hexagon or cuboctahedron ``U - U`` for a simplex, ``[-1, 1]^n``
for a box), so no infinite-domain truncation is ever needed.  The support
is a union of cones from the zero step, one over each facet piece, and the
stay fraction is smooth on each cone: on a simplex it is ``(1 - t)^n`` in
the radial coordinate ``t``.  Each cone is mapped onto the unit box
``(t, w)`` by ``d = t b(w)``, with Duffy's collapse on triangular facets,
so no kink of the integrand crosses a box.  Each box is handled by an
embedded 7/15 Gauss-Kronrod pair (tensorized in 2D/3D); a box whose rule
disagreement exceeds its share of the remaining error budget is split
along its longest axis.

A law whose density is a Gaussian scale mixture says so through a private
``_scale_mixture`` hook; of the shipped laws, ``WienerStep`` does, with its
one scale.  On each cone the stay fraction is then a polynomial in ``t``,
and its radial integral against each Gaussian is a sum of the moments
``M_k(alpha) = integral_0^1 t^k exp(-alpha t^2) dt``, in closed form: a
series below ``alpha = 2`` and Cody's rational approximations of
``exp(y^2) erfc(y)`` above, each one product of a coefficient table and a
power table over all nodes of an integrand call, whose size ``_MAX_POINTS``
bounds on both paths; a node more than ``_FAR`` steps out takes the
moments' limit, written in ``|A b| / sigma`` so that nothing overflows
(``_far_terms``).  The cubature runs over the facet coordinates ``w``
alone, and a segment's two cones need none.  Every such solve starts on
the same facet boxes of its reference cell, so the rays, facet Jacobians
and stay polynomials at their nodes are built once per cell; a solve
applies its affine map and its law to them, and computes node data afresh
only for the boxes it splits.  Every other law -- ``VelocityJumpStep``,
user laws, and subclasses that override ``density`` -- keeps the cubature
over whole cones, whose radial axis is split geometrically toward the zero
step and integrated down to it.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .conditional import _interval, conditional_transition_1d, stay_fraction
from .distributions import _check_law
from .errors import NonFiniteIntegrand, ToleranceNotMet, _integer, _real
from .geometry import ElementKind, MeshElement, _check_element

__all__ = [
    "QuadratureConfig",
    "ProbabilityEstimate",
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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget of the adaptive integrator.

    The solvers meet ``error_estimate <= max(abs_tol, rel_tol * p)`` for
    the probability ``p`` they report.  ``abs_tol`` must be a positive and
    ``rel_tol`` a non-negative finite number, and ``max_subdivisions`` an
    integer of at least 1; ``InputError`` names the field that is not.
    """

    abs_tol: float = 1e-6
    rel_tol: float = 1e-6
    max_subdivisions: int = 10**6

    def __post_init__(self):
        object.__setattr__(self, "abs_tol", _real("abs_tol", self.abs_tol))
        object.__setattr__(self, "rel_tol", _real("rel_tol", self.rel_tol, positive=False))
        object.__setattr__(self, "max_subdivisions", _integer("max_subdivisions", self.max_subdivisions, 1))


_DEFAULT_CONFIG = QuadratureConfig()


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
        """The fields in order, without those that are None."""
        return {name: value for name, value in asdict(self).items() if value is not None}


def _rule(n: int):
    """Nodes and the Kronrod and Gauss weights of the tensor rule on ``[-1, 1]^n``.

    For ``n = 0`` the rule is one node of weight 1, on which both agree.
    """
    wl_1d = np.zeros(15)
    wl_1d[1::2] = _WG7
    pts = np.array(list(itertools.product(_XGK, repeat=n)))
    wh = wl = np.ones(1)
    for _ in range(n):
        wh = np.multiply.outer(wh, _WGK).ravel()
        wl = np.multiply.outer(wl, wl_1d).ravel()
    return pts, wh, wl


_RULE_CACHE = {n: _rule(n) for n in (0, 1, 2, 3)}

# Most integrand nodes per call of ``f``: the one bound on the temporaries of
# both paths, however many boxes a pass holds.  A full call peaks at 74-93 MB
# on parallelepiped facets and 29 MB on tetrahedron cones (tracemalloc).
_MAX_POINTS = 2**18


def _nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rule's nodes in the boxes ``lo, hi`` of shape ``(m, n)``, box by box: ``(m * 15^n, n)``."""
    m, n = lo.shape
    pts = _RULE_CACHE[n][0]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # one coordinate at a time: a broadcast over the length-n axis runs as
    # numpy inner loops of length n <= 3
    x = np.empty((m, len(pts), n))
    for j in range(n):
        x[:, :, j] = mid[:, j, None] + half[:, j, None] * pts[:, j]
    return x.reshape(m * len(pts), n)


def _evaluate(f, lo, hi, tag):
    """Apply the embedded pair to a batch of boxes.  lo, hi: (m, n); tag: (m,).

    ``f`` is called on whole boxes, at most ``_MAX_POINTS`` nodes (and at
    least one box) at a time.
    """
    per_box = 15 ** lo.shape[1]
    per_call = max(1, _MAX_POINTS // per_box)
    values = np.concatenate([
        np.asarray(f(_nodes(lo[s:s + per_call], hi[s:s + per_call]), np.repeat(tag[s:s + per_call], per_box)),
                   dtype=float)
        for s in range(0, lo.shape[0], per_call)
    ])
    return _apply_rule(values.reshape(-1, per_box), lo, hi)


def _apply_rule(values, lo, hi):
    """The Kronrod estimate and the rule disagreement of each box, from its row of ``values`` at its nodes."""
    if not np.isfinite(values).all():
        raise NonFiniteIntegrand("integrand returned NaN or infinity")
    _, wh, wl = _RULE_CACHE[lo.shape[1]]
    jac = (0.5 * (hi - lo)).prod(axis=1)
    high = jac * (values @ wh)
    low = jac * (values @ wl)
    return high, np.abs(high - low)


def _integrate_boxes(f, lo, hi, tag, config: QuadratureConfig, reported=abs, values=None):
    """Adaptive integration over a union of disjoint boxes.

    ``lo`` and ``hi`` are the ``(m, n)`` corners of the boxes and ``tag``
    holds one integer per box that both halves of a split inherit; ``f``
    receives the ``(points, n)`` nodes and the tag of each node's box.
    ``values``, when given, are the integrand at the nodes of the given
    boxes, as ``_nodes`` orders them, and ``f`` is called on split boxes
    only.  A refinement pass accepts each pending box once its rule
    disagreement is at most its volume share of the error budget not yet
    spent, and splits the others along their longest axis; the share rate
    never decreases, so the accepted error stays below the budget.  The
    first budget comes from the first estimate; when the relative goal of
    the accepted value is tighter, the accepted leaves are refined again
    against it.  The relative tolerance applies to ``reported(value)``:
    the integral's magnitude, or the probability a solver reports of it.

    Returns ``(value, error_estimate, n_evals)`` with
    ``error_estimate <= max(abs_tol, rel_tol * reported(value))``.
    """
    nodes_per_box = 15 ** lo.shape[1]
    volumes = (hi - lo).prod(axis=1)
    total_volume = float(volumes.sum())
    if values is None:
        high, err = _evaluate(f, lo, hi, tag)
    else:
        high, err = _apply_rule(values.reshape(-1, nodes_per_box), lo, hi)
    n_evals = high.size * nodes_per_box
    n_splits = 0
    budget = max(config.abs_tol, config.rel_tol * reported(float(high.sum())))
    while True:
        value = error = 0.0
        remaining_volume = total_volume
        # (ok, lo, hi, tag, high, err) of each generation: the rows where
        # ok is set are its accepted leaves, taken out only for a re-pass
        accepted = []
        while True:
            rate = (budget - error) / remaining_volume
            ok = err <= rate * volumes
            accepted.append((ok, lo, hi, tag, high, err))
            if ok.all():  # the last generation of a pass: no box to split
                value += float(high.sum())
                error += float(err.sum())
                break
            value += float(high[ok].sum())
            error += float(err[ok].sum())
            remaining_volume -= float(volumes[ok].sum())
            split = ~ok
            lo, hi, tag = lo[split], hi[split], tag[split]
            if n_splits + lo.shape[0] > config.max_subdivisions:
                raise ToleranceNotMet(value + float(high[split].sum()), error + float(err[split].sum()))
            n_splits += lo.shape[0]
            widths = hi - lo
            axis = np.argmax(widths, axis=1)
            rows = np.arange(lo.shape[0])
            mid = lo[rows, axis] + 0.5 * widths[rows, axis]
            hi_left = hi.copy()
            hi_left[rows, axis] = mid
            lo_right = lo.copy()
            lo_right[rows, axis] = mid
            lo = np.concatenate([lo, lo_right])
            hi = np.concatenate([hi_left, hi])
            tag = np.concatenate([tag, tag])
            volumes = (hi - lo).prod(axis=1)
            high, err = _evaluate(f, lo, hi, tag)
            n_evals += high.size * nodes_per_box
        goal = max(config.abs_tol, config.rel_tol * reported(value))
        if error <= goal:
            return value, error, n_evals
        # The relative goal tightened below the budget actually used:
        # re-process the accepted leaves against the smaller budget.
        leaves = [[array[ok] for array in arrays] for ok, *arrays in accepted]
        lo, hi, tag, high, err = (np.concatenate(parts) for parts in zip(*leaves))
        volumes = (hi - lo).prod(axis=1)
        budget = goal


# Cody's rational Chebyshev approximations of the scaled complementary error
# function erfcx(y) = exp(y^2) erfc(y) (Math. Comp. 23, 1969, as in his
# CALERF): C(y) / D(y) for 0.46875 <= y <= 4, and above that
# (1/sqrt(pi) - P(r) / (y^2 Q(r))) / y with r = 1/y^2.  The rows hold C, D,
# P and Q, lowest power first, so that one product with the powers of y,
# or of r, gives the numerator and the denominator together.
_ERF_TABLE = np.array([
    [1.23033935479799725e03, 2.05107837782607147e03, 1.71204761263407058e03,
     8.81952221241769090e02, 2.98635138197400131e02, 6.61191906371416295e01,
     8.88314979438837594e00, 5.64188496988670089e-1, 2.15311535474403846e-8],
    [1.23033935480374942e03, 3.43936767414372164e03, 4.36261909014324716e03,
     3.29079923573345963e03, 1.62138957456669019e03, 5.37181101862009858e02,
     1.17693950891312499e02, 1.57449261107098347e01, 1.0],
    [6.58749161529837803e-4, 1.60837851487422766e-2, 1.25781726111229246e-1,
     3.60344899949804439e-1, 3.05326634961232344e-1, 1.63153871373020978e-2, 0.0, 0.0, 0.0],
    [2.33520497626869185e-3, 6.05183413124413191e-2, 5.27905102951428412e-1,
     1.87295284992346725e00, 2.56852019228982242e00, 1.0, 0.0, 0.0, 0.0],
])

# The radial moments recur upward from this alpha and come from a series
# below it, where upward the recurrence cancels (it would lose a digit at
# alpha = 0.5).
_UPWARD_FROM = 2.0
# Below _UPWARD_FROM, the recurrence run downward from zeros far up sums to
# M_k = exp(-alpha) sum_j (2 alpha)^j / prod_(i <= j) (k + 1 + 2i), all terms
# positive.  _SERIES[k, j] is the j-th coefficient of order k, for every
# order the facet integrand takes (at most 2n - 1 = 5).  Term j is at most
# 4^j / (3 * 5 ... (2j + 1)) of the first, so the 23 terms kept leave at most
# 6.5e-17 relative for every order.
_SERIES = np.array([[1 / math.prod(range(k + 1, k + 2 * j + 2, 2)) for j in range(23)] for k in range(6)])


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """The row-major ``(count, len(x))`` table of ``x^0 .. x^(count - 1)``, ``count >= 2``.

    Rows ``m + 1 .. 2m`` are rows ``1 .. m`` times row ``m``, one multiply of
    contiguous rows, so the table takes about ``log2(count)`` calls.
    """
    table = np.empty((count, len(x)))
    table[0] = 1.0
    table[1] = x
    m = 1
    while m + 1 < count:
        k = min(m, count - 1 - m)
        np.multiply(table[1:k + 1], table[m], out=table[m + 1:m + k + 1])
        m += k
    return table


def _upward_moments(a: np.ndarray, first: int, last: int) -> np.ndarray:
    """``M_first .. M_last`` at ``a >= _UPWARD_FROM``, recurring upward from ``M_0`` and ``M_1``."""
    tail = np.exp(-a)
    y = np.sqrt(a)
    low = y <= 4.0
    v = np.where(low, y, 1.0 / a)
    c, d, p, q = _ERF_TABLE @ _powers(v, _ERF_TABLE.shape[1])
    erfcx = np.where(low, c / d, (1.0 / math.sqrt(math.pi) - v * p / q) / y)
    two_a = 2.0 * a
    up = [0.5 * math.sqrt(math.pi) / y * (1.0 - tail * erfcx), (1.0 - tail) / two_a]
    for k in range(2, last + 1):
        up.append(((k - 1) * up[k - 2] - tail) / two_a)
    return np.array(up[first:])


def _series_moments(x: np.ndarray, first: int, last: int) -> np.ndarray:
    """``M_first .. M_last`` at ``x < _UPWARD_FROM``, from the series of ``_SERIES``."""
    return np.exp(-x) * (_SERIES[first:last + 1] @ _powers(2.0 * x, _SERIES.shape[1]))


def _radial_moments(alpha: np.ndarray, first: int, last: int) -> np.ndarray:
    """Gaussian radial moments ``M_k(alpha) = integral_0^1 t^k exp(-alpha t^2) dt``.

    ``M_k = gamma((k + 1)/2, alpha) / (2 alpha^((k + 1)/2))`` (DLMF 8.2.1);
    returns ``M_first .. M_last`` (``last <= 5``) stacked along a new first
    axis.  Every order follows ``(k + 1) M_k = 2 alpha M_(k+2) + exp(-alpha)``
    (by parts).  From ``alpha = 2`` up it recurs upward from
    ``M_0 = sqrt(pi/alpha)/2 (1 - exp(-alpha) erfcx(sqrt(alpha)))`` and
    ``M_1 = (1 - exp(-alpha)) / (2 alpha)``, with Cody's numerator and
    denominator of ``erfcx`` from one product of a coefficient table and a
    power table.  Below, the recurrence run downward is the series of
    ``_SERIES``, which is one product of its rows and the powers of
    ``2 alpha``.  Both keep about 1e-15 relative.  All nodes go at once, as
    many as ``_MAX_POINTS`` allows, and a side of ``alpha = 2`` with none is
    skipped; the series' 23-row power table is most of the temporaries.
    """
    flat = alpha.reshape(-1)
    series = flat < _UPWARD_FROM
    count = np.count_nonzero(series)
    if count == flat.size:  # no mask to apply
        out = _series_moments(flat, first, last)
    elif count == 0:
        out = _upward_moments(flat, first, last)
    else:  # index arrays scatter faster than masks
        out = np.empty((last - first + 1, flat.size))
        below, above = np.flatnonzero(series), np.flatnonzero(~series)
        out[:, below] = _series_moments(flat[below], first, last)
        out[:, above] = _upward_moments(flat[above], first, last)
    return out.reshape(out.shape[:1] + alpha.shape)


def _stay_polynomial(a: np.ndarray) -> np.ndarray:
    """Coefficients ``c_j`` of ``prod_i (1 - t a_i) = sum_j c_j t^j``.

    ``a`` is ``(m, n)``; the result is ``(n + 1, m)``.
    """
    m, n = a.shape
    c = np.zeros((n + 1, m))
    c[0] = 1.0
    for i in range(n):
        c[1:i + 2] -= a[:, i] * c[:i + 1]
    return c


def _mixture_hook(dist):
    """The law's ``_scale_mixture`` hook, or None.

    The hook describes the density of the class that defines it, so it
    counts only when that class also defines the law's ``density``: a
    subclass that overrides ``density`` alone is a law without the hook.
    """
    return dist._scale_mixture if _owns_mixture(type(dist)) else None


@functools.cache
def _owns_mixture(law: type) -> bool:
    """Whether the class in ``law``'s MRO that defines ``_scale_mixture`` also defines ``density``.

    Decided once per class, from the class attributes as they are then.
    """
    def owner(name):
        return next((cls for cls in law.__mro__ if name in vars(cls)), None)

    hook = owner("_scale_mixture")
    return hook is not None and hook is owner("density")


def _bit_vectors(n: int) -> list[list[int]]:
    return [[(mask >> i) & 1 for i in range(n)] for mask in range(2**n)]


def _support_facets(kind: ElementKind) -> list[np.ndarray]:
    """Vertex lists of the facet pieces of the stay support of the reference cell of ``kind``.

    On a simplex the support is the difference body ``U - U``: its vertices
    are the differences of the cell's vertices, and its facets lie on the
    planes ``c . d = 1`` with ``c`` in ``{0, 1}^n`` or ``{0, -1}^n``, ``c != 0``
    (a hexagon in 2D, a cuboctahedron in 3D).  The stay fraction
    ``(1 - g(d))^n`` has the gauge ``g(d) = max_c c . d`` of that body, which
    is linear on the cone over each facet.  On a box the support is
    ``[-1, 1]^n`` and ``prod(1 - |d_i|)`` is smooth on the cone over each
    facet piece cut off by the coordinate planes.
    """
    n = kind.dim
    eye = np.eye(n)
    if kind.is_simplex:
        corners = np.vstack([np.zeros(n), eye])
        vertices = np.array([p - q for i, p in enumerate(corners) for j, q in enumerate(corners) if i != j])
        normals = [sign * np.array(bits) for sign in (1, -1) for bits in _bit_vectors(n) if any(bits)]
        return [vertices[vertices @ c == 1.0] for c in normals]
    facets = []
    for k in range(n):
        for bits in _bit_vectors(n):
            signs = 1.0 - 2.0 * np.array(bits)
            others = [signs[j] * eye[j] for j in range(n) if j != k]
            facets.append(np.array([
                signs[k] * eye[k] + sum(w * e for w, e in zip(picks, others))
                for picks in _bit_vectors(n - 1)
            ]))
    return facets


@dataclass(frozen=True)
class _Cones:
    """The stay support of one reference cell as cones from the zero step.

    Cone ``k`` is ``d = t b(w)`` for ``(t, w)`` in ``[0, 1]^n``, where
    ``b(w) = (1, w_1, s w_2) @ frames[k]`` (in 3D; ``(1, w_1)`` in 2D,
    ``(1,)`` in 1D) runs over one facet piece.  The frame's rows are a
    vertex of the piece and its ``n - 1`` edges; on a triangular facet the
    second edge starts at the end of the first and ``s = w_1`` (Duffy's
    collapse onto the vertex), on a parallelogram both start at the vertex
    and ``s = 1``.  The Jacobian of the map is ``t^(n-1) s abs_det[k]``.

    A box of the cubature holds the coordinates ``(t, w)`` of one cone and
    carries the cone's index ``k`` as its tag, so ``t`` keeps full
    precision next to every apex.
    """

    kind: ElementKind
    frames: np.ndarray  # (cones, n, n)
    collapse: np.ndarray  # (cones,) bool
    abs_det: np.ndarray  # (cones,)
    # (n + 1, 1): the stay polynomial of a simplex, the same on every ray; None on a box
    simplex_stay: np.ndarray | None

    def boxes(self, breaks: list[float]):
        """One box per cone and radial interval between ``breaks``.

        Returns the corners ``lo, hi`` of shape ``(boxes, n)`` and the cone
        index of each box.
        """
        cones, n = self.frames.shape[:2]
        radial = len(breaks) - 1
        lo = np.zeros((cones * radial, n))
        hi = np.ones((cones * radial, n))
        lo[:, 0] = np.tile(breaks[:-1], cones)
        hi[:, 0] = np.tile(breaks[1:], cones)
        return lo, hi, np.repeat(np.arange(cones), radial)

    def facet_nodes(self, w: np.ndarray, k: np.ndarray):
        """The rays ``b(w)`` at the facet coordinates ``w`` of cones ``k``, and the facet's Jacobian there.

        A ray is the step at ``t = 1``: the step at ``(t, w)`` is ``t b(w)``,
        and the map's Jacobian there is ``t^(n-1)`` times the facet's,
        ``s abs_det[k]``.  The points of one box share a cone and arrive in
        one run, so each run is mapped by a single matrix product.
        """
        m, n = len(w), w.shape[1] + 1
        coef = np.ones((m, n))
        coef[:, 1:] = w
        jac = self.abs_det[k]
        if self.collapse.any():
            squeeze = np.where(self.collapse[k], w[:, 0], 1.0)
            coef[:, 2] *= squeeze
            jac *= squeeze
        rays = np.empty((m, n))
        cuts = np.flatnonzero(k[1:] != k[:-1]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, m]):
            np.matmul(coef[lo:hi], self.frames[k[lo]], out=rays[lo:hi])
        return rays, jac

    def radial_nodes(self, w: np.ndarray, k: np.ndarray):
        """``facet_nodes`` and the stay fraction along each ray, which only the radial path reads.

        The stay fraction comes as the ``(n + 1, points)`` coefficients of a
        polynomial in ``t`` (see ``_facet_values``), or on a simplex as the
        one column ``simplex_stay``, the same on every ray.
        """
        rays, jac = self.facet_nodes(w, k)
        return rays, jac, self.simplex_stay if self.kind.is_simplex else _stay_polynomial(np.abs(rays))

    @functools.cached_property
    def first_pass(self):
        """The facet boxes that start every radial solve, and their node data.

        They are ``boxes([0, 1])`` without the radial axis: the corners
        ``lo, hi``, the cone of each box, and ``radial_nodes`` at the boxes'
        nodes, all read-only.  Built on first use, once per cell.
        """
        lo, hi, k = self.boxes([0.0, 1.0])
        lo, hi = lo[:, 1:], hi[:, 1:]
        data = (lo, hi, k, *self.radial_nodes(_nodes(lo, hi), np.repeat(k, 15 ** lo.shape[1])))
        for array in data:
            array.flags.writeable = False
        return data[:3], data[3:]


def _cones(kind: ElementKind) -> _Cones:
    facets = _support_facets(kind)
    frames = []
    for vertices in facets:
        rel = vertices[1:] - vertices[0]
        if len(rel) == 3:  # a parallelogram: keep two edges, drop the diagonal
            rel = rel[[not np.array_equal(2.0 * r, rel.sum(axis=0)) for r in rel]]
        elif len(rel) == 2:  # a triangle: the second edge runs from the end of the first
            rel = np.array([rel[0], rel[1] - rel[0]])
        frames.append(np.vstack([vertices[0], rel]))
    frames = np.array(frames)
    return _Cones(
        kind=kind,
        frames=frames,
        collapse=np.array([len(vertices) == 3 for vertices in facets]),
        abs_det=np.abs(np.linalg.det(frames)),
        simplex_stay=_stay_polynomial(np.ones((1, kind.dim))) if kind.is_simplex else None,
    )


_CONE_CACHE = {kind: _cones(kind) for kind in ElementKind}


def _radial_breaks(extent: float, dist, op_norm: float) -> list[float]:
    """Ascending breakpoints of the radial interval ``[0, extent]``.

    The interval is halved geometrically toward the zero step, down to the
    local scale of the step density, so that a density core cannot fall
    between the quadrature nodes of the first generation.  An extent of 0
    yields no interval.  ``op_norm`` is the 2-norm of the local-to-global
    step map.
    """
    if extent <= 0.0:
        return []
    scale = getattr(dist, "typical_scale", None)
    local_scale = math.inf if scale is None else scale / op_norm
    levels = 0
    if extent > local_scale:
        levels = min(45, int(math.ceil(math.log2(extent / local_scale))))
    return [0.0] + [extent * 0.5**j for j in range(levels, -1, -1)]


def _transition_boxes(a, b, c, d, dist):
    """Subdivide the transition window ``[c - b, d - a]`` at ascending breakpoints.

    The breakpoints are the window's ends and the kinks of the conditional
    factor at ``c - a`` and ``d - b``.  A window containing the zero step
    also breaks at the ``_radial_breaks`` ladders of ``[0, d - a]`` and,
    mirrored, of ``[c - b, 0]``.  Returns the corners ``lo, hi`` of shape
    ``(boxes, 1)``.
    """
    w0, w1 = c - b, d - a
    points = {w0, w1, c - a, d - b}
    if w0 <= 0.0 <= w1:
        points.update(-x for x in _radial_breaks(-w0, dist, 1.0))
        points.update(_radial_breaks(w1, dist, 1.0))
    edges = np.array(sorted(points))[:, None]
    return edges[:-1], edges[1:]


def _solve(f, lo, hi, tag, config: QuadratureConfig | None, start: float, complement: bool,
           values=None) -> ProbabilityEstimate:
    """The deterministic solve shared by the escape and transition solvers.

    Integrates ``f`` over the boxes ``lo, hi, tag``, with the integrand's
    ``values`` at their nodes when known, as ``_integrate_boxes`` takes
    them; the wall time runs from ``start``.  The probability is the
    integral, or its complement ``1 - integral`` when ``complement`` is set,
    clamped into ``[0, 1]``; the relative tolerance applies to it.  A
    ``ToleranceNotMet`` is re-raised with that probability of its best value.
    """
    config = config or _DEFAULT_CONFIG

    def probability(integral: float) -> float:
        return min(1.0, max(0.0, 1.0 - integral if complement else integral))

    try:
        integral, quad_error, n_evals = _integrate_boxes(f, lo, hi, tag, config, probability, values)
    except ToleranceNotMet as exc:
        raise ToleranceNotMet(probability(exc.value), exc.error_estimate) from None
    return ProbabilityEstimate(
        value=probability(integral),
        error_estimate=quad_error,
        method="deterministic",
        cost=n_evals,
        wall_time=time.perf_counter() - start,
    )


def escape_probability_det(element: MeshElement, dist, config: QuadratureConfig | None = None) -> ProbabilityEstimate:
    """Deterministic escape probability of one step from the element.

    Integrates the stay probability over the compact stay support in local
    coordinates, as a union of cones from the zero step on each of which
    the stay fraction is smooth, and returns its complement, clamped into
    ``[0, 1]``.

    For ``WienerStep`` (a law with the ``_scale_mixture`` hook whose class
    also defines its ``density``) each cone's radial coordinate is
    integrated in closed form, so the cubature runs over the cones' facets
    only; on a segment that leaves two exact terms, whose error estimate is
    0.  Every other law takes the cubature over whole cones.

    Every cone is integrated down to the zero step, also for a density
    that diverges there: the cone's Jacobian ``t^(n-1)`` cancels a
    divergence like ``|d|^(1-n)`` in 2D and 3D, a logarithmic one in 1D is
    integrable and resolved by bisection, and no quadrature node sits at
    ``t = 0``, in floating point too, since every cone keeps its own ``t``.
    The error estimate is the rule disagreement alone.

    Raises
    ------
    DensityUnavailable, DimensionMismatch, ToleranceNotMet,
    InputError, NonFiniteIntegrand; DegenerateElement propagates from the
    geometry.
    """
    _check_element("element", element)
    _check_law(dist, element.dim)
    start = time.perf_counter()
    kind = element.kind
    cones = _CONE_CACHE[kind]
    amap = element.affine_map
    mixture = _mixture_hook(dist)
    if mixture is not None:
        (lo, hi, k), nodes = cones.first_pass
        frame = _unit_frame(amap)

        def f(w: np.ndarray, k: np.ndarray) -> np.ndarray:
            return _facet_values(cones.radial_nodes(w, k), frame, mixture)

        first = _facet_values(nodes, frame, mixture)
        return _solve(f, lo, hi, k, config, start, complement=True, values=first)
    lo, hi, k = cones.boxes(_radial_breaks(1.0, dist, float(np.linalg.norm(amap.matrix, 2))))

    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        t = x[:, 0]
        rays, jac = cones.facet_nodes(x[:, 1:], k)
        local_steps = t[:, None] * rays
        global_steps = amap.global_step(local_steps)
        jac *= t ** (kind.dim - 1)
        return stay_fraction(kind, local_steps) * dist.density(global_steps) * (amap.abs_det * jac)

    return _solve(f, lo, hi, k, config, start, complement=True)


def _unit_frame(amap) -> tuple[np.ndarray, float, float]:
    """``A`` as ``unit * scale``, with ``scale`` a power of two, and ``|det A|^(1/n)``.

    Taken once per solve.  On a cell between ``2^-256`` and ``2^256``
    across, whose ``|A b|^2`` are normal floats, ``unit`` is ``A`` and the
    root is taken of ``|det A|``.  Any other cell is scaled exactly to
    ``|det unit|`` in ``[1, 2^n)``, so ``|unit b|`` times ``scale`` keeps
    the digits of ``|A b|`` where its square would leave the normal range,
    and the root is taken of ``|det unit|``: ``|det A|`` has lost digits
    there, by underflow or to the logarithms of ``np.linalg.det``.
    """
    n = amap.dim
    exponent = (math.frexp(amap.abs_det)[1] - 1) // n
    if -256 < exponent < 256:
        return amap.matrix, 1.0, amap.abs_det ** (1.0 / n)
    unit = np.ldexp(amap.matrix, -exponent)
    scale = math.ldexp(1.0, exponent)
    return unit, scale, abs(float(np.linalg.det(unit))) ** (1.0 / n) * scale


# From this many step widths out, |A b| / sigma >= _FAR, so alpha >= 2^63 and
# each M_k(alpha) equals its limit Gamma((k + 1)/2) / (2 alpha^((k + 1)/2)) to
# the last bit, while the moments and the Gaussian's factor may each leave the
# float range: such nodes take the limit, written in |A b| / sigma.
_FAR = 2.0**32
# rho^(k + 1) M_k(rho^2 / 2) -> integral_0^inf s^k exp(-s^2 / 2) ds = 2^((k - 1)/2) Gamma((k + 1)/2)
_MOMENT_LIMITS = [2.0 ** ((k - 1) / 2) * math.gamma((k + 1) / 2) for k in range(6)]


def _facet_values(nodes, frame, mixture) -> np.ndarray:
    """The stay integrand at facet nodes, from their ``_Cones.radial_nodes`` data.

    On cone ``k`` the stay fraction at ``d = t b(w)`` is
    ``prod_i (1 - t a_i)``, with ``a_i = |b_i(w)|`` on a box and ``a_i = 1``
    on a simplex, so under a Gaussian of scale ``sigma`` the radial integral
    ``integral_0^1 t^(n-1) prod_i (1 - t a_i) exp(-alpha t^2) dt`` is
    ``sum_j c_j M_(n-1+j)(alpha)`` with ``alpha = |A b(w)|^2 / (2 sigma^2)``.
    ``frame`` is the element's ``_unit_frame`` and ``mixture`` the law's
    ``_scale_mixture`` hook.
    """
    rays, jac, stay = nodes
    unit, scale, root_det = frame
    n = rays.shape[1]
    # |A b|^2 summed a coordinate column at a time, left to right as numpy
    # sums a row: a reduce along rows of two or three runs one short loop
    # per node, 5x slower on the 5,400 first-pass nodes of a parallelepiped
    g = rays @ unit.T
    squares = g * g
    radii = squares[:, 0]
    for j in range(1, n):
        radii = radii + squares[:, j]
    radii = np.sqrt(radii)
    if scale != 1.0:
        radii *= scale
    scales, weights = mixture(radii)
    # a compare and a count, as the moment kernel makes: a max would be the
    # first reduction of its kind in a solve, slower on cold caches
    near = radii[:, None] < _FAR * scales
    if np.count_nonzero(near) == near.size:
        terms = _near_terms(radii[:, None] / scales, stay, scales, weights, root_det)
    else:
        # each side's terms may overflow where the other side's are taken
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = radii[:, None] / scales
            terms = np.where(near, _near_terms(ratio, stay, scales, weights, root_det),
                             _far_terms(ratio, radii, stay, weights, root_det))
    return terms.sum(axis=1) * jac


def _near_terms(ratio, stay, scales, weights, root_det) -> np.ndarray:
    """Each scale's term of the stay integrand, at ``ratio = |A b| / sigma``, from the moments."""
    n = len(stay) - 1
    moments = _radial_moments(0.5 * ratio ** 2, n - 1, 2 * n - 1)
    # sum_j c_j M_(n-1+j); einsum's set-up costs more than this on few nodes
    radial = np.add.reduce(stay[:, :, None] * moments, axis=0)
    # |det A| (2 pi sigma^2)^(-n/2) as the n-th power of a ratio of lengths,
    # which stays finite on a cell as small as its steps, where |det A| alone
    # underflows and the Gaussian's factor overflows
    gauss = weights * (root_det / (math.sqrt(2.0 * math.pi) * scales)) ** n
    return radial * gauss


def _far_terms(ratio, radii, stay, weights, root_det) -> np.ndarray:
    """The limit of ``_near_terms`` as ``ratio = |A b| / sigma`` grows, each factor finite.

    ``M_(n-1+j)`` times the Gaussian's factor tends to
    ``(|det A|^(1/n) / (sqrt(2 pi) |A b|))^n ratio^(-j) _MOMENT_LIMITS[n-1+j]``,
    summed over ``j`` against the stay polynomial by Horner's rule in
    ``1 / ratio``.
    """
    n = len(stay) - 1
    inverse = 1.0 / ratio
    poly = stay[n][:, None] * _MOMENT_LIMITS[2 * n - 1]
    for j in range(n - 1, -1, -1):
        poly = poly * inverse + stay[j][:, None] * _MOMENT_LIMITS[n - 1 + j]
    return weights * (root_det / (math.sqrt(2.0 * math.pi) * radii[:, None])) ** n * poly


def transition_probability_det_1d(source, target, dist, config: QuadratureConfig | None = None) -> ProbabilityEstimate:
    """Deterministic 1D transition probability from ``[a, b]`` into ``[c, d]``.

    Integrates the conditional transition probability times the step
    density over the compact window ``[c - b, d - a]``.  The piecewise-
    linear kinks of the conditional factor at ``c - a`` and ``d - b`` seed
    the initial subdivision, and a window containing the zero step is split
    there and laddered toward it as in the escape solver, so a density
    that diverges at the zero step is integrated down to it.  The intervals
    are checked as in :func:`conditional_transition_1d`.
    """
    a, b = _interval("source", source)
    c, d = _interval("target", target)
    _check_law(dist, 1)
    start = time.perf_counter()
    lo, hi = _transition_boxes(a, b, c, d, dist)

    def f(steps: np.ndarray, _tag) -> np.ndarray:
        return conditional_transition_1d((a, b), (c, d), steps[:, 0]) * dist.density(steps)

    return _solve(f, lo, hi, np.zeros(len(lo), dtype=np.intp), config, start, complement=False)
