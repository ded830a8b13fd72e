"""Adaptive tensor-product Gauss-Kronrod cubature and the deterministic solvers.

The escape probability is computed by integrating the *stay* probability in
reference-cell coordinates,

    stay = integral of stay_fraction(U, d) p(A d) |det A| dd,

and returning ``1 - stay``.  The stay fraction vanishes outside a compact
support (the hexagon or cuboctahedron ``U - U`` for a simplex, ``[-1, 1]^n``
for a box), so no infinite-domain truncation is ever needed.  The support
is a union of cones from the zero step, one over each facet piece, and the
stay fraction is smooth on each cone: on a simplex it is ``(1 - t)^n`` in
the radial coordinate ``t``.  The support is centrally symmetric and
``s(d) = s(-d)``, so one cone of each mirrored pair stands for both.  Each
cone is mapped onto the unit box ``(t, w)`` by ``d = t b(w)``, with Duffy's
collapse on triangular facets, so no kink of the integrand crosses a box.
Each box is handled by an embedded 7/15 Gauss-Kronrod pair (tensorized in
2D/3D); a box whose rule disagreement exceeds its share of the remaining
error budget is split along its longest axis.

A law whose density is a Gaussian scale mixture says so through a private
``_scale_mixture`` hook; of the shipped laws, ``WienerStep`` does, with its
one scale.  On each cone the stay fraction is then a polynomial in ``t``,
and its radial integral against each Gaussian is a sum of the moments
``M_k(alpha) = integral_0^1 t^k exp(-alpha t^2) dt``, in closed form at
``2 alpha = (|A b| / sigma)^2``: a series below ``alpha = 2`` and above it
an upward recurrence, two orders at a time, from Cody's rational
approximations of ``exp(y^2) erfc(y)``, each one product of a coefficient
table and a power table over all nodes of an integrand call, whose size
``_MAX_POINTS`` bounds on both paths.  The largest and smallest ``alpha``
of a call tell which of these kernels and of Cody's two fits any node
takes, and the others are not computed.  A node more than ``_FAR`` steps
out takes the moments' limit, written in ``|A b| / sigma`` so that
nothing overflows (``_far_terms``).  These lengths are taken in the
element's frame, which ``MeshElement`` owns: ``A``, ``|det A|^(1/n)`` and
each scale over the power of two that brings ``A``'s entries into
``(-1, 1)``, so that no square of a length leaves the normal floats on a
cell of any size, and no quotient of two lengths changes.  The cubature
runs over the facet coordinates ``w`` alone.  Such a density is even, so
a cone counts twice, and a segment's one cone needs no cubature.  Every
such solve starts on the same facet boxes of its reference cell, so the
rays, facet Jacobians and stay polynomials at their nodes are built once
per cell; a solve applies its frame and its law to them, and computes
node data afresh only for the boxes it splits.  The rule's weights are
kept per unit volume, so a box's estimate is its volume times a weighted
sum of its values.  Every other law -- ``VelocityJumpStep``, user laws,
and subclasses that override ``density`` -- takes the cubature over whole
cones, with the density at ``A d`` and at the mirror's ``-A d``, exact for
any law; each cone's radial axis is split geometrically toward the zero
step, down to the law's scale with no cap, and integrated down to it.
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
from .errors import InputError, NonFiniteIntegrand, ToleranceNotMet, _integer, _real
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

    ``cost`` counts integrand evaluations for the deterministic method,
    each at a node of one cone and its mirror, and particles for Monte
    Carlo.  ``error_bound_95`` is only set by the Monte Carlo estimator when
    the estimate is exactly 0 or 1, where the binomial standard deviation
    degenerates; it is the one-sided 95% Clopper-Pearson distance to the
    estimate.
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
    """Nodes of the tensor rule on ``[-1, 1]^n``, one array per coordinate, and its weights per unit volume.

    The Kronrod and Gauss weights are the tensor rule's divided by ``2^n``,
    the volume of ``[-1, 1]^n``, which is exact, so a box's estimate is its
    volume times the weighted sum of its values.  For ``n = 0`` the rule is
    one node of weight 1, on which both agree.
    """
    wl_1d = np.zeros(15)
    wl_1d[1::2] = _WG7
    columns = tuple(np.array(column) for column in zip(*itertools.product(_XGK, repeat=n)))
    wh = wl = np.ones(1)
    for _ in range(n):
        wh = np.multiply.outer(wh, 0.5 * _WGK).ravel()
        wl = np.multiply.outer(wl, 0.5 * wl_1d).ravel()
    return columns, wh, wl


_RULE_CACHE = {n: _rule(n) for n in (0, 1, 2, 3)}

# Most integrand nodes per call of ``f``: the one bound on the temporaries of
# both paths, however many boxes a pass holds.  A full call peaks at 74-93 MB
# on parallelepiped facets and 20 MB on tetrahedron cones, whose density
# takes each node's step and its mirror's (tracemalloc).
_MAX_POINTS = 2**18


def _nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rule's nodes in the boxes ``lo, hi`` of shape ``(m, n)``, box by box: ``(m * 15^n, n)``."""
    m, n = lo.shape
    columns, wh, _ = _RULE_CACHE[n]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # one coordinate at a time: a broadcast over the length-n axis runs as
    # numpy inner loops of length n <= 3
    x = np.empty((m, len(wh), n))
    for j, column in enumerate(columns):
        x[:, :, j] = mid[:, j, None] + half[:, j, None] * column
    return x.reshape(m * len(wh), n)


def _volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The volume of each of the boxes ``lo, hi`` of shape ``(m, n)``."""
    return (hi - lo).prod(axis=1)


def _evaluate(f, lo, hi, tag, volumes):
    """Apply the embedded pair to a batch of boxes.  lo, hi: (m, n); tag, volumes: (m,).

    ``f`` is called on whole boxes, at most ``_MAX_POINTS`` nodes (and at
    least one box) at a time.
    """
    n = lo.shape[1]
    per_box = 15**n
    per_call = max(1, _MAX_POINTS // per_box)
    if lo.shape[0] <= per_call:
        values = f(_nodes(lo, hi), np.repeat(tag, per_box))
    else:
        values = np.concatenate([
            f(_nodes(lo[s:s + per_call], hi[s:s + per_call]), np.repeat(tag[s:s + per_call], per_box))
            for s in range(0, lo.shape[0], per_call)
        ])
    values = np.asarray(values, dtype=float)
    return _apply_rule(values, volumes, n)


def _apply_rule(values, volumes, n):
    """The Kronrod estimate and the rule disagreement of each box of dimension ``n``.

    ``values`` holds the integrand at the nodes of the boxes, box by box,
    and ``volumes`` their volumes.
    """
    _, wh, wl = _RULE_CACHE[n]
    values = values.reshape(len(volumes), len(wh))
    high = volumes * (values @ wh)
    return high, np.abs(high - volumes * (values @ wl))


def _checked_sum(high) -> float:
    """The sum of the boxes' estimates; a NaN or infinite value of the integrand makes it non-finite.

    Every Kronrod weight is positive, so such a value reaches its box's estimate.
    """
    total = float(high.sum())
    if not math.isfinite(total):
        raise NonFiniteIntegrand("integrand returned NaN or infinity")
    return total


def _integrate_boxes(f, lo, hi, tag, config: QuadratureConfig, reported=abs, first=None):
    """Adaptive integration over a union of disjoint boxes.

    ``lo`` and ``hi`` are the ``(m, n)`` corners of the boxes and ``tag``
    holds one integer per box that both halves of a split inherit; ``f``
    receives the ``(points, n)`` nodes and the tag of each node's box.
    ``first``, when given, is what a cache holds of the given boxes: the
    integrand's values at their nodes, as ``_nodes`` orders them; ``f`` is
    then called on split boxes only.  A refinement pass accepts each
    pending box once its rule disagreement is at most its share of the
    error budget not yet spent, by its volume among the pending boxes', and
    splits the others along their longest axis; the share rate never
    decreases, so the accepted error stays below the budget.  The
    first budget comes from the first estimate; when the relative goal of
    the accepted value is tighter, the accepted leaves are refined again
    against it.  The relative tolerance applies to ``reported(value)``:
    the integral's magnitude, or the probability a solver reports of it.

    Returns ``(value, error_estimate, n_evals)`` with
    ``error_estimate <= max(abs_tol, rel_tol * reported(value))``.
    """
    n = lo.shape[1]
    nodes_per_box = 15**n
    volumes = _volumes(lo, hi)
    high, err = _evaluate(f, lo, hi, tag, volumes) if first is None else _apply_rule(first, volumes, n)
    n_evals = high.size * nodes_per_box
    n_splits = 0
    high_sum = _checked_sum(high)
    budget = max(config.abs_tol, config.rel_tol * reported(high_sum))
    while True:
        value = error = 0.0
        # (ok, lo, hi, tag, high, err) of each generation: the rows where
        # ok is set are its accepted leaves, taken out only for a re-pass
        accepted = []
        while True:
            # the pending boxes' volume, summed afresh: on a deep ladder a
            # running difference from the first total rounds to 0
            rate = (budget - error) / float(volumes.sum())
            ok = err <= rate * volumes
            accepted.append((ok, lo, hi, tag, high, err))
            if ok.all():  # the last generation of a pass: no box to split
                value += high_sum
                error += float(err.sum())
                break
            value += float(high[ok].sum())
            error += float(err[ok].sum())
            split = ~ok
            lo, hi, tag = lo[split], hi[split], tag[split]
            if n_splits + lo.shape[0] > config.max_subdivisions:
                raise ToleranceNotMet(value + float(high[split].sum()), error + float(err[split].sum()))
            n_splits += lo.shape[0]
            widths = hi - lo
            axis = np.argmax(widths, axis=1)
            rows = np.arange(lo.shape[0])
            mid = lo[rows, axis] + 0.5 * widths[rows, axis]
            # the left halves, then the right halves
            lo = np.concatenate([lo, lo])
            hi = np.concatenate([hi, hi])
            hi[rows, axis] = mid
            lo[rows + len(rows), axis] = mid
            tag = np.concatenate([tag, tag])
            volumes = _volumes(lo, hi)
            high, err = _evaluate(f, lo, hi, tag, volumes)
            high_sum = _checked_sum(high)
            n_evals += high.size * nodes_per_box
        goal = max(config.abs_tol, config.rel_tol * reported(value))
        if error <= goal:
            return value, error, n_evals
        # The relative goal tightened below the budget actually used:
        # re-process the accepted leaves against the smaller budget.
        leaves = [[array[ok] for array in arrays] for ok, *arrays in accepted]
        lo, hi, tag, high, err = (np.concatenate(parts) for parts in zip(*leaves))
        volumes = _volumes(lo, hi)
        high_sum = float(high.sum())
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
# The factors (k - 1, k) of M_(k-2), M_(k-1) in the upward recurrence of
# M_k, M_(k+1), as a column
_PAIR_FACTORS = {k: np.array([[k - 1.0], [k]]) for k in range(2, 6, 2)}


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """The row-major ``(count, len(x))`` table of ``x^0 .. x^(count - 1)``, ``count >= 3``.

    Rows ``m + 1 .. 2m`` are rows ``1 .. m`` times row ``m``, one multiply of
    contiguous rows, so the table takes about ``log2(count)`` calls.
    """
    table = np.empty((count, len(x)))
    table[0] = 1.0
    table[1] = x
    row = np.multiply(x, x, out=table[2])
    m = 2
    while m + 1 < count:
        k = min(m, count - 1 - m)
        block = np.multiply(table[1:k + 1], row, out=table[m + 1:m + k + 1])
        m += k
        if m + 1 < count:
            row = block[-1]
    return table


def _upward_moments(u: np.ndarray, first: int, last: int, bottom: float, top: float) -> np.ndarray:
    """``M_first .. M_last`` at ``u = 2 alpha``, ``alpha >= _UPWARD_FROM``, recurring upward from ``M_0`` and ``M_1``.

    ``bottom`` and ``top`` bound ``u``, for ``_erfcx``.
    """
    a = 0.5 * u
    tail = np.exp(-a)
    y = np.sqrt(a)
    erfcx = _erfcx(y, a, bottom, top)
    # M_k and M_(k+1) at once, from M_(k-2) and M_(k-1)
    pairs = [np.array([0.5 * math.sqrt(math.pi) / y * (1.0 - tail * erfcx), (1.0 - tail) / u])]
    for k in range(2, last + 1, 2):
        pairs.append((_PAIR_FACTORS[k] * pairs[-1] - tail) / u)
    # the pairs from the one holding M_first on
    pairs = pairs[first // 2:]
    rows = np.concatenate(pairs) if len(pairs) > 1 else pairs[0]
    skip = first % 2
    return rows if skip == 0 and len(rows) == last - first + 1 else rows[skip:skip + last - first + 1]


def _erfcx(y: np.ndarray, a: np.ndarray, bottom: float, top: float) -> np.ndarray:
    """Cody's ``erfcx(y)`` at ``y = sqrt(a)``, where ``2a`` lies in ``[bottom, top]``.

    His two fits meet at ``y = 4``: every ``y <= 4`` when ``top <= 32``, and
    every ``y > 4`` when ``bottom > 33`` (``sqrt(16.5) > 4`` after
    rounding); a fit that no node takes is not computed.
    """
    below, above = top <= 32.0, bottom > 33.0
    if below:
        v = y
    elif above:
        v = 1.0 / a
    else:
        low = y <= 4.0
        v = np.where(low, y, 1.0 / a)
    table = _ERF_TABLE @ _powers(v, _ERF_TABLE.shape[1])
    if below:
        return table[0] / table[1]
    far = (1.0 / math.sqrt(math.pi) - v * table[2] / table[3]) / y
    return far if above else np.where(low, table[0] / table[1], far)


def _series_moments(u: np.ndarray, first: int, last: int) -> np.ndarray:
    """``M_first .. M_last`` at ``u = 2 alpha``, ``alpha < _UPWARD_FROM``, from the series of ``_SERIES``."""
    return np.exp(-0.5 * u) * (_SERIES[first:last + 1] @ _powers(u, _SERIES.shape[1]))


def _radial_moments(u: np.ndarray, first: int, last: int, top: float | None = None) -> np.ndarray:
    """Gaussian radial moments ``M_k(alpha) = integral_0^1 t^k exp(-alpha t^2) dt`` at ``u = 2 alpha``.

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
    many as ``_MAX_POINTS`` allows.  The largest ``u`` (``top``, when the
    caller knows it) and the smallest tell which sides of ``alpha = 2`` and
    of Cody's ``alpha = 16`` hold nodes, and a side with none is skipped.
    The series' 23-row power table is most of the temporaries.
    """
    if u.ndim != 1:  # the kernels' matrix products take one axis of nodes
        return _radial_moments(u.reshape(-1), first, last, top).reshape((last - first + 1,) + u.shape)
    split = 2.0 * _UPWARD_FROM
    if top is None:
        top = float(u.max(initial=-math.inf))
    if top < split:  # also a NaN-free set of nodes all below: no mask to apply
        return _series_moments(u, first, last)
    bottom = float(u.min())
    if bottom >= split:
        return _upward_moments(u, first, last, bottom, top)
    # index arrays scatter faster than masks; a NaN goes upward
    series = u < split
    out = np.empty((last - first + 1, u.size))
    below, above = np.flatnonzero(series), np.flatnonzero(~series)
    out[:, below] = _series_moments(u[below], first, last)
    out[:, above] = _upward_moments(u[above], first, last, split, top)
    return out


def _stay_polynomial(a: np.ndarray) -> np.ndarray:
    """Coefficients ``c_j`` of ``prod_i (1 - t a_i) = sum_j c_j t^j``.

    ``a`` is ``(n, m)``; the result is ``(n + 1, m)``.
    """
    n, m = a.shape
    c = np.zeros((n + 1, m))
    c[0] = 1.0
    for i in range(n):
        c[1:i + 2] -= a[i] * c[:i + 1]
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
    """Vertex lists of one facet piece of each mirrored pair of the stay support of ``kind``'s reference cell.

    On a simplex the support is the difference body ``U - U``: its vertices
    are the differences of the cell's vertices, and its facets lie on the
    planes ``c . d = 1`` with ``c`` in ``{0, 1}^n`` or ``{0, -1}^n``, ``c != 0``
    (a hexagon in 2D, a cuboctahedron in 3D).  The stay fraction
    ``(1 - g(d))^n`` has the gauge ``g(d) = max_c c . d`` of that body, which
    is linear on the cone over each facet.  On a box the support is
    ``[-1, 1]^n`` and ``prod(1 - |d_i|)`` is smooth on the cone over each
    facet piece cut off by the coordinate planes.  Of each piece and its
    negation, the one listed has ``c`` in ``{0, 1}^n``, or on a box ``d_n >= 0``.
    """
    n = kind.dim
    eye = np.eye(n)
    if kind.is_simplex:
        corners = np.vstack([np.zeros(n), eye])
        vertices = np.array([p - q for i, p in enumerate(corners) for j, q in enumerate(corners) if i != j])
        return [vertices[vertices @ np.array(c) == 1.0] for c in _bit_vectors(n) if any(c)]
    facets = []
    for k in range(n):
        for bits in _bit_vectors(n)[:2 ** (n - 1)]:
            signs = 1.0 - 2.0 * np.array(bits)
            others = [signs[j] * eye[j] for j in range(n) if j != k]
            facets.append(np.array([
                signs[k] * eye[k] + sum(w * e for w, e in zip(picks, others))
                for picks in _bit_vectors(n - 1)
            ]))
    return facets


@dataclass(frozen=True)
class _Cones:
    """The stay support of one reference cell as cones from the zero step, one of each mirrored pair.

    Cone ``k`` is ``d = t b(w)`` for ``(t, w)`` in ``[0, 1]^n``, where
    ``b(w) = (1, w_1, s w_2) @ frames[k]`` (in 3D; ``(1, w_1)`` in 2D,
    ``(1,)`` in 1D) runs over one facet piece of ``_support_facets``.  The
    frame's rows are a vertex of the piece and its ``n - 1`` edges; on a
    triangular facet the second edge starts at the end of the first and
    ``s = w_1`` (Duffy's collapse onto the vertex), on a parallelogram both
    start at the vertex and ``s = 1``.  Every frame has determinant ``+-1``,
    so the Jacobian of the map is ``t^(n-1) s``.

    A box of the cubature holds the coordinates ``(t, w)`` of one cone and
    carries the cone's index ``k`` as its tag, so ``t`` keeps full
    precision next to every apex.
    """

    kind: ElementKind
    frames: np.ndarray  # (cones, n, n)
    collapse: np.ndarray  # (cones,) bool
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
        and the map's Jacobian there is ``t^(n-1)`` times the facet's, ``s``.
        The points of one box share a cone and arrive in one run, so each
        run is mapped by a single matrix product.
        """
        m, n = len(w), w.shape[1] + 1
        frames = self.frame_list
        coef = np.ones((m, n))
        coef[:, 1:] = w
        if self.any_collapse:
            jac = np.where(self.collapse[k], w[:, 0], 1.0)
            collapsed = coef[:, 2]
            collapsed *= jac
        else:
            jac = np.ones(m)
        rays = np.empty((m, n))
        starts = [0, *(i + 1 for i in np.flatnonzero(k[1:] != k[:-1]).tolist())]
        for lo, hi, cone in zip(starts, [*starts[1:], m], k[starts].tolist()):
            np.matmul(coef[lo:hi], frames[cone], out=rays[lo:hi])
        return rays, jac

    @functools.cached_property
    def frame_list(self) -> tuple[np.ndarray, ...]:
        """``frames`` as a tuple, one frame per cone."""
        return tuple(self.frames)

    @functools.cached_property
    def any_collapse(self) -> bool:
        """Whether any cone's facet is a triangle, collapsed onto its vertex."""
        return bool(self.collapse.any())

    def radial_nodes(self, w: np.ndarray, k: np.ndarray):
        """``facet_nodes``, and the stay fraction along each ray, for the radial path.

        The rays come as the ``(n, points)`` transpose of ``facet_nodes``',
        so a node's coordinates lie along the first axis.  A law on the
        radial path is even, so a cone's integral is also its mirror's, and
        the Jacobian is twice the facet's.  The stay fraction comes as the
        ``(n + 1, points)`` coefficients of a polynomial in ``t`` (see
        ``_facet_values``), or on a simplex as the one column
        ``simplex_stay``, the same on every ray.
        """
        rays, jac = self.facet_nodes(w, k)
        rays = rays.T
        return rays, 2.0 * jac, self.simplex_stay if self.kind.is_simplex else _stay_polynomial(np.abs(rays))

    @functools.cached_property
    def first_pass(self):
        """The facet boxes that start every radial solve, and their node data.

        They are the boxes of ``boxes([0, 1])`` without the radial axis: the
        corners ``lo, hi`` and the cone of each box, and ``radial_nodes`` at
        the boxes' nodes, with the rays C-contiguous; the arrays are
        read-only.  Built on first use, once per cell.
        """
        lo, hi, k = self.boxes([0.0, 1.0])
        lo, hi = lo[:, 1:], hi[:, 1:]
        rays, jac, stay = self.radial_nodes(_nodes(lo, hi), np.repeat(k, 15 ** lo.shape[1]))
        boxes, nodes = (lo, hi, k), (np.ascontiguousarray(rays), jac, stay)
        for array in (*boxes, *nodes):
            array.flags.writeable = False
        return boxes, nodes


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
    return _Cones(
        kind=kind,
        frames=np.array(frames),
        collapse=np.array([len(vertices) == 3 for vertices in facets]),
        simplex_stay=_stay_polynomial(np.ones((kind.dim, 1))) if kind.is_simplex else None,
    )


_CONE_CACHE = {kind: _cones(kind) for kind in ElementKind}


def _radial_breaks(extent: float, dist, op_norm: float) -> list[float]:
    """Ascending breakpoints of the radial interval ``[0, extent]``.

    The interval is halved geometrically toward the zero step, down to the
    local scale of the step density, so that a density core cannot fall
    between the quadrature nodes of the first generation.  The ladder has
    no cap of its own: however far the law is narrower than the cell, it
    reaches the law's scale, and it stops short of it only where a break
    would leave the normal floats.  An extent of 0 yields no interval.
    ``op_norm`` is the 2-norm of the local-to-global step map.
    """
    if extent <= 0.0:
        return []
    scale = getattr(dist, "typical_scale", None)
    local_scale = math.inf if scale is None else scale / op_norm
    levels = 0
    if extent > local_scale:
        # in logarithms where the quotient leaves the float range
        ratio = extent / local_scale if local_scale > 0.0 else math.inf
        depth = math.log2(ratio) if ratio < math.inf else math.log2(extent) + math.log2(op_norm) - math.log2(scale)
        levels = min(math.ceil(depth), math.frexp(extent)[1] + 1021)
    return [0.0] + [math.ldexp(extent, -j) for j in range(levels, -1, -1)]


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
           first=None) -> ProbabilityEstimate:
    """The deterministic solve shared by the escape and transition solvers.

    Integrates ``f`` over the boxes ``lo, hi, tag``, with the cached
    ``first`` pass over them when there is one, as ``_integrate_boxes``
    takes it; the wall time runs from ``start``.  The probability is the
    integral, or its complement ``1 - integral`` when ``complement`` is set,
    clamped into ``[0, 1]``; the relative tolerance applies to it.  A
    ``ToleranceNotMet`` is re-raised with that probability of its best value.
    """
    config = config or _DEFAULT_CONFIG

    def probability(integral: float) -> float:
        return min(1.0, max(0.0, 1.0 - integral if complement else integral))

    try:
        integral, quad_error, n_evals = _integrate_boxes(f, lo, hi, tag, config, probability, first)
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

    One cone of each mirrored pair stands for both.  For ``WienerStep`` (a
    law with the ``_scale_mixture`` hook whose class also defines its
    ``density``) each cone's radial coordinate is integrated in closed form,
    so the cubature runs over the cones' facets only, and a cone counts
    twice, since such a law is even; on a segment that leaves one exact
    term, whose error estimate is 0.  Every other law takes the cubature
    over whole cones, with the density at ``A d`` and at ``-A d``, exact for
    any law.

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
        frame = element._frame

        def f(w: np.ndarray, k: np.ndarray) -> np.ndarray:
            return _facet_values(cones.radial_nodes(w, k), frame, mixture)

        first = _facet_values(nodes, frame, mixture)
        return _solve(f, lo, hi, k, config, start, complement=True, first=first)
    lo, hi, k = cones.boxes(_radial_breaks(1.0, dist, float(np.linalg.norm(amap.matrix, 2))))

    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        t = x[:, 0]
        rays, jac = cones.facet_nodes(x[:, 1:], k)
        local_steps = t[:, None] * rays
        global_steps = amap.global_step(local_steps)
        jac *= t ** (kind.dim - 1)
        # the mirror cone's node is the step's negation, whose stay fraction is the same
        density = np.asarray(dist.density(np.concatenate([global_steps, -global_steps])))
        return stay_fraction(kind, local_steps) * (density[:len(t)] + density[len(t):]) * (amap.abs_det * jac)

    return _solve(f, lo, hi, k, config, start, complement=True)


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
    ``frame`` is the element's ``_frame``, in which every length is
    ``2^-e`` times its own: ``A / 2^e``, ``2^-e`` and
    ``|det A|^(1/n) / 2^e``.  ``mixture`` is the law's ``_scale_mixture``
    hook; its scales' terms are summed in order, each scale taken into the
    frame, where no quotient of two lengths changes.
    """
    rays, jac, stay = nodes
    matrix, shrink, root_det = frame
    # |A b|^2 summed over the coordinate rows in order, as numpy reduces a
    # leading axis: one running sum per node
    g = matrix @ rays
    radii = np.sqrt(np.add.reduce(np.square(g, out=g), axis=0))
    # each node's |A b| / sigma is below _FAR unless some node is far
    # (radii < _FAR * sigma makes ratio <= _FAR, and ratio = _FAR only
    # within an ulp of it); the test does not divide, since a scale far
    # below the cell may be 0 in the frame
    top = float(radii.max())
    total = None
    for sigma, weight in mixture():
        sigma *= shrink
        if top < _FAR * sigma:
            highest = top / sigma
            terms = _near_terms(radii / sigma, stay, sigma, weight, root_det, highest * highest)
        else:
            # each side's terms may overflow where the other side's are
            # taken; a scale of 0 leaves no node near
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ratio = radii / sigma
                terms = _far_terms(ratio, radii, stay, weight, root_det)
                near = radii < _FAR * sigma
                if near.any():
                    terms = np.where(near, _near_terms(ratio, stay, sigma, weight, root_det), terms)
        total = terms if total is None else total + terms
    return total * jac


def _near_terms(ratio, stay, sigma, weight, root_det, top=None) -> np.ndarray:
    """One scale's term of the stay integrand, at ``ratio = |A b| / sigma``, from the moments.

    ``top``, when known, is the largest ``ratio^2``.
    """
    n = len(stay) - 1
    moments = _radial_moments(ratio * ratio, n - 1, 2 * n - 1, top)
    # sum_j c_j M_(n-1+j); einsum's set-up costs more than this on few nodes
    radial = np.add.reduce(stay * moments, axis=0)
    # |det A| (2 pi sigma^2)^(-n/2) as the n-th power of a ratio of lengths,
    # which stays finite on a cell as small as its steps, where |det A| alone
    # underflows and the Gaussian's factor overflows
    return radial * (weight * np.power(root_det / (math.sqrt(2.0 * math.pi) * sigma), n))


def _far_terms(ratio, radii, stay, weight, root_det) -> np.ndarray:
    """The limit of ``_near_terms`` as ``ratio = |A b| / sigma`` grows, each factor finite.

    ``M_(n-1+j)`` times the Gaussian's factor tends to
    ``(|det A|^(1/n) / (sqrt(2 pi) |A b|))^n ratio^(-j) _MOMENT_LIMITS[n-1+j]``,
    summed over ``j`` against the stay polynomial by Horner's rule in
    ``1 / ratio``.
    """
    n = len(stay) - 1
    inverse = 1.0 / ratio
    poly = stay[n] * _MOMENT_LIMITS[2 * n - 1]
    for j in range(n - 1, -1, -1):
        poly = poly * inverse + stay[j] * _MOMENT_LIMITS[n - 1 + j]
    return weight * (root_det / (math.sqrt(2.0 * math.pi) * radii)) ** n * poly


def transition_probability_det_1d(source, target, dist, config: QuadratureConfig | None = None) -> ProbabilityEstimate:
    """Deterministic 1D transition probability from ``[a, b]`` into ``[c, d]``.

    Integrates the conditional transition probability times the step
    density over the compact window ``[c - b, d - a]``.  The piecewise-
    linear kinks of the conditional factor at ``c - a`` and ``d - b`` seed
    the initial subdivision, and a window containing the zero step is split
    there and laddered toward it as in the escape solver, so a density
    that diverges at the zero step is integrated down to it.  The intervals
    are checked as in :func:`conditional_transition_1d`, and a window
    whose ends reach beyond half the float64 range, where the sum of two
    steps overflows, raises ``InputError`` naming ``target``.
    """
    a, b = _interval("source", source)
    c, d = _interval("target", target)
    # a box of the window takes the sum of its ends for its midpoint
    if not math.isfinite(2.0 * max(abs(c - b), abs(d - a))):
        raise InputError("target", f"the steps from [{a}, {b}] into [{c}, {d}] reach beyond half the float64 range")
    _check_law(dist, 1)
    start = time.perf_counter()
    lo, hi = _transition_boxes(a, b, c, d, dist)

    def f(steps: np.ndarray, _tag) -> np.ndarray:
        return conditional_transition_1d((a, b), (c, d), steps[:, 0]) * dist.density(steps)

    return _solve(f, lo, hi, np.zeros(len(lo), dtype=np.intp), config, start, complement=False)
