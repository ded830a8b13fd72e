"""Independent oracles used by the test suite.

Everything here is deliberately brute force and shares no code with the
library paths it checks: overlap fractions come from counting grid-cell
centers, 1D integrals from dense trapezoid sums, the segment escape
probability from a hand-derived closed form, simplex escape
probabilities from iterated Gauss-Legendre sums in Cartesian coordinates
whose panels end at every kink of the stay fraction, and the velocity-jump
mixture integrals from adaptive QUADPACK runs on short panels in ``log u``.

Only those QUADPACK runs and their root finder take scipy.  It is imported
where they run, so a test that calls one is skipped where scipy is missing
and every other oracle works with numpy alone.
"""

import math
import warnings

import numpy as np
import pytest


# ---------------------------------------------------------------------------
# Grid-count overlap oracles: fraction of cell-center points of a regular
# grid that lie in U  ∩ (U - d), over those in U.
# ---------------------------------------------------------------------------

def _count_centers_in(lo, hi, res):
    """Number of grid centers (i + 0.5)/res, i = 0..res-1, inside [lo, hi]."""
    i_lo = np.ceil(np.asarray(lo) * res - 0.5)
    i_hi = np.floor(np.asarray(hi) * res - 0.5)
    return np.clip(i_hi - i_lo + 1, 0, res)


def overlap_interval(steps, res=10**6):
    d = np.asarray(steps, dtype=float).reshape(-1)
    return _count_centers_in(np.maximum(0.0, -d), np.minimum(1.0, 1.0 - d), res) / res


def overlap_box(steps, res):
    """Unit square / cube: the overlap factorizes per axis."""
    steps = np.asarray(steps, dtype=float)
    out = np.ones(len(steps))
    for k in range(steps.shape[1]):
        out *= overlap_interval(steps[:, k], res)
    return out


def overlap_triangle(steps, res=2000):
    steps = np.asarray(steps, dtype=float)
    dx, dy = steps[:, 0], steps[:, 1]
    x0 = np.maximum(0.0, -dx)
    y0 = np.maximum(0.0, -dy)
    t = 1.0 - np.maximum(0.0, dx + dy)
    centers = (np.arange(res) + 0.5) / res
    i_lo = np.ceil(x0 * res - 0.5)
    i_hi = np.floor((t[:, None] - centers[None, :]) * res - 0.5)
    counts = np.clip(i_hi - i_lo[:, None] + 1, 0, res)
    counts *= centers[None, :] >= y0[:, None]
    denom = np.clip(np.floor((1.0 - centers) * res - 0.5) + 1, 0, res).sum()
    return counts.sum(axis=1) / denom


def overlap_tetrahedron(steps, res=400, chunk=250):
    """Grid-count overlap on the unit tetrahedron, one term per value of ``y + z``.

    A cell center ``(y, z)`` admits the x centers in ``[x0, t - (y + z)]``, a
    count that depends on the pair only through the float ``y + z``.  The
    pairs are grouped by that exact float (pairs with different index sums
    ``iy + iz`` never share one), and the pairs of a group that pass
    ``y >= y0`` and ``z >= z0``, that is ``iy0 <= iy <= iy + iz - iz0``, are
    counted from the group's cumulative count over ``iy``.
    """
    steps = np.asarray(steps, dtype=float)
    x0 = np.maximum(0.0, -steps[:, 0])
    t = 1.0 - np.maximum(0.0, steps.sum(axis=1))
    centers = (np.arange(res) + 0.5) / res
    # the first index whose center is >= y0, and >= z0
    iy0 = np.searchsorted(centers, np.maximum(0.0, -steps[:, 1]))
    iz0 = np.searchsorted(centers, np.maximum(0.0, -steps[:, 2]))
    iy, iz = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
    yz, group = np.unique(centers[iy] + centers[iz], return_inverse=True)
    group = group.reshape(res, res)
    index_sum = np.empty(len(yz), dtype=int)
    index_sum[group] = iy + iz
    assert np.array_equal(index_sum[group], iy + iz)
    # below[g, i]: pairs of group g with iy < i
    below = np.zeros((len(yz), res + 1))
    np.add.at(below, (group, iy + 1), 1.0)
    below = below.cumsum(axis=1)
    denom = (np.clip(np.floor((1.0 - yz) * res - 0.5) + 1, 0, res) * below[:, -1]).sum()
    rows = np.arange(len(yz))
    out = np.empty(len(steps))
    for a in range(0, len(steps), chunk):
        b = min(a + chunk, len(steps))
        i_lo = np.ceil(x0[a:b] * res - 0.5)
        i_hi = np.floor((t[a:b, None] - yz[None, :]) * res - 0.5)
        counts = np.clip(i_hi - i_lo[:, None] + 1, 0, res)
        top = np.clip(index_sum[None, :] - iz0[a:b, None] + 1, 0, res)
        admitted = np.maximum(below[rows, top] - below[rows, iy0[a:b, None]], 0.0)
        out[a:b] = (counts * admitted).sum(axis=1)
    return out / denom


# ---------------------------------------------------------------------------
# 1D analytic and trapezoid oracles
# ---------------------------------------------------------------------------

def segment_escape_wiener(length, dt):
    """Closed-form escape probability for a segment under Gaussian steps.

    Derived by integrating min(|dx| / l, 1) against the N(0, dt) density:
    the |dx| <= l part gives (sqrt(2 dt / pi) / l)(1 - exp(-l^2 / (2 dt)))
    and the two tails give 2 Phi(-l / sqrt(dt)) = erfc(l / sqrt(2 dt)).
    """
    return (math.sqrt(2.0 * dt / math.pi) / length) * (
        1.0 - math.exp(-(length**2) / (2.0 * dt))
    ) + math.erfc(length / math.sqrt(2.0 * dt))


def segment_escape_shifted_gaussian(length, mean, sigma):
    """Closed-form escape probability for a segment under steps ``N(mean, sigma^2)``.

    The stay probability integrates ``1 - |dx| / l`` against the density
    over ``[-l, l]``.  Over ``[a, b]`` the density's mass is
    ``Phi(zb) - Phi(za)`` and its first moment ``mean (Phi(zb) - Phi(za))
    + sigma (phi(za) - phi(zb))``, with ``z = (x - mean) / sigma``.
    """
    def masses(a, b):
        za, zb = (a - mean) / sigma, (b - mean) / sigma
        mass = 0.5 * (math.erf(zb / math.sqrt(2.0)) - math.erf(za / math.sqrt(2.0)))
        phi_a, phi_b = (math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) for z in (za, zb))
        return mass, mean * mass + sigma * (phi_a - phi_b)

    right, right_moment = masses(0.0, length)
    left, left_moment = masses(-length, 0.0)
    return 1.0 - (right - right_moment / length) - (left + left_moment / length)


def transition_1d_trapezoid(source, target, dt, panels=10**6):
    """Dense trapezoid evaluation of the 1D transition integral."""
    a, b = source
    c, d = target
    x = np.linspace(c - b, d - a, panels + 1)
    overlap = np.minimum(b, d - x) - np.maximum(a, c - x)
    cond = np.maximum(0.0, overlap) / (b - a)
    sigma = math.sqrt(dt)
    pdf = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return np.trapezoid(cond * pdf, x)


def vjump_density_trapezoid(x, rate=1.0, dim=1, panels=10**6, t_max=60.0):
    """Dense trapezoid evaluation of the velocity-jump mixture density."""
    t = np.linspace(1e-12, t_max, panels + 1)
    with np.errstate(divide="ignore", over="ignore"):
        g = (
            t ** (-dim)
            * rate
            * np.exp(-rate * t)
            * (2.0 * math.pi) ** (-dim / 2.0)
            * np.exp(-(x * x) / (2.0 * t * t))
        )
    g[~np.isfinite(g)] = 0.0
    return float(np.trapezoid(g, t))


def _log_u_panels(lo, hi, peak):
    """Panel edges of width at most 1/2 from ``lo`` to ``hi``, one of them at ``peak``."""
    return np.unique(np.concatenate([np.arange(lo, hi, 0.5), [hi, min(max(peak, lo), hi)]]))


def _quad_panels(f, edges):
    integrate = pytest.importorskip("scipy.integrate")
    total = 0.0
    with warnings.catch_warnings():
        # panels far below the peak cannot reach epsrel against their own tiny values
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            total += integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


def vjump_radial_integral(s, dim):
    """``I_n(s) = integral_0^inf u^-n exp(-u - s^2 / (2 u^2)) du`` by panel quadrature.

    The velocity-jump density is ``rate^n (2 pi)^(-n/2) I_n(rate |dx|)``.  The
    integral is taken in ``v = log u`` over ``[log s - 6, log(80 + 3 s)]``
    with QUADPACK on panels of width 1/2, one edge at the integrand's peak
    (the root of ``u^3 + (n - 1) u^2 = s^2``, found in ``log u`` so that ``s``
    down to 1e-300 neither underflows nor loses the root), whose log-value
    is factored out.
    """
    log_s = math.log(s)

    def slope(v):
        return math.exp(2.0 * (log_s - v)) - math.exp(v) - (dim - 1)

    bracket = (min(log_s, 2.0 * log_s / 3.0) - 5.0, max(log_s, 2.0 * log_s / 3.0) + 5.0)
    log_u_peak = pytest.importorskip("scipy.optimize").brentq(slope, *bracket, xtol=1e-15, rtol=1e-15)
    peak = math.exp(log_u_peak)
    log_peak = -peak - 0.5 * (s / peak) ** 2 - (dim - 1) * log_u_peak

    def f(v):
        u = math.exp(v)
        return math.exp(-u - 0.5 * (s / u) ** 2 - (dim - 1) * v - log_peak)

    edges = _log_u_panels(log_s - 6.0, math.log(80.0 + 3.0 * s), log_u_peak)
    return _quad_panels(f, edges) * math.exp(log_peak)


def vjump_segment_escape(length, rate):
    """Escape probability of a segment of ``length`` under one velocity-jump flight.

    A flight of duration ``T`` is a centred Gaussian step of standard
    deviation ``T``, which leaves the segment with the closed-form
    probability
    ``sqrt(2/pi) (T/l) (1 - exp(-l^2 / (2 T^2))) + erfc(l / (sqrt(2) T))``
    (the complement of the stay of a Gaussian on an interval).  It is
    averaged over ``T ~ Exp(rate)`` by panel quadrature in
    ``v = log(rate T)``, with the integrand ``u exp(-u) escape(u / rate)``,
    from 20 e-folds below ``min(rate l, 1)`` to ``log 80``.  Below the window
    the escape is at most ``sqrt(2/pi) T / l`` and above it ``exp(-u)`` is
    below ``exp(-80)``, so the window leaves out less than 1e-17.
    """
    erfc = pytest.importorskip("scipy.special").erfc
    scale = rate * length
    lo = min(math.log(scale), 0.0) - 20.0

    def f(v):
        u = math.exp(v)
        ratio = scale / u  # l / T
        escape = math.sqrt(2.0 / math.pi) / ratio * -math.expm1(-0.5 * ratio * ratio)
        return u * math.exp(-u) * (escape + erfc(ratio / math.sqrt(2.0)))

    return _quad_panels(f, _log_u_panels(lo, math.log(80.0), math.log(scale)))


def vjump_cdf_from_density(density_fn, x_max=80.0, n_points=2500):
    """CDF of a symmetric 1D law by cumulative trapezoid of its density.

    Returns a callable suitable for scipy.stats.kstest.  The density is
    evaluated on a grid refined geometrically near the origin (where the
    velocity-jump density has its integrable singularity).
    """
    grid = np.concatenate([
        np.geomspace(1e-8, 1e-2, 400),
        np.linspace(1e-2, x_max, n_points)[1:],
    ])
    dens = density_fn(grid[:, None])
    half = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    total = 2.0 * half[-1]
    xs = np.concatenate([-grid[::-1], [0.0], grid])
    cdf = np.concatenate([0.5 - half[::-1] / total, [0.5], 0.5 + half / total])

    def F(x):
        return np.interp(x, xs, cdf, left=0.0, right=1.0)

    return F


# ---------------------------------------------------------------------------
# Simplex escape oracle: iterated Gauss-Legendre in Cartesian local
# coordinates, per sign orthant, with every kink plane of the stay fraction
# (and every line where two of them cross) as an explicit breakpoint.
# ---------------------------------------------------------------------------

def _plane_key(h, r):
    lead = h[np.flatnonzero(np.abs(h) > 1e-12)[0]]
    return tuple(np.round(np.append(h, r) / lead, 9))


def _eliminate_last(planes):
    """Planes of the first j-1 coordinates along which the integral over the
    last coordinate can kink: the planes free of it, and the projections of
    the crossings of every pair that involve it."""
    free = [(h[:-1], r) for h, r in planes if h[-1] == 0.0]
    tied = [(h / h[-1], r / h[-1]) for h, r in planes if h[-1] != 0.0]
    for i, (h1, r1) in enumerate(tied):
        for h2, r2 in tied[i + 1:]:
            free.append((h1[:-1] - h2[:-1], r1 - r2))
    unique = {}
    for h, r in free:
        if np.any(np.abs(h) > 1e-12):
            unique.setdefault(_plane_key(h, r), (h, r))
    return list(unique.values())


def _side(d):
    """Side length of the simplex U ∩ (U - d), negative where they are disjoint."""
    return 1.0 - np.maximum(0.0, d.sum(axis=1)) + np.minimum(0.0, d).sum(axis=1)


def _orthant_stay_integral(signs, integrand, order, width):
    n = len(signs)
    x, w = np.polynomial.legendre.leggauss(order)
    pos = np.array([s > 0 for s in signs], dtype=float)
    neg = 1.0 - pos
    # the kinks of the side inside the orthant, and the orthant faces
    planes = [(np.ones(n), 0.0)]
    if pos.any():
        planes.append((pos, 1.0))
    if neg.any():
        planes.append((neg, -1.0))
    for i, s in enumerate(signs):
        planes += [(np.eye(n)[i], 0.0), (np.eye(n)[i], float(s))]
    levels = [planes]
    for _ in range(n - 1):
        levels.append(_eliminate_last(levels[-1]))
    levels.reverse()  # levels[j]: planes over the coordinates 0..j
    points = np.zeros((1, 0))
    weights = np.ones(1)
    for j in range(n):
        lo, hi = min(0.0, signs[j]), max(0.0, signs[j])
        # grid lines keep every panel narrower than the density's scale
        grid = np.arange(lo, hi + width, width)
        cand = [np.full(len(points), v) for v in grid]
        for h, r in levels[j]:
            if h[j] != 0.0:
                cand.append((r - points @ h[:j]) / h[j])
        edges = np.sort(np.clip(np.column_stack(cand), lo, hi), axis=1)
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
        nodes = (mid + half * x).reshape(len(points), -1)
        node_w = (half * w).reshape(len(points), -1)
        keep = node_w > 0.0
        rows = np.repeat(np.arange(len(points)), keep.sum(axis=1))
        points = np.column_stack([points[rows], nodes[keep]])
        weights = weights[rows] * node_w[keep]
        # the side only shrinks as the remaining coordinates leave 0
        alive = _side(points) > 0.0
        points, weights = points[alive], weights[alive]
    return float(weights @ integrand(points))


def simplex_escape_wiener(vertices, dt, order=8, width=None):
    """Escape probability of a triangle or tetrahedron under N(0, dt I) steps.

    Integrates the stay fraction times the step density in reference-cell
    coordinates with tensor Gauss-Legendre, one orthant at a time; the kink
    planes of the stay fraction and their crossings are panel edges, so every
    panel integrand is smooth.  Returns ``(value, error)``: the value at
    ``order + 4`` nodes per panel and its distance to the value at ``order``.
    """
    vertices = np.asarray(vertices, dtype=float)
    n = vertices.shape[1]
    matrix = (vertices[1:] - vertices[0]).T
    det = abs(np.linalg.det(matrix))
    if width is None:
        width = 0.5 * math.sqrt(dt) / np.linalg.norm(matrix, 2)

    def integrand(d):
        g = d @ matrix.T
        density = (2.0 * math.pi * dt) ** (-n / 2.0) * np.exp(-(g * g).sum(axis=1) / (2.0 * dt))
        return np.maximum(0.0, _side(d)) ** n * density * det

    orthants = [[1.0 - 2.0 * ((mask >> i) & 1) for i in range(n)] for mask in range(2**n)]
    values = [
        1.0 - sum(_orthant_stay_integral(s, integrand, q, width) for s in orthants)
        for q in (order, order + 4)
    ]
    return values[1], abs(values[1] - values[0])


# ---------------------------------------------------------------------------
# Geometry helpers for uniformity and measure checks
# ---------------------------------------------------------------------------

def simplex_box_volume(lo, hi, total=1.0):
    """Volume of {x : lo <= x <= hi, sum(x) <= total, x >= 0} assuming lo >= 0.

    Inclusion-exclusion over the upper bounds, with the corner volume
    V(x >= c, sum(x) <= total) = max(0, total - sum(c))^n / n!.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    vol = 0.0
    for mask in range(2**n):
        corner = lo.copy()
        bits = 0
        for i in range(n):
            if (mask >> i) & 1:
                corner[i] = hi[i]
                bits += 1
        vol += (-1) ** bits * max(0.0, total - corner.sum()) ** n / math.factorial(n)
    return vol


def bounding_box(points):
    pts = np.asarray(points, dtype=float)
    return pts.min(axis=0), pts.max(axis=0)
