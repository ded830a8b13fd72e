"""Conditional escape probabilities for a fixed step.

Given a step ``d`` in reference-cell coordinates, the fraction of the cell
that stays inside when translated by ``d`` is the overlap ratio
``V(U ∩ (U - d)) / V(U)``.  For boxes the overlap factorizes per axis; for
simplices the intersection is again a simplex:

    U ∩ (U - d) = {x : x_i >= max(0, -d_i),  sum(x) <= 1 - max(0, sum(d))}

so its side length is ``1 - max(0, sum(d)) - sum(max(0, -d_i))`` and the
stay fraction is that side (clamped at 0) raised to the cell dimension.
On each sign orthant this reproduces the per-case closed forms (squared /
cubed terms like ``(1 - |dxi| - |deta|)^2``), and it extends them
continuously across the case boundaries where sign products vanish.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, EmptyInterval, InputError
from .geometry import ElementKind, MeshElement, _as_batch, _check_element, _kind

__all__ = [
    "stay_fraction",
    "conditional_escape",
    "conditional_transition_1d",
]


def _interval(which: str, pair) -> tuple[float, float]:
    """The ends ``(lo, hi)`` of a finite 1D interval of positive length.

    Raises ``InputError`` naming ``which`` unless ``pair`` is two finite
    numbers, and ``EmptyInterval``, an ``InputError`` naming it too, unless
    ``lo < hi``.
    """
    try:
        lo, hi = (float(x) for x in pair)
    except (TypeError, ValueError):
        raise InputError(which, f"expected a pair of numbers, got {pair!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(which, f"interval ends must be finite, got [{lo}, {hi}]")
    if hi <= lo:
        raise EmptyInterval(which, f"interval [{lo}, {hi}] has non-positive length")
    return lo, hi


def _stay_box(d: np.ndarray) -> np.ndarray:
    return np.prod(np.maximum(0.0, 1.0 - np.abs(d)), axis=1)


def _stay_simplex(d: np.ndarray) -> np.ndarray:
    # a sum of finite steps overflows only to an infinity that drives the
    # side below 0, where the step leaves nothing of the cell
    with np.errstate(over="ignore"):
        side = 1.0 - np.maximum(0.0, d.sum(axis=1)) - np.maximum(0.0, -d).sum(axis=1)
    return np.maximum(0.0, side) ** d.shape[1]


def stay_fraction(cell: ElementKind | str, step) -> float | np.ndarray:
    """Overlap ratio ``V(U ∩ (U - step)) / V(U)`` in [0, 1] on the reference cell ``U`` of a kind.

    ``cell`` is an ``ElementKind`` or its name; anything else raises
    ``InputError`` naming ``cell``.  ``step`` is a single local step
    ``(n,)`` or a batch ``(m, n)``.  Segment: ``max(0, 1 - |d|)``;
    parallelogram/parallelepiped: per-axis product of the same factor;
    triangle/tetrahedron: the simplex overlap described in the module
    docstring.  Both closed forms lie in [0, 1] as they stand.
    """
    cell = _kind("cell", cell)
    d, scalar = _as_batch(step, cell.dim, "step")
    if not np.all(np.isfinite(d)):
        raise DimensionMismatch("step", "components must be finite")
    if cell.is_simplex and cell.dim > 1:
        out = _stay_simplex(d)
    else:
        out = _stay_box(d)
    return float(out[0]) if scalar else out


def conditional_escape(element: MeshElement, global_step) -> float | np.ndarray:
    """Escape probability for a fixed global step.

    Equals ``1 - stay_fraction`` of the step expressed in the element's
    reference-cell coordinates, ``A^-1 @ step`` (a displacement, so no
    offset); affine maps preserve volume ratios, so no geometry-specific
    overlap computation is needed.  ``global_step`` is one step ``(n,)``
    or a batch ``(m, n)``.

    Raises
    ------
    DimensionMismatch
        Naming ``step``: a step without the element's ``n`` components, or
        one whose local coordinates are not finite.
    InputError
        An ``element`` that is not a ``MeshElement``, or a ``step`` that is
        not a rectangular array of numbers.
    """
    _check_element("element", element)
    amap = element.affine_map
    step, one = _as_batch(global_step, amap.dim, "step")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        local = amap.local_step(step)
    if not np.isfinite(local).all():
        raise DimensionMismatch("step", "produced non-finite local coordinates")
    out = 1.0 - stay_fraction(element.kind, local)
    return float(out[0]) if one else out


def conditional_transition_1d(source, target, step) -> float | np.ndarray:
    """Probability of landing in ``[c, d]`` from uniform start in ``[a, b]``.

    For a fixed 1D step the value is
    ``max(0, min(b, d - step) - max(a, c - step)) / (b - a)`` inside the
    window ``c - b <= step <= d - a`` and 0 outside.  The overlap length is
    clamped at 0 so that floating-point underflow of the window check can
    never produce a spurious positive value.

    ``step`` may be a scalar or an array.  An interval that is not two
    finite numbers raises ``InputError`` naming ``source`` or ``target``,
    and a ``step`` that is not numbers one naming ``step``.
    """
    a, b = _interval("source", source)
    c, d = _interval("target", target)
    try:
        dx = np.asarray(step, dtype=float)
    except (TypeError, ValueError):
        raise InputError("step", "expected a number or a rectangular array of numbers") from None
    # d - dx overflows only to +inf, where the minimum takes b, and c - dx
    # only to -inf, where the maximum takes a
    with np.errstate(over="ignore"):
        overlap = np.minimum(b, d - dx) - np.maximum(a, c - dx)
    inside = (dx >= c - b) & (dx <= d - a)
    out = np.where(inside, np.maximum(0.0, overlap) / (b - a), 0.0)
    if np.ndim(step) == 0:
        return float(out)
    return out
