"""Mesh elements, reference cells, and the affine transformation between them.

An element is described by its spanning vertices.  Each element kind is
affinely equivalent to one reference unit cell, whose dimension, measure
and shape (simplex or box) the kind carries; the map ``g(xi) = A @ xi + b``
sends the reference cell onto the element, with the columns of ``A`` being
the edge vectors from the first vertex.  Each element builds its map once,
when it is made, and keeps it as ``element.affine_map``.  All heavy
operations (containment, uniform sampling) are vectorized over numpy arrays
of points.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateElement, DimensionMismatch, InputError, _integer

__all__ = [
    "ElementKind",
    "MeshElement",
    "AffineMap",
    "mesh_element",
    "element_from_dict",
    "element_to_dict",
    "load_element",
    "contains",
    "sample_uniform",
    "measure",
]

# Boundary-inclusive containment tolerance in reference-cell coordinates.
CONTAINMENT_TOL = 1e-12
# Relative tolerance for validating redundant (implied) vertices.
IMPLIED_VERTEX_RTOL = 1e-12


class ElementKind(str, Enum):
    """A kind of element, named by its JSON value, and its reference cell.

    Each member carries the reference cell's ``dim``, its ``measure``
    (length, area or volume) and ``is_simplex``: the segment, triangle and
    tetrahedron map from the unit simplex, the parallelogram and the
    parallelepiped from the unit box.
    """

    SEGMENT = ("segment", 1, 1.0, True)
    TRIANGLE = ("triangle", 2, 0.5, True)
    PARALLELOGRAM = ("parallelogram", 2, 1.0, False)
    TETRAHEDRON = ("tetrahedron", 3, 1.0 / 6.0, True)
    PARALLELEPIPED = ("parallelepiped", 3, 1.0, False)

    def __new__(cls, value: str, dim: int, measure: float, is_simplex: bool):
        member = str.__new__(cls, value)
        member._value_ = value
        member.dim = dim
        member.measure = measure
        member.is_simplex = is_simplex
        return member


def _kind(argument: str, value) -> ElementKind:
    """``value`` as an ``ElementKind``; ``InputError`` naming ``argument`` unless it is a member or its name."""
    try:
        return ElementKind(value)
    except ValueError:
        valid = ", ".join(k.value for k in ElementKind)
        raise InputError(argument, f"unknown element kind {value!r}; expected one of {valid}") from None


@dataclass(frozen=True, eq=False)
class MeshElement:
    """A validated mesh cell, kept with its full (canonical) vertex list.

    The map ``g(xi) = A @ xi + b`` from the reference cell, with the edges
    from the first vertex to the other spanning ones as the columns of
    ``A`` and that vertex as ``b``, is built when the element is made and
    kept on it read-only as ``affine_map``.  The element also owns the
    scaled frame that the deterministic solver works in: ``A / 2^e``, with
    ``2^e`` the power of two its degeneracy test divides the edges by, so
    that no square of a length in it leaves the normal floats, however wide
    or narrow the cell.  Nothing on an element changes after that, so
    threads may share it.  Elements compare and hash by identity.
    ``mesh_element`` is another name for this class.

    Parameters
    ----------
    kind : ElementKind or str
        One of ``segment``, ``triangle``, ``parallelogram``, ``tetrahedron``,
        ``parallelepiped``.
    vertices : array_like
        Ordered vertex coordinates, shape ``(count, dim)`` (a plain list of
        numbers is accepted for segments), as ints, floats or a numeric
        numpy array.  Either the spanning vertices or the full list
        (parallelogram: 4th vertex ``B + C - A``; parallelepiped: the 4
        remaining corners) may be given; redundant vertices are checked
        against the implied ones.

    Raises
    ------
    InputError
        Naming ``kind`` for an unknown kind, and ``vertices`` for vertices
        that are not a rectangular array of numbers, coordinates that are
        strings or bools, a wrong vertex count, a wrong coordinate
        dimension, non-finite coordinates, redundant vertices that
        contradict the implied ones, or spanning edges or a ``|det A|``
        that float64 cannot hold (an overflow, or a ``|det A|`` that
        underflows to 0).
    DegenerateElement
        An ``InputError`` naming ``vertices``, if ``|det A| <= 1e-14 *
        scale**n``, with ``scale`` the longest spanning edge, both taken of
        the edges divided by a power of two near the largest coordinate:
        linearly dependent edges, in any unit.
    """

    kind: ElementKind
    vertices: np.ndarray
    affine_map: "AffineMap" = field(init=False, repr=False)
    # (A / 2^e, 2^-e, |det A|^(1/n) / 2^e): the scaled frame, read-only
    _frame: tuple = field(init=False, repr=False)

    def __post_init__(self):
        kind = _kind("kind", self.kind)
        dim, n_span = kind.dim, kind.dim + 1  # the first vertex and one per edge span
        n_full = n_span if kind.is_simplex else 2**dim  # a box has all its corners

        # each coordinate as given: numpy would turn a string into a number,
        # and a bool among numbers into one
        coords = np.array(self.vertices, dtype=object)
        if coords.ndim > 2:  # numpy walks no more than 32 dimensions
            raise InputError("vertices", "expected a 2D array of vertex coordinates")
        odd = [x for x in coords.flat if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real)]
        if odd:
            if all(isinstance(x, (str, bool, np.bool_)) for x in odd):
                raise InputError("vertices", "coordinates must be real numbers, not strings or bools")
            # a ragged list holds lists, and None or a dict stays one object
            raise InputError("vertices", f"expected a rectangular array of numbers, got {self.vertices!r}")
        # a copy, so that no array of the caller's can change the vertices
        # under the map built from them
        try:
            verts = coords.astype(float)
        except OverflowError:  # an int beyond the largest float
            raise InputError("vertices", "coordinates must be finite numbers") from None
        if kind == ElementKind.SEGMENT and verts.ndim == 1:
            verts = verts[:, None]
        if verts.ndim != 2:
            raise InputError("vertices", "expected a 2D array of vertex coordinates")
        if verts.shape[1] != dim:
            raise InputError(
                "vertices",
                f"{kind.value} vertices must have {dim} coordinate(s), got {verts.shape[1]}",
            )
        if not np.all(np.isfinite(verts)):
            raise InputError("vertices", "coordinates must be finite numbers")
        if verts.shape[0] not in (n_span, n_full):
            expected = str(n_span) if n_span == n_full else f"{n_span} or {n_full}"
            raise InputError(
                "vertices",
                f"{kind.value} expects {expected} vertices, got {verts.shape[0]}",
            )

        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned about
            full = _implied_vertices(kind, verts[:n_span])
            edges = full[1:n_span] - full[0]
            consistent = verts.shape[0] == n_span or np.allclose(
                verts[n_span:], full[n_span:], rtol=0.0, atol=IMPLIED_VERTEX_RTOL * max(np.max(np.abs(full)), 1.0))
        if not (np.isfinite(full).all() and np.isfinite(edges).all()):
            raise InputError("vertices", f"{kind.value} vertices span edges beyond the float64 range")
        if not consistent:
            raise InputError(
                "vertices",
                f"supplied {kind.value} vertices are inconsistent with the "
                f"vertices implied by the spanning ones",
            )
        full.flags.writeable = False
        # |det A| and the degeneracy test are taken of the edges over a power
        # of two, exactly, so that the test gives one answer in every unit
        # and |det A| keeps its digits far from 1; 2^-e stays a finite float
        exponent = max(math.frexp(float(np.max(np.abs(edges))))[1], -1022)
        unit = np.ldexp(edges, -exponent)
        scale = float(np.max(np.linalg.norm(unit, axis=1)))
        unit_det = abs(_cofactor_det(unit.tolist()))
        eps = 1e-14 * scale**dim
        if unit_det <= eps:
            raise DegenerateElement(
                "vertices",
                f"{kind.value} vertices are degenerate: spanning edges are linearly dependent "
                f"(|det| = {unit_det:.3e} <= {eps:.3e}, edges in units of 2^{exponent})"
            )
        try:
            det = math.ldexp(unit_det, dim * exponent)
        except OverflowError:
            det = math.inf
        if not 0.0 < det < math.inf:
            raise InputError(
                "vertices",
                f"{kind.value} vertices span |det A| = 10^{math.log10(unit_det) + dim * exponent * math.log10(2.0):.1f}, "
                f"beyond the float64 range",
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vertices", full)
        affine_map = AffineMap(edges.T, full[0].copy(), np.linalg.inv(edges.T), det)
        object.__setattr__(self, "affine_map", affine_map)
        # the root of |det A| scaled exactly, on a cell between 2^-255 and
        # 2^256 across; beyond, where that root loses digits to the power
        # or |det A| to underflow, the root of the scaled edges' |det|
        root = det ** (1.0 / dim)
        root = math.ldexp(root, -exponent) if 2.0**-255 <= root < 2.0**256 else unit_det ** (1.0 / dim)
        unit.flags.writeable = False
        object.__setattr__(self, "_frame", (unit.T, math.ldexp(1.0, -exponent), root))

    @property
    def dim(self) -> int:
        return self.kind.dim


mesh_element = MeshElement


def _cofactor_det(rows: list[list[float]]) -> float:
    """The determinant of a square matrix given as rows, by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * x * _cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]))


def _implied_vertices(kind: ElementKind, spanning: np.ndarray) -> np.ndarray:
    """Full canonical vertex list from the spanning vertices."""
    if kind == ElementKind.PARALLELOGRAM:
        a, b, c = spanning
        return np.vstack([spanning, b + c - a])
    if kind == ElementKind.PARALLELEPIPED:
        a, b, c, d = spanning
        extra = [b + c - a, b + d - a, b + c + d - 2 * a, c + d - a]
        return np.vstack([spanning, extra])
    return spanning


def _as_batch(points, dim: int, what: str) -> tuple[np.ndarray, bool]:
    """``points`` as an ``(m, dim)`` array, and whether one ``(dim,)`` point was given.

    Anything but a rectangular array of numbers raises ``InputError``, and
    any other shape ``DimensionMismatch``, each naming ``what``.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):  # a ragged batch, or an entry that is not a number
        raise InputError(what, "expected a rectangular array of numbers") from None
    one = arr.ndim == 1
    if one:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(what, f"expected {dim} component(s), got shape {np.shape(points)}")
    return arr, one


def _check_element(argument: str, value) -> None:
    """Raise ``InputError`` naming ``argument`` unless ``value`` is a ``MeshElement``."""
    if not isinstance(value, MeshElement):
        raise InputError(argument, f"expected a MeshElement, got {type(value).__name__}")


def element_from_dict(data: dict) -> MeshElement:
    """Build an element from ``{"kind": ..., "vertices": [...]}``."""
    if not isinstance(data, dict):
        raise InputError("geometry", "expected a JSON object")
    if "kind" not in data:
        raise InputError("kind", "missing required field")
    if "vertices" not in data:
        raise InputError("vertices", "missing required field")
    return mesh_element(data["kind"], data["vertices"])


def element_to_dict(element: MeshElement) -> dict:
    return {"kind": element.kind.value, "vertices": element.vertices.tolist()}


def _read_json(path, field: str):
    """The JSON document in the file ``path``; ``InputError`` naming ``field`` if unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(field, f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # malformed JSON or text encoding
        raise InputError(field, f"invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(field, "invalid JSON: nested too deeply to read") from None


def load_element(path) -> MeshElement:
    """Read an element from a JSON geometry file; an unreadable one raises ``InputError("geometry")``."""
    return element_from_dict(_read_json(path, "geometry"))


@dataclass(frozen=True)
class AffineMap:
    """The pair ``(A, b)`` mapping reference-cell coordinates to global ones.

    It is made with ``A``'s ``inverse`` and ``abs_det``, which its maker
    already holds (an element from its edges, a composed map from its
    factors'), so the map itself computes neither.  Its arrays are made
    read-only.
    """

    matrix: np.ndarray
    offset: np.ndarray
    inverse: np.ndarray
    abs_det: float

    def __post_init__(self):
        for arr in (self.matrix, self.offset, self.inverse):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_global(self, local_points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A xi + b`` for points ``(..., n)``, one output coordinate at a time.

        Each coordinate is summed from whole input columns by ufuncs, so no
        BLAS call, and no BLAS thread, is involved.  The result has the
        input's shape and contiguous coordinate columns.  With ``out``, an
        array of that shape that shares no memory with the input, the
        result is written into it and ``out`` is returned; the transpose of
        an ``(n, ...)`` array keeps its columns contiguous.  Points whose
        last axis is not of length ``n`` raise ``DimensionMismatch``.
        """
        pts = np.asarray(local_points, dtype=float)
        if pts.shape[-1:] != (self.dim,):
            raise DimensionMismatch("points", f"expected {self.dim} component(s), got shape {pts.shape}")
        if out is None:
            out = np.moveaxis(np.empty((self.dim,) + pts.shape[:-1]), 0, -1)
        product = np.empty(pts.shape[:-1]) if pts.shape[-1] > 1 else None
        for i in range(self.dim):
            col = out[..., i]
            np.multiply(pts[..., 0], self.matrix[i, 0], out=col)
            for j in range(1, pts.shape[-1]):
                col += np.multiply(pts[..., j], self.matrix[i, j], out=product)
            col += self.offset[i]
        return out

    def to_local(self, global_points: np.ndarray) -> np.ndarray:
        return (np.asarray(global_points, dtype=float) - self.offset) @ self.inverse.T

    def local_step(self, global_step: np.ndarray) -> np.ndarray:
        """Displacement vectors transform without the offset."""
        return np.asarray(global_step, dtype=float) @ self.inverse.T

    def global_step(self, local_step: np.ndarray) -> np.ndarray:
        return np.asarray(local_step, dtype=float) @ self.matrix.T


def _reference_contains(kind: ElementKind, local: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Boundary-inclusive membership of points ``(..., n)`` in the reference cell of ``kind``.

    Compares whole coordinate columns, so one point gives a 0-d result and
    a batch ``(m, n)`` an ``(m,)`` array by the same path.  A simplex sums
    its coordinates left to right.  With ``out``, a boolean array of the
    result's shape, the result is written into it and ``out`` is returned.
    """
    cols = [local[..., j] for j in range(kind.dim)]
    # a simplex bounds the sum of its coordinates from above, a box each one
    upper = cols
    if kind.is_simplex and kind.dim > 1:
        # a sum of finite coordinates overflows to the infinity on the side
        # of the bound where its point lies, outside the cell
        with np.errstate(over="ignore"):
            total = cols[0] + cols[1]
            for col in cols[2:]:
                total += col
        upper = [total]
    inside = np.greater_equal(cols[0], -CONTAINMENT_TOL, out=out)
    for col in cols[1:]:
        inside &= col >= -CONTAINMENT_TOL
    for col in upper:
        inside &= col <= 1.0 + CONTAINMENT_TOL
    return inside


def contains(element: MeshElement, point) -> bool | np.ndarray:
    """Boundary-inclusive membership test in reference-cell coordinates.

    Accepts a single point ``(n,)`` or a batch ``(m, n)``; returns a bool or
    a boolean array accordingly.
    """
    _check_element("element", element)
    pts, one = _as_batch(point, element.dim, "point")
    # a point whose local coordinates overflow lies far outside, and every
    # comparison of an infinite or NaN coordinate reads outside
    with np.errstate(over="ignore", invalid="ignore"):
        result = _reference_contains(element.kind, element.affine_map.to_local(pts))
    return bool(result[0]) if one else result


def _sample_reference(
    kind: ElementKind, rng: np.random.Generator, m: int,
    out: np.ndarray | None = None, draws: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform samples in the reference cell of ``kind``, shape (m, dim), with contiguous columns.

    One point is one row of ``rng.random((m, dim))``, copied into
    coordinate columns.  A box keeps them.  A simplex sorts each point's
    coordinates by compare-exchange passes over whole columns and keeps
    their spacings, which are uniform on the simplex in any dimension
    (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. V).  The
    returned array is the transpose of the columns.

    ``out``, an ``(m, dim)`` array with contiguous columns (the transpose
    of a ``(dim, m)`` array), receives the points, and ``draws``, a
    C-contiguous ``(m, dim)`` array, receives the uniforms and then serves
    as the sort's scratch.  Either is allocated when not given.
    """
    draws = rng.random((m, kind.dim), out=draws)
    cols = np.empty((kind.dim, m)) if out is None else out.T
    cols[...] = draws.T
    if kind.is_simplex:
        low = draws.reshape(-1)[:m]
        for end in range(kind.dim - 1, 0, -1):
            for j in range(end):
                np.minimum(cols[j], cols[j + 1], out=low)
                np.maximum(cols[j], cols[j + 1], out=cols[j + 1])
                cols[j] = low
        for j in range(kind.dim - 1, 0, -1):
            cols[j] -= cols[j - 1]
    return cols.T


def sample_uniform(element: MeshElement, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw points uniformly inside the element.

    Samples uniformly in the reference cell and applies the affine map,
    which preserves uniformity.  Returns shape ``(n,)`` when ``size`` is
    None, else ``(size, n)``; any other ``size`` than a non-negative
    integer (not a bool) raises ``InputError``.  Only the supplied generator
    is mutated.
    """
    _check_element("element", element)
    local = _sample_reference(element.kind, rng, 1 if size is None else _integer("size", size, 0))
    pts = element.affine_map.to_global(local)
    return pts[0] if size is None else pts


def measure(element: MeshElement) -> float:
    """Length, area, or volume: ``|det(A)| * measure(reference cell)``."""
    _check_element("element", element)
    return element.affine_map.abs_det * element.kind.measure
