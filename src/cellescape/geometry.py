"""Mesh elements, reference cells, and the affine transformation between them.

An element is described by its spanning vertices.  Each element kind is
affinely equivalent to a reference unit cell; the map ``g(xi) = A @ xi + b``
sends the reference cell onto the element, with the columns of ``A`` being
the edge vectors from the first vertex.  Each element builds its map once,
when it is made, and keeps it.  All heavy operations (containment, uniform
sampling) are vectorized over numpy arrays of points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateElement, DimensionMismatch, InputError

__all__ = [
    "ElementKind",
    "ReferenceCell",
    "MeshElement",
    "AffineMap",
    "Box",
    "mesh_element",
    "element_from_dict",
    "element_to_dict",
    "load_element",
    "build_affine_map",
    "contains",
    "sample_uniform",
    "measure",
]

# Boundary-inclusive containment tolerance in reference-cell coordinates.
CONTAINMENT_TOL = 1e-12
# Relative tolerance for validating redundant (implied) vertices.
IMPLIED_VERTEX_RTOL = 1e-12


class ElementKind(str, Enum):
    SEGMENT = "segment"
    TRIANGLE = "triangle"
    PARALLELOGRAM = "parallelogram"
    TETRAHEDRON = "tetrahedron"
    PARALLELEPIPED = "parallelepiped"


class ReferenceCell(Enum):
    """Canonical unit cells that elements are affinely equivalent to."""

    INTERVAL = ("interval", 1, 1.0, True)
    TRIANGLE = ("triangle", 2, 0.5, True)
    SQUARE = ("square", 2, 1.0, False)
    TETRAHEDRON = ("tetrahedron", 3, 1.0 / 6.0, True)
    CUBE = ("cube", 3, 1.0, False)

    def __init__(self, label: str, dim: int, measure: float, is_simplex: bool):
        self.label = label
        self.dim = dim
        self.measure = measure
        self.is_simplex = is_simplex


_KIND_INFO = {
    # kind: (dim, number of spanning vertices, full vertex count, reference cell)
    ElementKind.SEGMENT: (1, 2, 2, ReferenceCell.INTERVAL),
    ElementKind.TRIANGLE: (2, 3, 3, ReferenceCell.TRIANGLE),
    ElementKind.PARALLELOGRAM: (2, 3, 4, ReferenceCell.SQUARE),
    ElementKind.TETRAHEDRON: (3, 4, 4, ReferenceCell.TETRAHEDRON),
    ElementKind.PARALLELEPIPED: (3, 4, 8, ReferenceCell.CUBE),
}


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its lower and upper corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("box corners must be non-empty 1D arrays of equal length")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent along every axis")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size


@dataclass(frozen=True)
class MeshElement:
    """A mesh cell given by its full (canonical) vertex list.

    Use :func:`mesh_element` to construct one; it accepts either the
    spanning vertices or the full list and validates implied vertices.
    The element's affine map is built once, when the element is made, and
    kept on it read-only as ``affine_map``; degenerate spanning edges raise
    ``DegenerateElement`` then.  Nothing on an element changes after it is
    made, so threads may share it.
    """

    kind: ElementKind
    vertices: np.ndarray
    affine_map: "AffineMap" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy, so that no array of the caller's can change the vertices
        # under the map built from them
        verts = np.array(self.vertices, dtype=float)
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "affine_map", _element_map(self))

    @property
    def dim(self) -> int:
        return _KIND_INFO[self.kind][0]

    @property
    def reference_cell(self) -> ReferenceCell:
        return _KIND_INFO[self.kind][3]

    @property
    def spanning_vertices(self) -> np.ndarray:
        return self.vertices[: _KIND_INFO[self.kind][1]]


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


def mesh_element(kind: ElementKind | str, vertices) -> MeshElement:
    """Build a validated mesh element.

    Parameters
    ----------
    kind : ElementKind or str
        One of ``segment``, ``triangle``, ``parallelogram``, ``tetrahedron``,
        ``parallelepiped``.
    vertices : array_like
        Ordered vertex coordinates, shape ``(count, dim)`` (a plain list of
        numbers is accepted for segments).  Either the spanning vertices or
        the full list (parallelogram: 4th vertex ``B + C - A``;
        parallelepiped: the 4 remaining corners) may be given; redundant
        vertices are checked against the implied ones.

    Raises
    ------
    InputError
        Wrong vertex count, wrong coordinate dimension, non-finite
        coordinates, or redundant vertices that contradict the implied ones.
    DegenerateElement
        Spanning edges that are linearly dependent, by the check that
        builds the element's affine map (see :func:`build_affine_map`).
    """
    try:
        kind = ElementKind(kind)
    except ValueError:
        valid = ", ".join(k.value for k in ElementKind)
        raise InputError("kind", f"unknown element kind {kind!r}; expected one of {valid}") from None
    dim, n_span, n_full, _ = _KIND_INFO[kind]

    verts = np.asarray(vertices, dtype=float)
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

    full = _implied_vertices(kind, verts[:n_span])
    if verts.shape[0] == n_full and n_full > n_span:
        scale = max(np.max(np.abs(full)), 1.0)
        if not np.allclose(verts[n_span:], full[n_span:], rtol=0.0, atol=IMPLIED_VERTEX_RTOL * scale):
            raise InputError(
                "vertices",
                f"supplied {kind.value} vertices are inconsistent with the "
                f"vertices implied by the spanning ones",
            )
    return MeshElement(kind=kind, vertices=full)


def _as_batch(points, dim: int, what: str) -> tuple[np.ndarray, bool]:
    """``points`` as an ``(m, dim)`` array, and whether one ``(dim,)`` point was given."""
    arr = np.asarray(points, dtype=float)
    one = arr.ndim == 1
    if one:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(
            f"{what} must have {dim} component(s), got shape {np.shape(points)}"
        )
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
    try:
        return mesh_element(data["kind"], data["vertices"])
    except (TypeError, ValueError) as exc:
        raise InputError("vertices", f"could not parse vertex coordinates: {exc}") from None


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


def load_element(path) -> MeshElement:
    """Read an element from a JSON geometry file; an unreadable one raises ``InputError("geometry")``."""
    return element_from_dict(_read_json(path, "geometry"))


@dataclass(frozen=True)
class AffineMap:
    """The pair ``(A, b)`` mapping reference-cell coordinates to global ones.

    ``inverse`` and ``abs_det`` are computed once and cached on the instance.
    """

    matrix: np.ndarray
    offset: np.ndarray
    inverse: np.ndarray
    abs_det: float

    @classmethod
    def from_matrix(cls, matrix, offset, det: float | None = None) -> "AffineMap":
        """The map of ``matrix`` and ``offset``; ``det``, when given, is ``np.linalg.det(matrix)``."""
        matrix = np.asarray(matrix, dtype=float)
        offset = np.asarray(offset, dtype=float)
        if det is None:
            det = float(np.linalg.det(matrix))
        if det == 0.0 or not np.isfinite(det):
            raise DegenerateElement("affine matrix is singular")
        inverse = np.linalg.inv(matrix)
        for arr in (matrix, offset, inverse):
            arr.flags.writeable = False
        return cls(matrix=matrix, offset=offset, inverse=inverse, abs_det=abs(det))

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
            raise DimensionMismatch(f"points must have {self.dim} component(s), got shape {pts.shape}")
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


def build_affine_map(element: MeshElement) -> AffineMap:
    """Affine map sending the element's reference cell onto the element.

    Columns of the matrix are the edge vectors from the first vertex to the
    other spanning vertices; the offset is the first vertex.  The map is
    the one built when the element was made, so every call returns the
    same read-only object.
    """
    return element.affine_map


def _element_map(element: MeshElement) -> AffineMap:
    """The affine map of ``element``, built from its spanning vertices.

    Raises
    ------
    DegenerateElement
        If ``|det| <= 1e-14 * scale**n`` where ``scale`` is the largest
        spanning edge norm (unit-independent degeneracy check).
    """
    span = element.spanning_vertices
    a = span[0]
    edges = span[1:] - a
    matrix = edges.T
    n = element.dim
    scale = float(np.max(np.linalg.norm(edges, axis=1)))
    det = float(np.linalg.det(matrix))
    eps = 1e-14 * scale**n
    if not np.isfinite(det) or abs(det) <= eps:
        raise DegenerateElement(
            f"{element.kind.value} vertices are degenerate: spanning edges are linearly dependent "
            f"(|det| = {abs(det):.3e} <= {eps:.3e})"
        )
    return AffineMap.from_matrix(matrix, a.copy(), det)


def _reference_contains(cell: ReferenceCell, local: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Boundary-inclusive membership of points ``(..., n)`` in the reference cell.

    Compares whole coordinate columns, so one point gives a 0-d result and
    a batch ``(m, n)`` an ``(m,)`` array by the same path.  A simplex sums
    its coordinates left to right.  With ``out``, a boolean array of the
    result's shape, the result is written into it and ``out`` is returned.
    """
    cols = [local[..., j] for j in range(cell.dim)]
    # a simplex bounds the sum of its coordinates from above, a box each one
    upper = cols
    if cell.is_simplex and cell.dim > 1:
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
    pts, one = _as_batch(point, element.dim, "point")
    amap = build_affine_map(element)
    result = _reference_contains(element.reference_cell, amap.to_local(pts))
    return bool(result[0]) if one else result


def _sample_reference(
    cell: ReferenceCell, rng: np.random.Generator, m: int,
    out: np.ndarray | None = None, draws: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform samples in the reference cell, shape (m, dim), with contiguous columns.

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
    draws = rng.random((m, cell.dim), out=draws)
    cols = np.empty((cell.dim, m)) if out is None else out.T
    cols[...] = draws.T
    if cell.is_simplex:
        low = draws.reshape(-1)[:m]
        for end in range(cell.dim - 1, 0, -1):
            for j in range(end):
                np.minimum(cols[j], cols[j + 1], out=low)
                np.maximum(cols[j], cols[j + 1], out=cols[j + 1])
                cols[j] = low
        for j in range(cell.dim - 1, 0, -1):
            cols[j] -= cols[j - 1]
    return cols.T


def sample_uniform(element: MeshElement, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw points uniformly inside the element.

    Samples uniformly in the reference cell and applies the affine map,
    which preserves uniformity.  Returns shape ``(n,)`` when ``size`` is
    None, else ``(size, n)``.  Only the supplied generator is mutated.
    """
    amap = build_affine_map(element)
    m = 1 if size is None else int(size)
    local = _sample_reference(element.reference_cell, rng, m)
    pts = amap.to_global(local)
    if size is None:
        return pts[0]
    return pts


def measure(element: MeshElement) -> float:
    """Length, area, or volume: ``|det(A)| * measure(reference cell)``."""
    amap = build_affine_map(element)
    return amap.abs_det * element.reference_cell.measure
