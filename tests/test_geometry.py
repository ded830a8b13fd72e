import json
import math
import zlib
from fractions import Fraction

import numpy as np
import pytest

from cellescape import (
    AffineMap,
    DegenerateElement,
    DimensionMismatch,
    ElementKind,
    InputError,
    MeshElement,
    WienerStep,
    conditional_escape,
    contains,
    element_from_dict,
    element_to_dict,
    escape_probability_det,
    load_element,
    measure,
    mesh_element,
    sample_uniform,
)
from cellescape.geometry import CONTAINMENT_TOL, _reference_contains, _sample_reference

from oracles import bounding_box, simplex_box_volume


def exact_det(rows) -> Fraction:
    """The determinant of the float matrix ``rows`` in rational arithmetic."""
    if len(rows) == 1:
        return Fraction(rows[0][0])
    return sum((-1) ** j * Fraction(x) * exact_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]))


class TestConstruction:
    def test_vertex_counts(self):
        with pytest.raises(InputError):
            mesh_element("triangle", [[0, 0], [1, 0]])
        with pytest.raises(InputError):
            mesh_element("segment", [[0.0], [1.0], [2.0]])
        with pytest.raises(InputError, match="kind"):
            mesh_element("hexagon", [[0, 0]])

    def test_dimension_must_match_kind(self):
        with pytest.raises(InputError):
            mesh_element("triangle", [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(InputError):
            mesh_element("segment", [[0, 0], [1, 0]])

    def test_non_finite_coordinates(self):
        with pytest.raises(InputError):
            mesh_element("segment", [[0.0], [math.nan]])
        with pytest.raises(InputError) as info:
            mesh_element("segment", [[0], [10**400]])  # an int beyond the largest float
        assert info.value.field == "vertices"

    def test_parallelogram_fourth_vertex_implied(self):
        three = mesh_element("parallelogram", [[0, 0], [2, 0], [1, 2]])
        assert np.allclose(three.vertices[3], [3, 2])
        four = mesh_element("parallelogram", [[0, 0], [2, 0], [1, 2], [3, 2]])
        assert np.allclose(three.vertices, four.vertices)

    def test_parallelogram_inconsistent_fourth_vertex(self):
        with pytest.raises(InputError):
            mesh_element("parallelogram", [[0, 0], [2, 0], [1, 2], [3.1, 2]])

    def test_parallelepiped_eight_vertex_form(self, benchmark_elements):
        spanning = mesh_element(
            "parallelepiped", [[0, 0, 0], [2, 0, 0], [1, 2, 1], [0, 0, 2]]
        )
        assert np.allclose(spanning.vertices, benchmark_elements["parallelepiped"].vertices)

    def test_parallelepiped_inconsistent_vertices(self):
        vertices = [
            [0, 0, 0], [2, 0, 0], [1, 2, 1], [0, 0, 2],
            [3, 2, 1], [2, 0, 2], [3, 2, 3], [1, 2, 3.001],
        ]
        with pytest.raises(InputError):
            mesh_element("parallelepiped", vertices)

    def test_vertices_are_read_only(self):
        element = mesh_element("segment", [[0.0], [1.0]])
        with pytest.raises(ValueError):
            element.vertices[0] = 5.0

    def test_elements_compare_and_hash_by_identity(self):
        vertices = [[0, 0], [2, 0], [3, 2]]
        a = mesh_element("triangle", vertices)
        assert a == a
        assert a != mesh_element("triangle", vertices)
        assert {a: 1}[a] == 1
        assert hash(a) == hash(a)

    @pytest.mark.parametrize("kind, vertices, message", [
        ("segment", [["0"], ["2"]], "not strings or bools"),
        ("segment", ["0", "2"], "not strings or bools"),
        ("segment", [[False], [True]], "not strings or bools"),
        ("segment", [[0.5], [True]], "not strings or bools"),
        ("triangle", [[0, 0], [2, 0], [3, np.True_]], "not strings or bools"),
        ("triangle", [[0, 0], [2, "0"], [3, 2]], "not strings or bools"),
        ("triangle", np.array([[0, 0], [1, 0], [0, 1]], dtype=bool), "not strings or bools"),
        ("triangle", np.array([["0", "0"], ["1", "0"], ["0", "1"]]), "not strings or bools"),
        ("triangle", [[0, 0], [1]], "rectangular array of numbers"),
        ("triangle", None, "rectangular array of numbers"),
        ("triangle", {}, "rectangular array of numbers"),
    ], ids=["strings", "flat-strings", "bools", "bool-among-floats", "numpy-bool-among-ints",
            "string-among-ints", "bool-array", "string-array", "ragged", "none", "dict"])
    def test_coordinates_must_be_numbers(self, kind, vertices, message):
        with pytest.raises(InputError, match=message) as info:
            MeshElement(kind, vertices)
        assert info.value.field == "vertices"
        with pytest.raises(InputError, match=message) as info:
            element_from_dict({"kind": kind, "vertices": vertices})
        assert info.value.field == "vertices"

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [2, 0], [3, 2]],
        [[0.0, 0], [2, 0.0], [3, 2.0]],
        np.array([[0, 0], [2, 0], [3, 2]], dtype=np.int32),
        np.array([[0, 0], [2, 0], [3, 2]], dtype=np.float32),
        [np.array([0, 0]), (np.int64(2), np.float64(0)), [3, 2]],
    ], ids=["ints", "mixed-ints-and-floats", "int32-array", "float32-array", "numpy-rows-and-scalars"])
    def test_numeric_coordinates_keep_working(self, vertices):
        assert MeshElement("triangle", vertices).vertices.tolist() == [[0.0, 0.0], [2.0, 0.0], [3.0, 2.0]]

    def test_mesh_element_is_the_class(self):
        assert mesh_element is MeshElement


class TestElementKind:
    @pytest.mark.parametrize("kind, dim, cell_measure, is_simplex", [
        ("segment", 1, 1.0, True),
        ("triangle", 2, 0.5, True),
        ("parallelogram", 2, 1.0, False),
        ("tetrahedron", 3, 1.0 / 6.0, True),
        ("parallelepiped", 3, 1.0, False),
    ])
    def test_kind_carries_its_reference_cell(self, kind, dim, cell_measure, is_simplex):
        member = ElementKind(kind)
        assert member == kind and member.value == kind
        assert (member.dim, member.measure, member.is_simplex) == (dim, cell_measure, is_simplex)

    @pytest.mark.parametrize("call", [
        lambda element, rng: contains(element, [0.1, 0.1]),
        lambda element, rng: sample_uniform(element, rng, 3),
        lambda element, rng: measure(element),
        lambda element, rng: conditional_escape(element, [0.1, 0.1]),
    ], ids=["contains", "sample_uniform", "measure", "conditional_escape"])
    def test_non_element_is_an_input_error_naming_element(self, call, rng):
        with pytest.raises(InputError) as info:
            call("tri", rng)
        assert info.value.field == "element"


class TestAffineMap:
    def test_benchmark_triangle(self, benchmark_elements):
        amap = benchmark_elements["triangle"].affine_map
        assert np.array_equal(amap.matrix, [[2.0, 3.0], [0.0, 2.0]])
        assert np.array_equal(amap.offset, [0.0, 0.0])
        assert amap.abs_det == 4.0

    def test_unit_triangle_is_identity(self):
        amap = mesh_element("triangle", [[0, 0], [1, 0], [0, 1]]).affine_map
        assert np.array_equal(amap.matrix, np.eye(2))
        assert np.array_equal(amap.offset, [0.0, 0.0])

    def test_collinear_triangle_is_degenerate(self):
        with pytest.raises(DegenerateElement):
            mesh_element("triangle", [[0, 0], [1, 1], [2, 2]])

    @pytest.mark.parametrize("kind, vertices, error, field", [
        ("segment", [[1.0], [1.0]], DegenerateElement, "vertices"),
        ("triangle", [[0, 0], [1, 1], [2, 2]], DegenerateElement, "vertices"),
        ("parallelogram", [[0, 0], [1, 2], [2, 4]], DegenerateElement, "vertices"),
        ("tetrahedron", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], DegenerateElement, "vertices"),
        ("parallelepiped", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], DegenerateElement, "vertices"),
        ("triangle", [[0, 0], [1, 0]], InputError, "vertices"),
        ("triangle", [[0, 0, 0], [1, 0, 0], [0, 1, 0]], InputError, "vertices"),
        ("triangle", [[0, 0], [1, 0], [0, math.nan]], InputError, "vertices"),
        ("triangle", [0.0, 1.0, 2.0], InputError, "vertices"),
        ("hexagon", [[0, 0]], InputError, "kind"),
    ])
    def test_degenerate_vertices_raise_when_the_element_is_made(self, kind, vertices, error, field):
        # mesh_element is the class: both names make the same checks
        for make in (mesh_element, MeshElement):
            with pytest.raises(error) as info:
                make(kind, vertices)
            assert getattr(info.value, "field", None) == field

    @pytest.mark.parametrize("kind, vertices, full", [
        ("triangle", [[0, 0], [2, 0], [3, 2]], [[0, 0], [2, 0], [3, 2]]),
        ("parallelogram", [[0, 0], [2, 0], [1, 2]], [[0, 0], [2, 0], [1, 2], [3, 2]]),
        ("segment", [0.0, 2.0], [[0.0], [2.0]]),
    ])
    def test_both_constructors_make_the_same_element(self, kind, vertices, full):
        for make in (mesh_element, MeshElement):
            element = make(kind, vertices)
            assert element.kind is ElementKind(kind)
            assert element_to_dict(element) == {"kind": kind, "vertices": full}

    def test_one_map_per_element(self, benchmark_elements, monkeypatch, rng):
        # the geometry and the solvers read the element's map; none builds one
        built = []
        make = AffineMap.__init__
        monkeypatch.setattr(AffineMap, "__init__", lambda *args: built.append(args) or make(*args))
        for element in benchmark_elements.values():
            assert isinstance(element.affine_map, AffineMap)
            step = np.full(element.dim, 0.1)
            contains(element, step)
            sample_uniform(element, rng, 3)
            measure(element)
            conditional_escape(element, step)
            escape_probability_det(element, WienerStep(dt=1.0, dim=element.dim))
        assert built == []

    def test_caller_arrays_do_not_alias_the_element(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0]])
        element = mesh_element("triangle", verts)
        verts[1, 0] = 4.0
        assert element.vertices[1, 0] == 2.0
        assert np.array_equal(element.affine_map.matrix, [[2.0, 3.0], [0.0, 2.0]])
        assert verts.flags.writeable

    def test_map_arrays_are_read_only(self, benchmark_elements):
        for element in benchmark_elements.values():
            amap = element.affine_map
            for array in (amap.matrix, amap.offset, amap.inverse):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0
            with pytest.raises(AttributeError):
                element.affine_map = amap

    def test_degeneracy_threshold_is_scale_free(self):
        # same shape, vastly different units: both must be rejected, and a
        # well-shaped cell accepted
        for scale in (1e-6, 1e6, 2.0**-500, 2.0**500):
            verts = np.array([[0, 0], [1, 1], [2, 2 + 1e-16]]) * scale
            with pytest.raises(DegenerateElement):
                mesh_element("triangle", verts)
            mesh_element("triangle", np.array([[0, 0], [1, 0], [0.25, 1]]) * scale)

    @pytest.mark.parametrize("kind, vertices", [
        # the spanning edges overflow
        ("segment", [1e308, -1e308]),
        ("triangle", [[1e308, 0], [-1e308, 0], [0, 1]]),
        # the implied fourth vertex overflows
        ("parallelogram", [[0, 0], [1e308, 0], [1e308, 1]]),
        # well-shaped cells whose |det A| overflows or underflows to 0
        ("triangle", [[0, 0], [1e200, 0], [0, 1e200]]),
        ("triangle", [[0, 0], [1e-200, 0], [0, 1e-200]]),
        ("tetrahedron", [[0, 0, 0], [1e-110, 0, 0], [0, 1e-110, 0], [0, 0, 1e-110]]),
    ])
    def test_cells_beyond_the_float_range_are_refused_naming_vertices(self, kind, vertices):
        # not as linearly dependent, and with no RuntimeWarning
        with pytest.raises(InputError) as info:
            mesh_element(kind, vertices)
        assert type(info.value) is InputError
        assert info.value.field == "vertices"
        assert "beyond the float64 range" in str(info.value)

    @pytest.mark.parametrize("kind, vertices", [
        ("segment", [0.0, 2.0]),
        ("segment", [0.0, 5e-324]),
        ("segment", [0.0, 1e300]),
        ("triangle", [[0, 0], [2, 0], [3, 2]]),
        ("triangle", [[0, 0], [1e-160, 0], [0, 1e-160]]),
        ("parallelepiped", [[0, 0, 0], [2, 0, 0], [1, 2, 1], [0, 0, 2]]),
        ("tetrahedron", [[0, 0, 0], [1e-103, 0, 0], [0, 1e-103, 0], [0, 0, 1e-103]]),
    ])
    def test_map_is_built_from_the_edges_as_given(self, kind, vertices):
        # the range checks scale a copy of the edges: the map keeps numpy's
        # inverse of the edges themselves, bit for bit, and on these cells
        # |det A| is the exact determinant of the edges, rounded once
        element = mesh_element(kind, vertices)
        edges = (element.vertices[1:element.dim + 1] - element.vertices[0]).T
        amap = element.affine_map
        assert np.array_equal(amap.matrix, edges)
        assert np.array_equal(amap.inverse, np.linalg.inv(edges))
        assert amap.abs_det == float(abs(exact_det(edges.tolist())))

    @pytest.mark.parametrize("kind, vertices, abs_det", [
        ("parallelepiped", [[0, 0, 0], [2, 0, 0], [1, 2, 1], [0, 0, 2]], 8.0),
        ("segment", [0.0, 2e76], 2e76),
        ("triangle", [[0, 0], [2.0**500, 0], [2.0**498, 2.0**500]], 2.0**1000),
    ])
    def test_abs_det_keeps_its_digits_far_from_one(self, kind, vertices, abs_det):
        # numpy's det, through logarithms, gave 7.999999999999998,
        # 1.9999999999999728e76 and 1.0715086071863159e301
        element = mesh_element(kind, vertices)
        assert element.affine_map.abs_det == abs_det
        assert measure(element) == abs_det * element.kind.measure

    def test_segment_map_is_edge_length(self):
        amap = mesh_element("segment", [[0.5], [2.5]]).affine_map
        assert amap.matrix[0, 0] == 2.0
        assert amap.offset[0] == 0.5

    def test_matrix_inverse_and_det_cached_consistently(self, rng):
        from conftest import random_element

        for kind in ElementKind:
            element = random_element(kind, rng)
            amap = element.affine_map
            n = element.dim
            assert np.allclose(amap.matrix @ amap.inverse, np.eye(n), atol=1e-12)
            assert amap.abs_det == pytest.approx(abs(np.linalg.det(amap.matrix)), rel=1e-12)

    def test_reference_vertices_map_to_element_vertices(self, benchmark_elements):
        reference_corners = {
            "segment": [[0.0], [1.0]],
            "triangle": [[0, 0], [1, 0], [0, 1]],
            "parallelogram": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "tetrahedron": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "parallelepiped": [
                [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                [1, 1, 0], [1, 0, 1], [1, 1, 1], [0, 1, 1],
            ],
        }
        for name, element in benchmark_elements.items():
            amap = element.affine_map
            mapped = amap.to_global(np.asarray(reference_corners[name], dtype=float))
            scale = np.max(np.abs(element.vertices))
            assert np.allclose(mapped, element.vertices, atol=1e-12 * scale)

    def test_points_of_the_wrong_width(self, benchmark_elements):
        amap = benchmark_elements["triangle"].affine_map
        with pytest.raises(DimensionMismatch):
            amap.to_global(np.zeros((4, 3)))

    def test_round_trip(self, rng):
        from conftest import random_element

        for kind in ElementKind:
            element = random_element(kind, rng, scale=3.0)
            amap = element.affine_map
            points = rng.normal(size=(100, element.dim)) * 5.0
            back = amap.to_global(amap.to_local(points))
            assert np.allclose(back, points, rtol=1e-10, atol=1e-10)


class TestLocalStep:
    def test_identity_map(self):
        amap = mesh_element("triangle", [[0, 0], [1, 0], [0, 1]]).affine_map
        assert np.allclose(amap.local_step([0.3, -0.2]), [0.3, -0.2])

    def test_benchmark_triangle_edges(self, benchmark_elements):
        # (2,0) is exactly edge AB and (3,2) exactly edge AC
        amap = benchmark_elements["triangle"].affine_map
        assert np.allclose(amap.local_step([2.0, 0.0]), [1.0, 0.0])
        assert np.allclose(amap.local_step([3.0, 2.0]), [0.0, 1.0])

    def test_batch_steps(self, benchmark_elements):
        amap = benchmark_elements["triangle"].affine_map
        local = amap.local_step([[2.0, 0.0], [3.0, 2.0]])
        assert np.allclose(local, [[1, 0], [0, 1]])

    def test_steps_ignore_the_offset(self):
        amap = mesh_element("segment", [[0.5], [2.5]]).affine_map
        assert np.array_equal(amap.local_step([[1.0]]), [[0.5]])
        assert np.array_equal(amap.to_local([[1.0]]), [[0.25]])


class TestContains:
    def test_unit_square_center(self):
        square = mesh_element("parallelogram", [[0, 0], [1, 0], [0, 1]])
        assert contains(square, [0.5, 0.5])

    def test_unit_triangle_outside(self):
        triangle = mesh_element("triangle", [[0, 0], [1, 0], [0, 1]])
        assert not contains(triangle, [0.6, 0.6])

    def test_tetrahedron_centroid(self, benchmark_elements):
        tet = benchmark_elements["tetrahedron"]
        centroid = tet.vertices.mean(axis=0)
        assert np.allclose(centroid, [6 / 4, 3 / 4, 1 / 4])
        assert contains(tet, centroid)

    def test_boundary_points_count_as_inside(self, benchmark_elements):
        for element in benchmark_elements.values():
            for vertex in element.vertices:
                assert contains(element, vertex)
            assert contains(element, element.vertices[:2].mean(axis=0))

    def test_batch(self, benchmark_elements):
        tri = benchmark_elements["triangle"]
        points = np.array([[1.5, 0.5], [10.0, 10.0]])
        assert np.array_equal(contains(tri, points), [True, False])

    def test_dimension_mismatch(self, benchmark_elements):
        with pytest.raises(DimensionMismatch):
            contains(benchmark_elements["segment"], [0.5, 0.5])

    def test_tolerance_band_at_every_facet(self, benchmark_elements):
        # Points CONTAINMENT_TOL/2 beyond a facet count as inside, points
        # 10 CONTAINMENT_TOL beyond it as outside, one at a time and as a batch.
        for element in benchmark_elements.values():
            cell = element.kind
            n = cell.dim
            facets = []  # (reference point on the facet, outward offset per unit)
            for j in range(n):
                centre = np.full(n, 1.0 / n if cell.is_simplex else 0.5)
                centre[j] = 0.0
                facets.append((centre, -np.eye(n)[j]))
                if not cell.is_simplex or n == 1:
                    centre = np.full(n, 0.5)
                    centre[j] = 1.0
                    facets.append((centre, np.eye(n)[j]))
            if cell.is_simplex and n > 1:
                facets.append((np.full(n, 1.0 / n), np.full(n, 1.0 / n)))
            amap = element.affine_map
            points, expected = list(element.vertices), [True] * len(element.vertices)
            for centre, outward in facets:
                for distance, inside in ((CONTAINMENT_TOL / 2, True), (10 * CONTAINMENT_TOL, False)):
                    points.append(amap.matrix @ (centre + distance * outward) + amap.offset)
                    expected.append(inside)
            for point, inside in zip(points, expected):
                assert contains(element, point) is inside, (element.kind, point)
            assert np.array_equal(contains(element, np.array(points)), expected)


class TestSampleUniform:
    def test_samples_are_inside(self, benchmark_elements, rng):
        for element in benchmark_elements.values():
            points = sample_uniform(element, rng, size=2000)
            assert contains(element, points).all()

    def test_unit_interval_range(self, rng):
        seg = mesh_element("segment", [[0.0], [1.0]])
        points = sample_uniform(seg, rng, size=1000)
        assert points.shape == (1000, 1)
        assert ((points >= 0.0) & (points <= 1.0)).all()

    def test_single_sample_shape(self, benchmark_elements, rng):
        point = sample_uniform(benchmark_elements["triangle"], rng)
        assert point.shape == (2,)

    def test_triangle_mean_matches_centroid(self, benchmark_elements):
        # centroid of the benchmark triangle is the vertex average (5/3, 2/3)
        rng = np.random.default_rng(42)
        tri = benchmark_elements["triangle"]
        points = sample_uniform(tri, rng, size=10**6)
        centroid = tri.vertices.mean(axis=0)
        assert np.allclose(centroid, [5 / 3, 2 / 3])
        sigma_mean = points.std(axis=0, ddof=1) / math.sqrt(len(points))
        assert (np.abs(points.mean(axis=0) - centroid) < 4.0 * sigma_mean).all()

    @pytest.mark.parametrize("size", [2.7, True, "3", -1, 3.0],
                             ids=["float", "bool", "str", "negative", "whole-float"])
    def test_size_must_be_a_non_negative_integer(self, benchmark_elements, rng, size):
        with pytest.raises(InputError) as info:
            sample_uniform(benchmark_elements["triangle"], rng, size=size)
        assert info.value.field == "size"

    def test_integer_sizes_keep_working(self, benchmark_elements, rng):
        tri = benchmark_elements["triangle"]
        assert sample_uniform(tri, rng, size=0).shape == (0, 2)
        assert sample_uniform(tri, rng, size=np.int64(3)).shape == (3, 2)

    def test_same_seed_reproduces(self, benchmark_elements):
        tet = benchmark_elements["tetrahedron"]
        a = sample_uniform(tet, np.random.default_rng(7), size=100)
        b = sample_uniform(tet, np.random.default_rng(7), size=100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", [
        "segment", "triangle", "parallelogram", "tetrahedron", "parallelepiped",
    ])
    def test_uniformity_chi_square(self, benchmark_elements, name):
        # partition the reference cell into 4 bins per axis and compare the
        # local-coordinate histogram with exact bin probabilities
        chi2 = pytest.importorskip("scipy.stats").chi2
        element = benchmark_elements[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        n = element.dim
        amap = element.affine_map
        local = amap.to_local(sample_uniform(element, rng, size=10**6))

        edges = np.linspace(0.0, 1.0, 5)
        hist, _ = np.histogramdd(local, bins=[edges] * n)
        simplex = element.kind in (ElementKind.TRIANGLE, ElementKind.TETRAHEDRON)
        probs = np.zeros_like(hist)
        for idx in np.ndindex(hist.shape):
            lo = edges[list(idx)]
            hi = edges[[i + 1 for i in idx]]
            if simplex:
                probs[idx] = simplex_box_volume(lo, hi) / element.kind.measure
            else:
                probs[idx] = np.prod(hi - lo)
        keep = probs > 1e-15
        assert hist[~keep].sum() == 0
        expected = probs[keep] * 10**6
        statistic = ((hist[keep] - expected) ** 2 / expected).sum()
        threshold = chi2.ppf(0.999, df=keep.sum() - 1)
        assert statistic < threshold, f"{name}: chi2 {statistic:.1f} >= {threshold:.1f}"


class TestOutArguments:
    """Each ``out=`` path equals the allocating path bit for bit."""

    KINDS = ["segment", "triangle", "parallelogram", "tetrahedron", "parallelepiped"]

    @pytest.mark.parametrize("name", KINDS)
    def test_sample_reference(self, benchmark_elements, name):
        cell = benchmark_elements[name].kind
        m = 5003
        expected = _sample_reference(cell, np.random.default_rng(41), m)
        columns = np.full((cell.dim, m), np.nan)
        draws = np.full((m, cell.dim), np.nan)
        got = _sample_reference(cell, np.random.default_rng(41), m, out=columns.T, draws=draws)
        assert np.shares_memory(got, columns)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", KINDS)
    def test_to_global(self, benchmark_elements, name, rng):
        amap = benchmark_elements[name].affine_map
        points = rng.random((4001, amap.dim))
        columns = np.full((amap.dim, 4001), np.nan)
        got = amap.to_global(points, out=columns.T)
        assert np.shares_memory(got, columns)
        assert np.array_equal(got, amap.to_global(points))

    @pytest.mark.parametrize("name", KINDS)
    def test_reference_contains(self, benchmark_elements, name, rng):
        cell = benchmark_elements[name].kind
        points = rng.uniform(-0.2, 1.2, (4001, cell.dim))
        mask = np.ones(4001, dtype=bool)
        got = _reference_contains(cell, points, out=mask)
        assert got is mask
        assert np.array_equal(got, _reference_contains(cell, points))


class TestMeasure:
    def test_benchmark_triangle_shoelace(self, benchmark_elements):
        tri = benchmark_elements["triangle"]
        (ax, ay), (bx, by), (cx, cy) = tri.vertices
        shoelace = 0.5 * abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))
        assert measure(tri) == pytest.approx(shoelace)
        assert measure(tri) == pytest.approx(2.0)

    def test_unit_cube(self):
        cube = mesh_element(
            "parallelepiped", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        assert measure(cube) == pytest.approx(1.0)

    def test_benchmark_segment_length(self, benchmark_elements):
        assert measure(benchmark_elements["segment"]) == 2.0

    @pytest.mark.parametrize("name", [
        "segment", "triangle", "parallelogram", "tetrahedron", "parallelepiped",
    ])
    def test_measure_matches_rejection_sampling(self, benchmark_elements, name):
        element = benchmark_elements[name]
        rng = np.random.default_rng(zlib.crc32(("measure-" + name).encode()))
        lo, hi = bounding_box(element.vertices)
        pad = 0.1 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        n_samples = 10**6
        points = rng.uniform(lo, hi, size=(n_samples, element.dim))
        hits = int(contains(element, points).sum())
        box_volume = float(np.prod(hi - lo))
        p = hits / n_samples
        estimate = p * box_volume
        sigma = box_volume * math.sqrt(p * (1 - p) / n_samples)
        assert abs(estimate - measure(element)) < 4.0 * sigma


class TestSerialization:
    def test_dict_round_trip(self, benchmark_elements):
        for element in benchmark_elements.values():
            rebuilt = element_from_dict(element_to_dict(element))
            assert rebuilt.kind == element.kind
            assert np.array_equal(rebuilt.vertices, element.vertices)

    @pytest.mark.parametrize("data, field", [
        ({"vertices": [[0], [1]]}, "kind"),
        ({"kind": "segment"}, "vertices"),
        ([], "geometry"),
        ({"kind": "triangle", "vertices": [[0, "a"], [1, 0], [0, 1]]}, "vertices"),
    ])
    def test_malformed_fields_named(self, data, field):
        with pytest.raises(InputError) as info:
            element_from_dict(data)
        assert info.value.field == field

    def test_load_element(self, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"kind": "triangle", "vertices": [[0, 0], [2, 0], [3, 2]]}))
        element = load_element(path)
        assert element.kind == ElementKind.TRIANGLE

    def test_load_element_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_element(path)

    def test_load_element_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "s\xe9gment", "vertices": [[0], [1]]}')
        with pytest.raises(InputError) as info:
            load_element(path)
        assert info.value.field == "geometry"

    def test_load_element_missing_file(self, tmp_path):
        with pytest.raises(InputError) as info:
            load_element(tmp_path / "missing.json")
        assert info.value.field == "geometry"
