import json
import math
import zlib

import numpy as np
import pytest
from scipy.stats import chi2

from cellescape import (
    DegenerateElement,
    DimensionMismatch,
    ElementKind,
    InputError,
    MeshElement,
    ReferenceCell,
    build_affine_map,
    contains,
    element_from_dict,
    element_to_dict,
    load_element,
    measure,
    mesh_element,
    sample_uniform,
)
from cellescape.geometry import CONTAINMENT_TOL, _reference_contains, _sample_reference

from oracles import bounding_box, simplex_box_volume


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


class TestAffineMap:
    def test_benchmark_triangle(self, benchmark_elements):
        amap = build_affine_map(benchmark_elements["triangle"])
        assert np.array_equal(amap.matrix, [[2.0, 3.0], [0.0, 2.0]])
        assert np.array_equal(amap.offset, [0.0, 0.0])
        assert amap.abs_det == 4.0

    def test_unit_triangle_is_identity(self):
        amap = build_affine_map(mesh_element("triangle", [[0, 0], [1, 0], [0, 1]]))
        assert np.array_equal(amap.matrix, np.eye(2))
        assert np.array_equal(amap.offset, [0.0, 0.0])

    def test_collinear_triangle_is_degenerate(self):
        with pytest.raises(DegenerateElement):
            build_affine_map(mesh_element("triangle", [[0, 0], [1, 1], [2, 2]]))

    @pytest.mark.parametrize("kind, vertices", [
        ("segment", [[1.0], [1.0]]),
        ("triangle", [[0, 0], [1, 1], [2, 2]]),
        ("parallelogram", [[0, 0], [1, 2], [2, 4]]),
        ("tetrahedron", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
        ("parallelepiped", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
    ])
    def test_degenerate_vertices_raise_when_the_element_is_made(self, kind, vertices):
        with pytest.raises(DegenerateElement):
            mesh_element(kind, vertices)
        with pytest.raises(DegenerateElement):
            MeshElement(kind=ElementKind(kind), vertices=np.asarray(vertices, dtype=float))

    def test_one_map_per_element(self, benchmark_elements):
        for element in benchmark_elements.values():
            amap = build_affine_map(element)
            assert build_affine_map(element) is amap
            assert element.affine_map is amap

    def test_caller_arrays_do_not_alias_the_element(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0]])
        element = mesh_element("triangle", verts)
        verts[1, 0] = 4.0
        assert element.vertices[1, 0] == 2.0
        assert np.array_equal(build_affine_map(element).matrix, [[2.0, 3.0], [0.0, 2.0]])
        assert verts.flags.writeable

    def test_map_arrays_are_read_only(self, benchmark_elements):
        for element in benchmark_elements.values():
            amap = build_affine_map(element)
            for array in (amap.matrix, amap.offset, amap.inverse):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0
            with pytest.raises(AttributeError):
                element.affine_map = amap

    def test_degeneracy_threshold_is_scale_free(self):
        # same shape, vastly different units: both must be rejected
        for scale in (1e-6, 1e6):
            verts = np.array([[0, 0], [1, 1], [2, 2 + 1e-16]]) * scale
            with pytest.raises(DegenerateElement):
                build_affine_map(mesh_element("triangle", verts))

    def test_segment_map_is_edge_length(self):
        amap = build_affine_map(mesh_element("segment", [[0.5], [2.5]]))
        assert amap.matrix[0, 0] == 2.0
        assert amap.offset[0] == 0.5

    def test_matrix_inverse_and_det_cached_consistently(self, rng):
        from conftest import random_element

        for kind in ElementKind:
            element = random_element(kind, rng)
            amap = build_affine_map(element)
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
            amap = build_affine_map(element)
            mapped = amap.to_global(np.asarray(reference_corners[name], dtype=float))
            scale = np.max(np.abs(element.vertices))
            assert np.allclose(mapped, element.vertices, atol=1e-12 * scale)

    def test_round_trip(self, rng):
        from conftest import random_element

        for kind in ElementKind:
            element = random_element(kind, rng, scale=3.0)
            amap = build_affine_map(element)
            points = rng.normal(size=(100, element.dim)) * 5.0
            back = amap.to_global(amap.to_local(points))
            assert np.allclose(back, points, rtol=1e-10, atol=1e-10)


class TestLocalStep:
    def test_identity_map(self):
        amap = build_affine_map(mesh_element("triangle", [[0, 0], [1, 0], [0, 1]]))
        assert np.allclose(amap.local_step([0.3, -0.2]), [0.3, -0.2])

    def test_benchmark_triangle_edges(self, benchmark_elements):
        # (2,0) is exactly edge AB and (3,2) exactly edge AC
        amap = build_affine_map(benchmark_elements["triangle"])
        assert np.allclose(amap.local_step([2.0, 0.0]), [1.0, 0.0])
        assert np.allclose(amap.local_step([3.0, 2.0]), [0.0, 1.0])

    def test_batch_steps(self, benchmark_elements):
        amap = build_affine_map(benchmark_elements["triangle"])
        local = amap.local_step([[2.0, 0.0], [3.0, 2.0]])
        assert np.allclose(local, [[1, 0], [0, 1]])

    def test_steps_ignore_the_offset(self):
        amap = build_affine_map(mesh_element("segment", [[0.5], [2.5]]))
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
            cell = element.reference_cell
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
            amap = build_affine_map(element)
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
        element = benchmark_elements[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        n = element.dim
        amap = build_affine_map(element)
        local = amap.to_local(sample_uniform(element, rng, size=10**6))

        edges = np.linspace(0.0, 1.0, 5)
        hist, _ = np.histogramdd(local, bins=[edges] * n)
        simplex = element.reference_cell in (ReferenceCell.TRIANGLE, ReferenceCell.TETRAHEDRON)
        probs = np.zeros_like(hist)
        for idx in np.ndindex(hist.shape):
            lo = edges[list(idx)]
            hi = edges[[i + 1 for i in idx]]
            if simplex:
                probs[idx] = simplex_box_volume(lo, hi) / element.reference_cell.measure
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
        cell = benchmark_elements[name].reference_cell
        m = 5003
        expected = _sample_reference(cell, np.random.default_rng(41), m)
        columns = np.full((cell.dim, m), np.nan)
        draws = np.full((m, cell.dim), np.nan)
        got = _sample_reference(cell, np.random.default_rng(41), m, out=columns.T, draws=draws)
        assert np.shares_memory(got, columns)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", KINDS)
    def test_to_global(self, benchmark_elements, name, rng):
        amap = build_affine_map(benchmark_elements[name])
        points = rng.random((4001, amap.dim))
        columns = np.full((amap.dim, 4001), np.nan)
        got = amap.to_global(points, out=columns.T)
        assert np.shares_memory(got, columns)
        assert np.array_equal(got, amap.to_global(points))

    @pytest.mark.parametrize("name", KINDS)
    def test_reference_contains(self, benchmark_elements, name, rng):
        cell = benchmark_elements[name].reference_cell
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

    def test_missing_fields_named(self):
        with pytest.raises(InputError, match="kind"):
            element_from_dict({"vertices": [[0], [1]]})
        with pytest.raises(InputError, match="vertices"):
            element_from_dict({"kind": "segment"})

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
