import numpy as np
import pytest

from cellescape import (
    DimensionMismatch,
    ElementKind,
    EmptyInterval,
    InputError,
    WienerStep,
    conditional_escape,
    conditional_transition_1d,
    mesh_element,
    stay_fraction,
    transition_probability_det_1d,
)

from oracles import (
    overlap_box,
    overlap_interval,
    overlap_tetrahedron,
    overlap_triangle,
)

ALL_CELLS = [
    ElementKind.SEGMENT,
    ElementKind.TRIANGLE,
    ElementKind.PARALLELOGRAM,
    ElementKind.TETRAHEDRON,
    ElementKind.PARALLELEPIPED,
]


class TestStayFractionValues:
    def test_unit_square_half_step(self):
        assert stay_fraction(ElementKind.PARALLELOGRAM, [0.5, 0.5]) == pytest.approx(0.25)

    def test_zero_step_full_overlap(self):
        assert stay_fraction(ElementKind.TRIANGLE, [0.0, 0.0]) == 1.0

    def test_triangle_opposite_sign_case(self):
        # case with eta * (xi + eta) < 0: overlap (1 - |xi|)^2
        assert stay_fraction(ElementKind.TRIANGLE, [0.5, -0.25]) == pytest.approx(0.25)

    def test_tetrahedron_axis_step(self):
        # same-sign case with |xi + eta + zeta| = 0.5: (1 - 0.5)^3
        assert stay_fraction(ElementKind.TETRAHEDRON, [0.5, 0.0, 0.0]) == pytest.approx(0.125)

    def test_interval(self):
        assert stay_fraction(ElementKind.SEGMENT, [0.25]) == pytest.approx(0.75)
        assert stay_fraction(ElementKind.SEGMENT, [-2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            stay_fraction(ElementKind.TRIANGLE, [0.5])
        with pytest.raises(DimensionMismatch):
            stay_fraction(ElementKind.SEGMENT, [np.nan])


class TestStayFractionCell:
    """``stay_fraction`` reads its cell as ``MeshElement`` reads ``kind``."""

    def test_kind_name_is_accepted(self):
        assert stay_fraction("triangle", [0.5, -0.25]) == stay_fraction(ElementKind.TRIANGLE, [0.5, -0.25])
        assert stay_fraction("triangle", [0.5, -0.25]) == pytest.approx(0.25)

    @pytest.mark.parametrize("cell", ["square", "interval", "TRIANGLE", None, 2, [0.5]])
    def test_anything_else_is_an_input_error_naming_cell(self, cell):
        with pytest.raises(InputError) as info:
            stay_fraction(cell, [0.5, 0.5])
        assert info.value.field == "cell"


class TestTriangleCaseTable:
    """The 4-case closed form, checked case by case on its strict regions."""

    @staticmethod
    def _sample_region(rng, predicate, n=2000):
        steps = rng.uniform(-1.0, 1.0, size=(50000, 2))
        mask = predicate(steps[:, 0], steps[:, 1])
        assert mask.sum() >= n
        return steps[mask][:n]

    def test_same_sign_case(self, rng):
        steps = self._sample_region(
            rng, lambda x, y: (x * y > 0) & (np.abs(x + y) <= 1)
        )
        expected = (1 - np.abs(steps[:, 0]) - np.abs(steps[:, 1])) ** 2
        assert np.allclose(stay_fraction(ElementKind.TRIANGLE, steps), expected)

    def test_eta_opposed_case(self, rng):
        steps = self._sample_region(
            rng, lambda x, y: (y * (x + y) < 0) & (np.abs(x) <= 1)
        )
        expected = (1 - np.abs(steps[:, 0])) ** 2
        assert np.allclose(stay_fraction(ElementKind.TRIANGLE, steps), expected)

    def test_xi_opposed_case(self, rng):
        steps = self._sample_region(
            rng, lambda x, y: (x * (x + y) < 0) & (np.abs(y) <= 1)
        )
        expected = (1 - np.abs(steps[:, 1])) ** 2
        assert np.allclose(stay_fraction(ElementKind.TRIANGLE, steps), expected)

    def test_otherwise_zero(self, rng):
        steps = self._sample_region(
            rng,
            lambda x, y: ~((x * y >= 0) & (np.abs(x + y) <= 1))
            & ~((y * (x + y) <= 0) & (np.abs(x) <= 1))
            & ~((x * (x + y) <= 0) & (np.abs(y) <= 1)),
            n=500,
        )
        assert np.all(stay_fraction(ElementKind.TRIANGLE, steps) == 0.0)


class TestTetrahedronCaseTable:
    """The 8-case closed form, checked case by case on its strict regions."""

    @staticmethod
    def _sample(rng, predicate, n=1000):
        steps = rng.uniform(-1.0, 1.0, size=(200000, 3))
        x, y, z = steps.T
        mask = predicate(x, y, z, x + y + z)
        assert mask.sum() >= n, "region under-sampled"
        return steps[mask][:n]

    def _check(self, steps, expected):
        assert np.allclose(stay_fraction(ElementKind.TETRAHEDRON, steps), expected)

    def test_same_sign_case(self, rng):
        s = self._sample(rng, lambda x, y, z, t: (x * y > 0) & (x * z > 0) & (y * z > 0) & (np.abs(t) <= 1))
        self._check(s, (1 - np.abs(s).sum(axis=1)) ** 3)

    def test_xi_opposed(self, rng):
        s = self._sample(
            rng,
            lambda x, y, z, t: (x * y < 0) & (x * z < 0) & (x * t < 0) & (np.abs(y + z) <= 1),
        )
        self._check(s, (1 - np.abs(s[:, 1]) - np.abs(s[:, 2])) ** 3)

    def test_eta_opposed(self, rng):
        s = self._sample(
            rng,
            lambda x, y, z, t: (x * y < 0) & (y * z < 0) & (y * t < 0) & (np.abs(x + z) <= 1),
        )
        self._check(s, (1 - np.abs(s[:, 0]) - np.abs(s[:, 2])) ** 3)

    def test_zeta_opposed(self, rng):
        s = self._sample(
            rng,
            lambda x, y, z, t: (x * z < 0) & (y * z < 0) & (z * t < 0) & (np.abs(x + y) <= 1),
        )
        self._check(s, (1 - np.abs(s[:, 0]) - np.abs(s[:, 1])) ** 3)

    def test_eta_zeta_against_sum(self, rng):
        s = self._sample(
            rng, lambda x, y, z, t: (y * t < 0) & (z * t < 0) & (np.abs(x) <= 1)
        )
        self._check(s, (1 - np.abs(s[:, 0])) ** 3)

    def test_xi_zeta_against_sum(self, rng):
        s = self._sample(
            rng, lambda x, y, z, t: (x * t < 0) & (z * t < 0) & (np.abs(y) <= 1)
        )
        self._check(s, (1 - np.abs(s[:, 1])) ** 3)

    def test_xi_eta_against_sum(self, rng):
        s = self._sample(
            rng, lambda x, y, z, t: (x * t < 0) & (y * t < 0) & (np.abs(z) <= 1)
        )
        self._check(s, (1 - np.abs(s[:, 2])) ** 3)

    def test_outside_support_zero(self, rng):
        steps = rng.uniform(1.0, 2.0, size=(2000, 3)) * rng.choice([-1, 1], size=(2000, 3))
        assert np.all(stay_fraction(ElementKind.TETRAHEDRON, steps) == 0.0)


class TestGridCountOracle:
    # quick versions; the full-resolution runs live in the acceptance suite
    def test_interval(self, rng):
        steps = rng.uniform(-1.4, 1.4, size=(2000, 1))
        got = stay_fraction(ElementKind.SEGMENT, steps)
        assert np.abs(got - overlap_interval(steps, res=10**5)).max() < 2e-5

    def test_square(self, rng):
        steps = rng.uniform(-1.2, 1.2, size=(2000, 2))
        got = stay_fraction(ElementKind.PARALLELOGRAM, steps)
        assert np.abs(got - overlap_box(steps, res=1000)).max() < 4e-3

    def test_triangle(self, rng):
        steps = rng.uniform(-1.2, 1.2, size=(2000, 2))
        got = stay_fraction(ElementKind.TRIANGLE, steps)
        assert np.abs(got - overlap_triangle(steps, res=1000)).max() < 4e-3

    def test_cube(self, rng):
        steps = rng.uniform(-1.2, 1.2, size=(2000, 3))
        got = stay_fraction(ElementKind.PARALLELEPIPED, steps)
        assert np.abs(got - overlap_box(steps, res=200)).max() < 3e-2

    def test_tetrahedron(self, rng):
        steps = rng.uniform(-1.2, 1.2, size=(500, 3))
        got = stay_fraction(ElementKind.TETRAHEDRON, steps)
        assert np.abs(got - overlap_tetrahedron(steps, res=200)).max() < 3e-2


class TestStayProperties:
    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_range(self, cell, rng):
        steps = rng.uniform(-3.0, 3.0, size=(20000, cell.dim))
        values = stay_fraction(cell, steps)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_symmetry_exact(self, cell, rng):
        steps = rng.uniform(-1.5, 1.5, size=(20000, cell.dim))
        assert np.array_equal(stay_fraction(cell, steps), stay_fraction(cell, -steps))

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_ray_monotonicity(self, cell, rng):
        directions = rng.normal(size=(200, cell.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        magnitudes = np.linspace(0.0, 1.6, 12)
        for v in directions:
            values = stay_fraction(cell, np.outer(magnitudes, v))
            assert np.all(np.diff(values) <= 1e-12)

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_zero_outside_support(self, cell, rng):
        # probes with at least one component beyond [-1, 1] must not stay
        n = cell.dim
        steps = rng.uniform(-1.0, 1.0, size=(10**5, n))
        bump = rng.integers(0, n, size=len(steps))
        signs = rng.choice([-1.0, 1.0], size=len(steps))
        steps[np.arange(len(steps)), bump] = signs * rng.uniform(1.0, 4.0, size=len(steps))
        assert np.all(stay_fraction(cell, steps) == 0.0)
        # finite steps whose coordinate sum overflows, on either side, warn of nothing
        for far in (1e308, -1e308):
            assert stay_fraction(cell, np.full(n, far)) == 0.0


class TestConditionalEscape:
    def test_benchmark_segment(self, benchmark_elements):
        assert conditional_escape(benchmark_elements["segment"], [0.5]) == pytest.approx(0.25)

    def test_zero_step(self, benchmark_elements):
        for element in benchmark_elements.values():
            assert conditional_escape(element, np.zeros(element.dim)) == 0.0

    def test_full_edge_translation(self, benchmark_elements):
        # (2,0) translates the triangle by a whole edge: no overlap remains
        assert conditional_escape(benchmark_elements["triangle"], [2.0, 0.0]) == 1.0

    def test_scalar_step_is_a_dimension_mismatch(self):
        # a bare number has no component axis, even for a 1D element
        with pytest.raises(DimensionMismatch):
            conditional_escape(mesh_element("segment", [[0.0], [1.0]]), 0.5)

    def test_wrong_width_step_is_a_dimension_mismatch(self, benchmark_elements):
        for step in ([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]], [1.0]):
            with pytest.raises(DimensionMismatch):
                conditional_escape(benchmark_elements["triangle"], step)

    @pytest.mark.parametrize("step", [[np.nan, 0.0], [0.0, np.inf], [1e308, 1e308]])
    def test_non_finite_local_step_is_a_dimension_mismatch(self, step):
        # 1e308 is finite but overflows in the unit cell's coordinates
        tiny = mesh_element("triangle", [[0, 0], [1e-3, 0], [0, 1e-3]])
        with pytest.raises(DimensionMismatch, match="non-finite"):
            conditional_escape(tiny, step)

    @pytest.mark.parametrize("step", [[1e308, 1e308], [-1e308, -1e308]])
    def test_step_whose_coordinate_sum_overflows_escapes(self, step):
        # the overflow of the simplex sum warned, where the answer 1 is right
        unit = mesh_element("triangle", [[0, 0], [1, 0], [0, 1]])
        assert conditional_escape(unit, step) == 1.0

    def test_batch_of_steps(self, benchmark_elements):
        steps = [[0.5, 0.0], [2.0, 0.0], [0.0, 0.0]]
        escapes = conditional_escape(benchmark_elements["triangle"], steps)
        assert escapes.shape == (3,)
        assert list(escapes) == [conditional_escape(benchmark_elements["triangle"], s) for s in steps]

    def test_matches_stay_via_local_coordinates(self, benchmark_elements, rng):
        tet = benchmark_elements["tetrahedron"]
        amap = tet.affine_map
        steps = rng.normal(size=(500, 3))
        escapes = np.array([conditional_escape(tet, s) for s in steps])
        stays = stay_fraction(ElementKind.TETRAHEDRON, amap.local_step(steps))
        assert np.allclose(escapes, 1.0 - stays)


class TestConditionalTransition1D:
    def test_adjacent_half_step(self):
        assert conditional_transition_1d((0, 1), (1, 2), 0.5) == pytest.approx(0.5)

    def test_shared_boundary_zero(self):
        assert conditional_transition_1d((0, 1), (1, 2), 0.0) == 0.0

    def test_outside_window(self):
        assert conditional_transition_1d((0, 1), (1, 2), 2.5) == 0.0

    def test_window_endpoints_clamped(self):
        assert conditional_transition_1d((0, 1), (1, 2), 2.0) == 0.0
        assert conditional_transition_1d((0, 2), (5, 6), 3.0) == 0.0

    def test_vectorized(self):
        steps = np.array([-1.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        got = conditional_transition_1d((0, 1), (1, 2), steps)
        assert np.allclose(got, [0.0, 0.5, 1.0, 0.5, 0.0, 0.0])

    def test_empty_intervals(self):
        with pytest.raises(EmptyInterval):
            conditional_transition_1d((1, 1), (2, 3), 0.5)
        with pytest.raises(EmptyInterval):
            conditional_transition_1d((0, 1), (3, 2), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_end_named(self, bad, position):
        # both the conditional factor and the deterministic solver reject
        # the interval at entry, naming it, instead of failing in the solve
        ends = [0.0, 1.0, 1.0, 2.0]
        ends[position] = bad
        source, target = ends[:2], ends[2:]
        field = "source" if position < 2 else "target"
        with pytest.raises(InputError) as info:
            conditional_transition_1d(source, target, 0.5)
        assert info.value.field == field
        with pytest.raises(InputError) as info:
            transition_probability_det_1d(source, target, WienerStep(dt=1.0, dim=1))
        assert info.value.field == field

    @pytest.mark.parametrize("pair", [(0.0,), (0.0, 1.0, 2.0), None, "ab"], ids=["one", "three", "none", "str"])
    @pytest.mark.parametrize("field", ["source", "target"])
    def test_interval_that_is_not_a_pair_named(self, field, pair):
        intervals = {"source": (0.0, 1.0), "target": (1.0, 2.0), field: pair}
        with pytest.raises(InputError) as info:
            conditional_transition_1d(intervals["source"], intervals["target"], 0.5)
        assert info.value.field == field
        with pytest.raises(InputError) as info:
            transition_probability_det_1d(intervals["source"], intervals["target"], WienerStep(dt=1.0, dim=1))
        assert info.value.field == field

    def test_interval_overlap_oracle(self, rng):
        a, b, c, d = 0.3, 1.7, 1.2, 2.9
        for dx in rng.uniform(-3, 4, size=200):
            lo, hi = max(a, c - dx), min(b, d - dx)
            expected = max(0.0, hi - lo) / (b - a)
            assert conditional_transition_1d((a, b), (c, d), dx) == pytest.approx(expected)
