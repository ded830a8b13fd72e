import json
import math
from pathlib import Path

import numpy as np
import pytest

from cellescape import (
    DensityUnavailable,
    DimensionMismatch,
    ElementKind,
    InputError,
    McConfig,
    NonFiniteIntegrand,
    ProbabilityEstimate,
    QuadratureConfig,
    StepDistribution,
    ToleranceNotMet,
    VelocityJumpStep,
    WienerStep,
    escape_probability_det,
    escape_probability_mc,
    mesh_element,
    stay_fraction,
    transition_probability_det_1d,
)
from cellescape import bench, quadrature
from cellescape.geometry import _cofactor_det
from cellescape.quadrature import (
    _CONE_CACHE,
    _Cones,
    _UPWARD_FROM,
    _WG7,
    _WGK,
    _XGK,
    _integrate_boxes,
    _radial_moments,
)

from conftest import random_element
from oracles import (
    segment_escape_shifted_gaussian,
    segment_escape_wiener,
    simplex_escape_wiener,
    transition_1d_trapezoid,
    vjump_segment_escape,
)


def integrate(f, lo, hi, config=QuadratureConfig()):
    """``(value, error, n_evals)`` of ``f`` over the one box ``lo, hi``, with a zero tag."""
    lo = np.atleast_1d(np.asarray(lo, float))[None]
    hi = np.atleast_1d(np.asarray(hi, float))[None]
    return _integrate_boxes(lambda x, _: f(x), lo, hi, np.zeros(1, dtype=np.intp), config)


class ConeWiener(StepDistribution):
    """The Wiener density without the scale-mixture hook: it takes the cone cubature."""

    def __init__(self, dt, dim):
        self.wiener = WienerStep(dt=dt, dim=dim)
        self.dim = dim
        self.typical_scale = self.wiener.typical_scale

    def density(self, steps):
        return self.wiener.density(steps)


class DensityWiener(WienerStep):
    """A Wiener law whose class overrides ``density``, so it takes the cone cubature."""

    def density(self, steps):
        return super().density(steps)


class TestRuleConstants:
    def test_weights_sum_to_interval_length(self):
        assert _WGK.sum() == pytest.approx(2.0, abs=1e-15)
        assert _WG7.sum() == pytest.approx(2.0, abs=1e-15)

    def test_gauss_nodes_are_odd_kronrod_positions(self):
        assert np.all(np.diff(_XGK) > 0)
        assert np.allclose(_XGK, -_XGK[::-1])

    @pytest.mark.parametrize("degree", range(0, 23))
    def test_kronrod_polynomial_exactness(self, degree):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert (_WGK * _XGK**degree).sum() == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("degree", range(0, 14))
    def test_gauss_polynomial_exactness(self, degree):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        got = (_WG7 * _XGK[1::2] ** degree).sum()
        assert got == pytest.approx(exact, abs=1e-14)


class TestIntegrateAdaptive:
    def test_constant(self):
        value, err, _ = integrate(lambda x: np.ones(len(x)), [0.0], [1.0])
        assert value == pytest.approx(1.0, abs=1e-12)
        assert err <= 1e-6

    def test_stay_fraction_over_square_support(self):
        # per axis: integral of (1 - |u|) over [-1, 1] is 1, so the product is 1
        f = lambda x: stay_fraction(ElementKind.PARALLELOGRAM, x)
        value, err, _ = integrate(f, [-1.0, -1.0], [1.0, 1.0])
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_separable_cubic(self):
        f = lambda x: x[:, 0] * x[:, 1] * x[:, 2]
        value, _, _ = integrate(f, [0, 0, 0], [1, 1, 1])
        assert value == pytest.approx(1.0 / 8.0, abs=1e-9)

    def test_error_estimate_guarantee(self):
        f = lambda x: np.exp(-50.0 * (x[:, 0] - 0.3) ** 2)
        config = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
        value, err, _ = integrate(f, [0.0], [1.0], config)
        assert err <= max(config.abs_tol, config.rel_tol * abs(value))
        exact = math.sqrt(math.pi / 50.0) / 2 * (math.erf(math.sqrt(50) * 0.7) + math.erf(math.sqrt(50) * 0.3))
        assert value == pytest.approx(exact, abs=1e-9)

    def test_relative_tolerance_only(self):
        # large values exercise the relative branch of the budget
        f = lambda x: 1e6 * np.cos(x[:, 0])
        config = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10)
        value, err, _ = integrate(f, [0.0], [1.0], config)
        assert value == pytest.approx(1e6 * math.sin(1.0), rel=1e-10)
        assert err <= max(config.abs_tol, config.rel_tol * abs(value))

    def test_tolerance_not_met_carries_best_state(self):
        f = lambda x: np.sqrt(np.abs(x[:, 0]))  # infinite slope at 0
        config = QuadratureConfig(abs_tol=1e-14, rel_tol=0.0, max_subdivisions=8)
        with pytest.raises(ToleranceNotMet) as excinfo:
            integrate(f, [0.0], [1.0], config)
        assert excinfo.value.value == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert excinfo.value.error_estimate > 1e-14

    def test_non_finite_integrand(self):
        def f(x):
            out = np.ones(len(x))
            out[x[:, 0] > 0.9] = np.nan
            return out

        with pytest.raises(NonFiniteIntegrand):
            integrate(f, [0.0], [1.0])

    def test_relative_goal_re_pass(self):
        # the first estimate has a node at the peak and reads 105.7, not
        # 18.7; the pass budgeted from it accepts an error of 5.1e-9, above
        # the relative goal of the value it ends with, so the accepted
        # leaves are refined once more against that goal
        f = lambda x: 1.0 + 1e3 * np.exp(-1e4 * (x[:, 0] - 0.5) ** 2)
        config = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10)
        value, err, _ = integrate(f, [0.0], [1.0], config)
        assert err <= config.rel_tol * value
        # erf(50) is 1 in double precision
        assert value == pytest.approx(1.0 + 10.0 * math.sqrt(math.pi), rel=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)

    @pytest.mark.parametrize("field, value", [
        ("abs_tol", math.nan), ("abs_tol", math.inf), ("rel_tol", math.nan), ("rel_tol", math.inf),
        ("max_subdivisions", 2.5), ("max_subdivisions", 1e6), ("max_subdivisions", True),
    ])
    def test_config_rejects_non_finite_tolerances_and_non_integer_budgets(self, field, value):
        with pytest.raises(ValueError, match=field):
            QuadratureConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("abs_tol", "1e-6"), ("abs_tol", None), ("abs_tol", [1e-6]), ("abs_tol", True),
        ("abs_tol", np.True_), ("rel_tol", "1e-6"), ("rel_tol", None), ("rel_tol", [1e-6]),
        ("rel_tol", False),
    ])
    def test_config_rejects_tolerances_that_are_not_real_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            QuadratureConfig(**{field: value})

    def test_config_takes_numpy_tolerances(self):
        config = QuadratureConfig(abs_tol=np.float32(1e-6), rel_tol=np.float64(0.0))
        assert config.abs_tol == np.float32(1e-6) and config.rel_tol == 0.0


def kummer_moments(alpha, first, last):
    """``M_first .. M_last`` from ``M_k(alpha) = 1F1((k + 1)/2; (k + 3)/2; -alpha) / (k + 1)`` (DLMF 8.5.1)."""
    hyp1f1 = pytest.importorskip("scipy.special").hyp1f1
    a = 0.5 * np.arange(first + 1, last + 2).reshape((-1,) + (1,) * np.ndim(alpha))
    return hyp1f1(a, a + 1.0, -alpha) / (2.0 * a)


# the slices of orders the facet integrand takes in 1D, 2D and 3D
ORDER_SLICES = [(0, 1), (1, 3), (2, 5)]


class TestRadialMoments:
    @pytest.mark.parametrize("alpha", [
        np.concatenate([
            np.geomspace(1e-14, 1e12, 521),
            np.linspace(2.0, 40.0, 3_801),  # where the erfc term still counts
            _UPWARD_FROM * (1.0 + np.linspace(-1e-3, 1e-3, 21)),
        ]),
        # y = sqrt(alpha) = 4 switches Cody's fit of erfcx
        16.0 * (1.0 + np.linspace(-1e-3, 1e-3, 41)),
        np.array([np.nextafter(16.0, 0.0), 16.0, np.nextafter(16.0, 32.0)]),
        # thousands of nodes, with both sides of alpha = 2 interleaved
        np.random.default_rng(5).permutation(np.geomspace(1e-6, 1e6, 4103)),
        # thousands of nodes wholly on one side of alpha = 2
        np.linspace(0.0, np.nextafter(_UPWARD_FROM, 0.0), 6145),
        np.geomspace(_UPWARD_FROM, 1e12, 6145),
        # one node per integrand call, as on a segment
        np.array([0.5]),
        np.array([50.0]),
    ], ids=["range", "across-16", "next-to-16", "mixed-blocks", "below-2", "from-2", "one-below", "one-above"])
    def test_moments_match_kummer_function(self, alpha):
        for first, last in ORDER_SLICES:
            expected = kummer_moments(alpha, first, last)
            # the kernel takes 2 alpha, the square of |A b| / sigma
            got = _radial_moments(2.0 * alpha, first, last)
            assert got.shape == expected.shape
            assert np.all(np.abs(got - expected) <= 1e-14 * expected), (first, last)

    def test_keeps_the_shape_of_alpha(self):
        # the moments of an array of any shape stack along a new first axis
        alpha = np.geomspace(1e-3, 1e3, 4099).reshape(-1, 1)
        got = _radial_moments(2.0 * alpha, 2, 5)
        assert got.shape == (4,) + alpha.shape
        assert np.array_equal(got[:, :, 0], _radial_moments(2.0 * alpha[:, 0], 2, 5))

    @pytest.mark.parametrize("shape", [(0,), (0, 1)])
    def test_empty(self, shape):
        assert _radial_moments(np.empty(shape), 1, 3).shape == (3,) + shape


class TestRadialPath:
    """Wiener steps integrate the radial coordinate in closed form; other laws take the cone cubature."""

    @pytest.mark.parametrize("kind", list(bench.BENCHMARK_ELEMENTS))
    @pytest.mark.parametrize("dt", [0.01, 1.0, 100.0])
    def test_cone_path_agrees_for_gaussian_density(self, kind, dt):
        element = bench.BENCHMARK_ELEMENTS[kind]
        radial = escape_probability_det(element, WienerStep(dt=dt, dim=element.dim))
        cone = escape_probability_det(element, ConeWiener(dt, element.dim))
        assert radial.cost < cone.cost
        assert abs(radial.value - cone.value) <= radial.error_estimate + cone.error_estimate

    def test_density_override_takes_cone_path(self, benchmark_elements):
        class ScaledWiener(WienerStep):
            def density(self, steps):
                return 0.5 * super().density(steps)

        law = ScaledWiener(dt=0.1, dim=2)
        element = benchmark_elements["triangle"]
        # the hook is decided once per class: a solve under the parent law
        # first must not hand its decision to the subclass
        radial = escape_probability_det(element, WienerStep(dt=0.1, dim=2))
        assert quadrature._mixture_hook(WienerStep(dt=0.1, dim=2)) is not None
        assert quadrature._mixture_hook(law) is None
        overridden = escape_probability_det(element, law)
        cone = escape_probability_det(element, ConeWiener(0.1, 2))
        assert overridden.cost > radial.cost
        # half the stay probability: the override's density was integrated
        tolerance = overridden.error_estimate + 0.5 * cone.error_estimate
        assert abs((1.0 - overridden.value) - 0.5 * (1.0 - cone.value)) <= tolerance

    def test_tiny_element_is_the_unit_element_rescaled(self):
        # edges of 1e-103 and steps of the same scale: |det A| = 1e-309 and
        # (2 pi dt)^(-3/2) = 2.0e309 once overflowed into NonFiniteIntegrand
        unit = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        tiny = mesh_element("tetrahedron", [[1e-103 * x for x in vertex] for vertex in unit])
        small = escape_probability_det(tiny, WienerStep(dt=1e-207, dim=3))
        reference = escape_probability_det(mesh_element("tetrahedron", unit), WienerStep(dt=0.1, dim=3))
        assert small.cost == reference.cost
        assert abs(small.value - reference.value) <= small.error_estimate + reference.error_estimate


class TwoScaleWiener(StepDistribution):
    """An even mixture of two centred Gaussians, with the scale-mixture hook."""

    def __init__(self, scales, dim):
        self.dim = dim
        self.pairs = tuple((scale, 0.5) for scale in scales)
        self.scales = np.array([scales])

    def density(self, steps):
        squares = np.sum(np.square(steps), axis=-1)[..., None]
        gauss = np.exp(-0.5 * squares / self.scales**2) / (math.sqrt(2.0 * math.pi) * self.scales) ** self.dim
        return 0.5 * gauss.sum(axis=-1)

    def _scale_mixture(self):
        return self.pairs


def _legs(kind, length):
    """The reference cell of ``kind`` with its edges scaled to ``length``."""
    n = ElementKind(kind).dim
    return mesh_element(kind, np.vstack([np.zeros(n), length * np.eye(n)]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatRangeEnds:
    """The Wiener radial path on cells far larger or smaller than float64 squares can hold."""

    @pytest.mark.parametrize("kind, length, dt", [
        # |A b| / sigma beyond 1.3e154: alpha overflowed, every moment read 0
        # and the solve reported escape 1.0 with an estimate of 0
        ("segment", 1e10, 1e-290),
        ("triangle", 2e9, 1e-290),
        ("parallelogram", 2e9, 1e-290),
        # the Gaussian's factor overflowed first: NonFiniteIntegrand
        ("tetrahedron", 1e10, 1e-190),
        ("parallelepiped", 1e10, 1e-190),
        # cells beyond 2^256 across, scaled before their rays are squared
        ("segment", 1e300, 1e-200),
        ("triangle", 1e150, 1e-300),
        # |det A| from numpy's det, through logarithms, was 1.4e-14 off: the
        # escape read 1.3e-14 with an estimate of 0
        ("segment", 2e76, 1e-100),
    ])
    def test_cells_far_wider_than_a_step_keep_their_particles(self, kind, length, dt):
        # the escape probability is about sqrt(dt) / length, below 1e-100
        est = escape_probability_det(_legs(kind, length), WienerStep(dt=dt, dim=ElementKind(kind).dim))
        assert est.value <= est.error_estimate + 4 * np.spacing(1.0)

    @pytest.mark.parametrize("kind, length, dt", [
        # |A b|^2 subnormal: the radii lost digits, and the triangle took
        # 306,750 evals to a value 2.4e-6 off, 4x its estimate
        ("triangle", 1e-160, 1e-321),
        ("segment", 1e-160, 1e-321),
        # |det A| = 1e-320 is subnormal too: its root comes from the scaled edges
        ("parallelogram", 1e-160, 1e-321),
    ])
    def test_tiny_cells_are_the_unit_cell_rescaled(self, kind, length, dt):
        n = ElementKind(kind).dim
        tiny = escape_probability_det(_legs(kind, length), WienerStep(dt=dt, dim=n))
        unit = escape_probability_det(_legs(kind, 1.0), WienerStep(dt=dt / length / length, dim=n))
        assert tiny.cost == unit.cost
        assert abs(tiny.value - unit.value) <= tiny.error_estimate + unit.error_estimate + 4 * np.spacing(1.0)

    @pytest.mark.parametrize("kind", list(bench.BENCHMARK_ELEMENTS))
    def test_far_terms_are_the_limit_of_the_near_terms(self, kind):
        element = bench.BENCHMARK_ELEMENTS[kind]
        _, (rays, _, stay) = _CONE_CACHE[element.kind].first_pass
        matrix, shrink, root_det = element._frame
        radii = np.linalg.norm(matrix @ rays, axis=0)
        for sigma in (1e-3 * shrink, 1e-6 * shrink, 1e-9 * shrink, 1e-12 * shrink):
            ratio = radii / sigma
            near = quadrature._near_terms(ratio, stay, sigma, 1.0, root_det)
            far = quadrature._far_terms(ratio, radii, stay, 1.0, root_det)
            assert np.allclose(far, near, rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("kind", ["segment", "triangle", "tetrahedron", "parallelepiped"])
    def test_near_and_far_scales_in_one_mixture(self, kind):
        # one scale far below the cell, whose Gaussian factor overflows in
        # 3D: that half of the mixture stays, the other half is the Wiener law's
        element = bench.BENCHMARK_ELEMENTS[kind]
        n = element.dim
        mixed = escape_probability_det(element, TwoScaleWiener((0.5, 1e-200), n))
        wiener = escape_probability_det(element, WienerStep(dt=0.25, dim=n))
        tolerance = mixed.error_estimate + 0.5 * wiener.error_estimate + 4 * np.spacing(1.0)
        assert abs(mixed.value - 0.5 * wiener.value) <= tolerance

    @pytest.mark.parametrize("kind", list(bench.BENCHMARK_ELEMENTS))
    def test_cells_in_range_keep_the_root_of_their_determinant(self, kind):
        # a cell between 2^-255 and 2^256 across gives the frame the root of
        # its |det A|, scaled exactly: the radial path's bits are those it
        # has in the cell's own units
        amap = bench.BENCHMARK_ELEMENTS[kind].affine_map
        matrix, shrink, root_det = bench.BENCHMARK_ELEMENTS[kind]._frame
        assert np.array_equal(matrix / shrink, amap.matrix)
        assert root_det / shrink == amap.abs_det ** (1.0 / amap.dim)
        assert not matrix.flags.writeable

    @pytest.mark.parametrize("kind, length", [
        ("triangle", 1e-160), ("tetrahedron", 1e-103), ("tetrahedron", 1e100), ("segment", 1e300),
        # a segment narrower than the normal floats: 2^-e stays finite
        ("segment", 1e-310), ("segment", 5e-324),
    ])
    def test_scaling_is_exact(self, kind, length):
        element = _legs(kind, length)
        matrix, shrink, root_det = element._frame
        assert shrink != 1.0 and math.isfinite(1.0 / shrink)
        assert np.array_equal(matrix / shrink, element.affine_map.matrix)
        assert np.abs(matrix).max() < 1.0
        assert root_det / shrink == pytest.approx(length, rel=1e-15)


class TestProbabilityEstimate:
    def test_to_dict_lists_the_set_fields_in_order(self):
        estimate = ProbabilityEstimate(0.25, 1e-3, "monte_carlo", 100, 0.5)
        assert list(estimate.to_dict().items()) == [
            ("value", 0.25), ("error_estimate", 1e-3), ("method", "monte_carlo"), ("cost", 100), ("wall_time", 0.5),
        ]
        bounded = ProbabilityEstimate(0.0, 0.0, "monte_carlo", 100, 0.5, error_bound_95=0.03)
        assert list(bounded.to_dict())[-2:] == ["wall_time", "error_bound_95"]
        assert bounded.to_dict()["error_bound_95"] == 0.03


class TestCones:
    @pytest.mark.parametrize("cell", list(ElementKind))
    def test_stay_integrates_to_cell_measure(self, cell):
        # the integral of V(U ∩ (U - d)) / V(U) over all steps d is V(U); the
        # cones hold one of each mirrored pair, the other's steps are -d
        cones = _CONE_CACHE[cell]

        def f(x, k):
            t = x[:, 0]
            rays, jac = cones.facet_nodes(x[:, 1:], k)
            steps = t[:, None] * rays
            return (stay_fraction(cell, steps) + stay_fraction(cell, -steps)) * jac * t ** (cell.dim - 1)

        lo, hi, k = cones.boxes([0.0, 1.0])
        value, _, _ = _integrate_boxes(f, lo, hi, k, QuadratureConfig(abs_tol=1e-12))
        assert value == pytest.approx(cell.measure, abs=1e-12)

    def test_benchmark_tetrahedron_cost_guard(self, benchmark_elements):
        # a tenth of the 31,981,500 evaluations the orthant tiling needed
        est = escape_probability_det(benchmark_elements["tetrahedron"], WienerStep(dt=0.1, dim=3))
        assert est.cost < 3_198_150


class TestFirstPass:
    """The radial path's first pass reads node data cached per cell."""

    @pytest.mark.parametrize("cell", list(ElementKind))
    def test_cached_node_data_is_that_of_the_first_boxes(self, cell):
        cones = _CONE_CACHE[cell]
        (lo, hi, k), cached = cones.first_pass
        cone_lo, cone_hi, cone_k = cones.boxes([0.0, 1.0])
        assert np.array_equal(lo, cone_lo[:, 1:]) and np.array_equal(hi, cone_hi[:, 1:])
        assert np.array_equal(k, cone_k)
        volumes = quadrature._volumes(lo, hi)
        computed = []

        def record(w, tags):
            # the node data a refinement pass computes at these boxes' nodes
            computed.append(cones.radial_nodes(w, tags))
            return np.zeros(len(w))

        quadrature._evaluate(record, lo, hi, k, volumes)
        [data] = computed
        assert len(cached) == len(data) == 3
        for got, want in zip(cached, data):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert cached[0].flags.c_contiguous
        assert not any(array.flags.writeable for array in (lo, hi, k, *cached))

    @pytest.mark.parametrize("kind", list(bench.BENCHMARK_ELEMENTS))
    def test_cached_first_pass_changes_nothing(self, kind):
        element = bench.BENCHMARK_ELEMENTS[kind]
        cones = _CONE_CACHE[element.kind]
        (lo, hi, k), nodes = cones.first_pass
        frame = element._frame
        mixture = quadrature._mixture_hook(WienerStep(dt=0.1, dim=element.dim))

        def f(w, tags):
            return quadrature._facet_values(cones.radial_nodes(w, tags), frame, mixture)

        config = QuadratureConfig()
        cached = _integrate_boxes(f, lo, hi, k, config, first=quadrature._facet_values(nodes, frame, mixture))
        assert cached == _integrate_boxes(f, lo, hi, k, config)

    @pytest.mark.parametrize("kind", list(bench.BENCHMARK_ELEMENTS))
    @pytest.mark.parametrize("dt", [0.01, 1.0, 100.0])
    def test_facet_values_equal_the_norm_and_einsum_formula(self, kind, dt):
        # the column sums of |A b|^2 and the product-and-reduce over the stay
        # polynomial keep numpy's order of summation, so no bit moves
        element = bench.BENCHMARK_ELEMENTS[kind]
        amap = element.affine_map
        law = WienerStep(dt=dt, dim=element.dim)
        _, (rays, jac, stay) = _CONE_CACHE[element.kind].first_pass
        n = element.dim
        radii = np.linalg.norm(rays.T @ amap.matrix.T, axis=1)
        moments = _radial_moments((radii[:, None] / law.typical_scale) ** 2, n - 1, 2 * n - 1)
        radial = np.einsum("jm,jmq->mq", np.broadcast_to(stay, (n + 1, len(radii))), moments)
        gauss = (amap.abs_det ** (1.0 / n) / (math.sqrt(2.0 * math.pi) * law.typical_scale)) ** n
        expected = (radial * gauss).sum(axis=1) * jac
        got = quadrature._facet_values((rays, jac, stay), element._frame, quadrature._mixture_hook(law))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", list(bench.BENCHMARK_ELEMENTS))
    def test_rebuilt_element_solves_bit_for_bit(self, kind):
        element = bench.BENCHMARK_ELEMENTS[kind]
        rebuilt = mesh_element(element.kind, element.vertices.tolist())
        assert rebuilt.affine_map is not element.affine_map
        for dist in (WienerStep(dt=0.1, dim=element.dim), ConeWiener(1.0, element.dim)):
            if kind == "tetrahedron" and isinstance(dist, ConeWiener):
                continue  # the cone cubature of the tetrahedron takes seconds
            a, b = escape_probability_det(element, dist), escape_probability_det(rebuilt, dist)
            assert (a.value.hex(), a.error_estimate.hex(), a.cost) == (b.value.hex(), b.error_estimate.hex(), b.cost)

    def test_grid_eval_counts(self):
        counts = {
            kind: sum(escape_probability_det(element, WienerStep(dt=dt, dim=element.dim)).cost
                      for dt in bench.DT_GRID)
            for kind, element in bench.BENCHMARK_ELEMENTS.items()
        }
        assert counts == {
            "segment": 6, "triangle": 330, "parallelogram": 360, "tetrahedron": 13_950, "parallelepiped": 16_200,
        }
        assert sum(counts.values()) == 30_846

    def test_grid_triples_are_pinned(self):
        # (value, error_estimate, cost) of every grid cell at the default
        # config, bit for bit: a change to the radial path that moves a bit
        # re-pins this table and says so
        got = {
            kind: [(est.value.hex(), est.error_estimate.hex(), est.cost)
                   for est in (escape_probability_det(element, WienerStep(dt=dt, dim=element.dim))
                               for dt in bench.DT_GRID)]
            for kind, element in bench.BENCHMARK_ELEMENTS.items()
        }
        assert got == PINNED_GRID


# (value.hex(), error_estimate.hex(), cost) of each cell of the benchmark grid
# under WienerStep at the default QuadratureConfig, one row per DT_GRID entry
PINNED_GRID = {
    "segment": [
        ("0x1.46d04297691e0p-5", "0x0.0p+0", 1), ("0x1.025e67ba0306cp-3", "0x0.0p+0", 1),
        ("0x1.8fd289d506a02p-2", "0x0.0p+0", 1), ("0x1.82f49a5f8046bp-1", "0x0.0p+0", 1),
        ("0x1.d748b04b4de52p-1", "0x0.0p+0", 1), ("0x1.f315fb4ef2187p-1", "0x0.0p+0", 1),
    ],
    "triangle": [
        ("0x1.2ea26938d9d58p-3", "0x1.5fd34e2800000p-26", 75), ("0x1.a1f78c91be9d4p-2", "0x1.4613ee2000000p-29", 75),
        ("0x1.9765617778181p-1", "0x1.b7eb6a0000000p-34", 45), ("0x1.f0a1c902c58edp-1", "0x1.8000000000000p-56", 45),
        ("0x1.fe6150fefd823p-1", "0x1.6000000000000p-59", 45), ("0x1.ffd64dd0a3c04p-1", "0x1.6000000000000p-63", 45),
    ],
    "parallelogram": [
        ("0x1.5212219384250p-4", "0x1.3fab2dc000000p-29", 60), ("0x1.fb1526c68c1ecp-3", "0x1.48beb14000000p-29", 60),
        ("0x1.4760c22fec296p-1", "0x1.b696000000000p-41", 60), ("0x1.e1afa62da7816p-1", "0x1.0000000000000p-56", 60),
        ("0x1.fcc3c8953fa68p-1", "0x1.4000000000000p-60", 60), ("0x1.ffac9e9841debp-1", "0x1.4000000000000p-63", 60),
    ],
    "tetrahedron": [
        ("0x1.69e3caf9e7fe8p-2", "0x1.b49fbb0840000p-25", 4725), ("0x1.7c8e6aa1182dep-1", "0x1.301cbd0000000p-28", 2925),
        ("0x1.f0ac7331438fdp-1", "0x1.b2edea0000000p-38", 1575), ("0x1.ff57ae1257325p-1", "0x1.e800000000000p-60", 1575),
        ("0x1.fffa79ae18305p-1", "0x1.2800000000000p-64", 1575), ("0x1.ffffd31ab66dfp-1", "0x1.d000000000000p-70", 1575),
    ],
    "parallelepiped": [
        ("0x1.f8d455fa8f418p-4", "0x1.b5d8a97400000p-27", 2700), ("0x1.68556a51c22f0p-2", "0x1.9193cacc00000p-28", 2700),
        ("0x1.929d0b61de50dp-1", "0x1.bbef300000000p-39", 2700), ("0x1.f8a68d0dfa8d3p-1", "0x1.f000000000000p-58", 2700),
        ("0x1.ffbe3101c8501p-1", "0x1.8000000000000p-63", 2700), ("0x1.fffde5a6c1ea6p-1", "0x1.2800000000000p-67", 2700),
    ],
}


def mirrored(cones: _Cones) -> _Cones:
    """The cones and their mirrors, each a cone of its own: every cone of the stay support."""
    return _Cones(
        kind=cones.kind,
        frames=np.concatenate([cones.frames, -cones.frames]),
        collapse=np.concatenate([cones.collapse, cones.collapse]),
        simplex_stay=cones.simplex_stay,
    )


def every_cone_radial_escape(element, law, config) -> float:
    """The radial path's escape over every cone of the support, each cone counted once."""
    cones = mirrored(_CONE_CACHE[element.kind])
    frame = element._frame
    mixture = quadrature._mixture_hook(law)

    def f(w, k):
        rays, jac, stay = cones.radial_nodes(w, k)
        return quadrature._facet_values((rays, 0.5 * jac, stay), frame, mixture)

    lo, hi, k = cones.boxes([0.0, 1.0])
    value, _, _ = _integrate_boxes(f, lo[:, 1:], hi[:, 1:], k, config, lambda v: 1.0 - v)
    return 1.0 - value


def every_cone_escape(element, law, config):
    """The cone cubature's escape over every cone of the support, each with the density at its own steps.

    Returns the escape and its error estimate.
    """
    cones = mirrored(_CONE_CACHE[element.kind])
    amap = element.affine_map
    n = element.dim

    def f(x, k):
        t = x[:, 0]
        rays, jac = cones.facet_nodes(x[:, 1:], k)
        steps = t[:, None] * rays
        jac *= amap.abs_det * t ** (n - 1)
        return stay_fraction(element.kind, steps) * law.density(amap.global_step(steps)) * jac

    breaks = quadrature._radial_breaks(1.0, law, float(np.linalg.norm(amap.matrix, 2)))
    value, error, _ = _integrate_boxes(f, *cones.boxes(breaks), config, lambda v: 1.0 - v)
    return 1.0 - value, error


class TestCentralSymmetry:
    """Every path integrates one cone of each pair of mirrored facet pieces, for both."""

    @pytest.mark.parametrize("cell", list(ElementKind))
    def test_cones_keep_one_piece_of_each_pair(self, cell):
        facets = quadrature._support_facets(cell)
        pieces = {frozenset(map(tuple, vertices)) for vertices in facets}
        mirrors = {frozenset(map(tuple, -vertices)) for vertices in facets}
        # the hexagon, the square's 8 half-edges, the cuboctahedron's 14
        # faces and the cube's 24 quarter-faces
        assert len(pieces | mirrors) == 2 * len(facets) == {1: 2, 2: 6 if cell.is_simplex else 8,
                                                            3: 14 if cell.is_simplex else 24}[cell.dim]
        cones = _CONE_CACHE[cell]
        (lo, hi, k), (rays, jac, _) = cones.first_pass
        assert k.tolist() == list(range(len(facets)))
        # the Jacobian counts both cones of the pair, which are congruent: twice the facet's
        w = quadrature._nodes(lo, hi)
        facet_rays, facet_jac = cones.facet_nodes(w, np.repeat(k, len(w) // len(k)))
        assert np.array_equal(rays, facet_rays.T) and np.array_equal(jac, 2.0 * facet_jac)

    @pytest.mark.parametrize("cell", list(ElementKind))
    def test_every_frame_is_unimodular(self, cell):
        frames = _CONE_CACHE[cell].frames
        assert [abs(_cofactor_det(frame.tolist())) for frame in frames] == [1.0] * len(frames)

    @pytest.mark.parametrize("kind", list(ElementKind))
    @pytest.mark.parametrize("dt", [1e-2, 1.0, 1e3])
    def test_one_cone_of_each_pair_agrees_with_every_cone(self, kind, dt):
        rng = np.random.default_rng(2700 + 10 * list(ElementKind).index(kind) + int(math.log10(dt)))
        element = random_element(kind, rng)
        law = WienerStep(dt=dt, dim=element.dim)
        halved = escape_probability_det(element, law)
        cone_law = DensityWiener(dt=dt, dim=element.dim)
        assert quadrature._mixture_hook(cone_law) is None
        cone = escape_probability_det(element, cone_law)
        assert abs(halved.value - cone.value) <= halved.error_estimate + cone.error_estimate
        tight = QuadratureConfig(abs_tol=1e-13, rel_tol=0.0)
        halved_tight = escape_probability_det(element, law, tight)
        assert abs(halved_tight.value - every_cone_radial_escape(element, law, tight)) <= 1e-15


class ShiftedGaussian(StepDistribution):
    """Steps ``N(mean, sigma^2 I)`` with a nonzero mean, a law that is not even; density only."""

    def __init__(self, mean, sigma):
        self.mean = np.asarray(mean, dtype=float)
        self.sigma = sigma
        self.dim = len(self.mean)
        self.typical_scale = sigma

    def density(self, steps):
        squares = np.sum(np.square(np.asarray(steps) - self.mean), axis=-1)
        return np.exp(-0.5 * squares / self.sigma**2) / (math.sqrt(2.0 * math.pi) * self.sigma) ** self.dim


class TestLawThatIsNotEven:
    """The cone cubature takes a cone's mirror with the density at the negated steps: exact for any law."""

    @pytest.mark.parametrize("mean", [0.4, -0.7, 1.6])
    def test_segment_matches_closed_form(self, mean):
        law = ShiftedGaussian([mean], 0.3)
        est = escape_probability_det(mesh_element("segment", [[0.5], [2.0]]), law,
                                     QuadratureConfig(abs_tol=1e-10, rel_tol=0.0))
        expected = segment_escape_shifted_gaussian(1.5, mean, 0.3)
        assert abs(est.value - expected) <= est.error_estimate + 4 * np.spacing(1.0)

    @pytest.mark.parametrize("kind", ["triangle", "parallelogram"])
    @pytest.mark.parametrize("mean", [(0.3, -0.2), (-0.5, 0.8)])
    def test_2d_matches_both_cones_of_each_pair(self, benchmark_elements, kind, mean):
        element = benchmark_elements[kind]
        law = ShiftedGaussian(mean, 0.4)
        config = QuadratureConfig(abs_tol=1e-8, rel_tol=0.0)
        est = escape_probability_det(element, law, config)
        expected, error = every_cone_escape(element, law, config)
        assert abs(est.value - expected) <= est.error_estimate + error


class TestErrorEstimateHonesty:
    """The reported error covers the distance to a kink-aware brute-force oracle."""

    @pytest.mark.parametrize("dt", [0.01, 0.1, 1.0])
    def test_benchmark_triangle(self, benchmark_elements, dt):
        tri = benchmark_elements["triangle"]
        est = escape_probability_det(tri, WienerStep(dt=dt, dim=2))
        oracle, oracle_error = simplex_escape_wiener(tri.vertices, dt)
        assert abs(est.value - oracle) <= est.error_estimate + oracle_error

    def test_benchmark_tetrahedron(self, benchmark_elements):
        tet = benchmark_elements["tetrahedron"]
        est = escape_probability_det(tet, WienerStep(dt=1.0, dim=3), QuadratureConfig(abs_tol=1e-4))
        oracle, oracle_error = simplex_escape_wiener(tet.vertices, 1.0)
        assert abs(est.value - oracle) <= est.error_estimate + oracle_error

    @pytest.mark.parametrize("rate, config, length", [
        pytest.param(rate, config, length, id=f"{rate}-config{i}-{length}")
        for i, (rate, config, lengths) in enumerate([
            (1.0, QuadratureConfig(abs_tol=1e-10, rel_tol=0.0), [1.0, 2.0]),
            (1e3, QuadratureConfig(), [1.0, 2.0]),
            (1e6, QuadratureConfig(), [1.0, 2.0]),
            # refined below 1e-13 in the radial coordinate, where the nodes
            # of a cone other than the first must keep full precision
            (1.0, QuadratureConfig(abs_tol=1e-12, rel_tol=0.0), [1e6, 1e4]),
            (1.0, QuadratureConfig(abs_tol=1e-13, rel_tol=0.0), [1e4]),
            # a small escape: the relative goal is met by the escape
            # probability itself, not by the stay integral
            (100.0, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-2), [2.0]),
        ])
        for length in lengths
    ])
    def test_velocity_jump_segment(self, rate, config, length):
        # the log-singular density is integrated down to the zero step, so
        # the error is the rule's alone and meets the tolerance
        segment = mesh_element("segment", [[0.0], [length]])
        est = escape_probability_det(segment, VelocityJumpStep(rate=rate, dim=1), config)
        oracle = vjump_segment_escape(length, rate)
        assert abs(est.value - oracle) <= est.error_estimate
        assert est.error_estimate <= max(config.abs_tol, config.rel_tol * est.value)

    @pytest.mark.parametrize("group", ["grid", "segment-closed-form", "transitions", "cone-path",
                                       "velocity-jump-2d-3d"])
    def test_estimate_covers_the_distance_to_a_tighter_truth(self, group):
        # error_estimate >= |value - truth| less the truth's own estimate and
        # 4 ulps of 1.0 for the rounding of the value
        tight = QuadratureConfig(abs_tol=1e-13, rel_tol=0.0)
        cases = []  # (label, default solve, truth, truth's estimate)
        if group == "grid":
            for name, element in bench.BENCHMARK_ELEMENTS.items():
                for dt in bench.DT_GRID:
                    law = WienerStep(dt=dt, dim=element.dim)
                    truth = escape_probability_det(element, law, tight)
                    cases.append((f"{name} dt={dt}", escape_probability_det(element, law),
                                  truth.value, truth.error_estimate))
        elif group == "cone-path":
            # the whole-cone cubature of the Wiener density, against tight radial solves
            for name, element in bench.BENCHMARK_ELEMENTS.items():
                for dt in bench.DT_GRID:
                    truth = escape_probability_det(element, WienerStep(dt=dt, dim=element.dim), tight)
                    cases.append((f"cone {name} dt={dt}", escape_probability_det(element, ConeWiener(dt, element.dim)),
                                  truth.value, truth.error_estimate))
        elif group == "velocity-jump-2d-3d":
            # not the parallelepiped: both tolerances accept its first pass
            for name, loose, tighter in [("triangle", 1e-4, 1e-7), ("tetrahedron", 1e-2, 1e-4)]:
                element = bench.BENCHMARK_ELEMENTS[name]
                law = VelocityJumpStep(rate=1.0, dim=element.dim)
                truth = escape_probability_det(element, law, QuadratureConfig(abs_tol=tighter, rel_tol=0.0))
                cases.append((f"velocity-jump {name}",
                              escape_probability_det(element, law, QuadratureConfig(abs_tol=loose, rel_tol=0.0)),
                              truth.value, truth.error_estimate))
        elif group == "segment-closed-form":
            # The radial path solves a segment in two exact terms and reports an
            # estimate of 0, yet sits up to 2.2e-16 from the closed form: only
            # the rounding allowance covers it (ROADMAP item 4)
            segment = bench.BENCHMARK_ELEMENTS["segment"]
            length = float(segment.vertices[1, 0] - segment.vertices[0, 0])
            for dt in bench.DT_GRID:
                cases.append((f"segment dt={dt}", escape_probability_det(segment, WienerStep(dt=dt, dim=1)),
                              segment_escape_wiener(length, dt), 0.0))
        else:
            # not against transition_1d_trapezoid: at dt=1 its own error is
            # larger than the solver estimates it would be checking
            for label, law in [("wiener dt=0.1", WienerStep(dt=0.1, dim=1)), ("wiener dt=1", WienerStep(dt=1.0, dim=1)),
                               ("velocity-jump rate=1", VelocityJumpStep(rate=1.0, dim=1))]:
                for k in range(-3, 4):
                    target = (float(k), k + 1.0)
                    truth = transition_probability_det_1d((0.0, 1.0), target, law, tight)
                    cases.append((f"{label} [0, 1] -> {target}", transition_probability_det_1d((0.0, 1.0), target, law),
                                  truth.value, truth.error_estimate))
        rounding = 4 * np.spacing(1.0)
        short = [
            f"{label}: estimate {est.error_estimate:.3e} < distance {abs(est.value - truth):.3e}"
            for label, est, truth, truth_error in cases
            if est.error_estimate < abs(est.value - truth) - truth_error - rounding
        ]
        assert not short, short

    def test_velocity_jump_triangle_meets_tolerance(self, benchmark_elements):
        est = escape_probability_det(
            benchmark_elements["triangle"], VelocityJumpStep(rate=1.0, dim=2),
            QuadratureConfig(abs_tol=1e-7, rel_tol=0.0),
        )
        assert est.error_estimate <= 1e-7


class TestEscapeDeterministic:
    def test_benchmark_segment_dt_1(self, benchmark_elements):
        est = escape_probability_det(benchmark_elements["segment"], WienerStep(dt=1.0, dim=1))
        assert est.value == pytest.approx(0.3905, abs=5e-4)
        assert est.method == "deterministic"
        assert est.error_estimate <= 1e-6

    def test_benchmark_triangle_dt_01(self, benchmark_elements):
        est = escape_probability_det(benchmark_elements["triangle"], WienerStep(dt=0.1, dim=2))
        assert est.value == pytest.approx(0.4082, abs=5e-4)

    def test_benchmark_tetrahedron_dt_001(self, benchmark_elements):
        est = escape_probability_det(
            benchmark_elements["tetrahedron"], WienerStep(dt=0.01, dim=3)
        )
        assert est.value == pytest.approx(0.3534, abs=5e-4)

    def test_matches_segment_closed_form(self):
        for length, dt in [(0.5, 0.1), (2.0, 1.0), (1.0, 10.0)]:
            seg = mesh_element("segment", [[0.0], [length]])
            est = escape_probability_det(
                seg, WienerStep(dt=dt, dim=1), QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
            )
            assert est.value == pytest.approx(segment_escape_wiener(length, dt), abs=1e-8)

    def test_value_in_unit_interval_and_cost_reported(self, benchmark_elements):
        est = escape_probability_det(
            benchmark_elements["parallelogram"], WienerStep(dt=1000.0, dim=2)
        )
        assert 0.0 <= est.value <= 1.0
        assert est.cost > 0 and est.wall_time >= 0.0

    def test_density_required(self, benchmark_elements):
        class SampleOnly(StepDistribution):
            dim = 1

            def sample(self, rng, size):
                return np.zeros((size, 1))

        with pytest.raises(DensityUnavailable):
            escape_probability_det(benchmark_elements["segment"], SampleOnly())

    def test_dimension_mismatch(self, benchmark_elements):
        with pytest.raises(DimensionMismatch):
            escape_probability_det(benchmark_elements["triangle"], WienerStep(dt=1.0, dim=3))

    def test_monotone_in_dt(self, benchmark_elements):
        values = [
            escape_probability_det(benchmark_elements["segment"], WienerStep(dt=dt, dim=1)).value
            for dt in (1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3)
        ]
        assert np.all(np.diff(values) > 0)

    def test_translation_invariance(self, benchmark_elements):
        tri = benchmark_elements["triangle"]
        shifted = mesh_element("triangle", tri.vertices + np.array([13.5, -7.25]))
        dist = WienerStep(dt=0.5, dim=2)
        a = escape_probability_det(tri, dist)
        b = escape_probability_det(shifted, dist)
        assert abs(a.value - b.value) <= 2e-6

    def test_brownian_scale_coupling(self, rng):
        element = random_element("triangle", rng, scale=2.0)
        scaled = mesh_element("triangle", element.vertices * 3.0)
        a = escape_probability_det(element, WienerStep(dt=0.4, dim=2))
        b = escape_probability_det(scaled, WienerStep(dt=0.4 * 9.0, dim=2))
        assert abs(a.value - b.value) <= 2e-6

    def test_velocity_jump_excludes_origin(self, benchmark_elements):
        est = escape_probability_det(benchmark_elements["segment"], VelocityJumpStep(rate=1.0, dim=1))
        assert 0.0 < est.value < 1.0
        # the error is the rule's alone, within the default tolerance
        assert 0.0 < est.error_estimate <= 1e-6

    def test_velocity_jump_2d_matches_monte_carlo(self, benchmark_elements):
        # nested quadrature through the mixture density: loose tolerance
        # keeps this a smoke test of the singular 2D path
        from cellescape import McConfig, escape_probability_mc, theoretical_stat_error

        tri = benchmark_elements["triangle"]
        vj = VelocityJumpStep(rate=1.0, dim=2)
        det = escape_probability_det(tri, vj, QuadratureConfig(abs_tol=3e-3))
        mc = escape_probability_mc(tri, vj, McConfig(particles=200000, seed=31))
        bound = 4.0 * theoretical_stat_error(det.value, 200000) + det.error_estimate
        assert abs(mc.value - det.value) <= bound

    def test_velocity_jump_3d_matches_monte_carlo(self, benchmark_elements):
        from cellescape import McConfig, escape_probability_mc, theoretical_stat_error

        tet = benchmark_elements["tetrahedron"]
        vj = VelocityJumpStep(rate=1.0, dim=3)
        det = escape_probability_det(tet, vj, QuadratureConfig(abs_tol=1e-4))
        mc = escape_probability_mc(tet, vj, McConfig(particles=10**6, seed=31))
        bound = 4.0 * theoretical_stat_error(det.value, 10**6) + det.error_estimate
        assert abs(mc.value - det.value) <= bound

    def test_tolerance_not_met_reports_escape_scale_value(self, benchmark_elements):
        config = QuadratureConfig(abs_tol=1e-13, rel_tol=0.0, max_subdivisions=2)
        with pytest.raises(ToleranceNotMet) as excinfo:
            escape_probability_det(
                benchmark_elements["triangle"], WienerStep(dt=0.1, dim=2), config
            )
        assert 0.0 <= excinfo.value.value <= 1.0
        assert excinfo.value.value == pytest.approx(0.4082, abs=0.05)

    @pytest.mark.parametrize("kind, law, abs_tol", [
        ("tetrahedron", WienerStep(dt=0.1, dim=3), 1e-5),
        ("triangle", VelocityJumpStep(rate=1.0, dim=2), 1e-5),
        # at 1e-5 the box cell's first pass is accepted and the integrand never called
        ("parallelepiped", WienerStep(dt=0.01, dim=3), 1e-8),
    ])
    def test_bounded_integrand_calls_change_nothing(self, benchmark_elements, monkeypatch, kind, law, abs_tol):
        element = benchmark_elements[kind]
        config = QuadratureConfig(abs_tol=abs_tol, rel_tol=0.0)
        whole = escape_probability_det(element, law, config)
        sizes = []
        integrate_boxes = quadrature._integrate_boxes

        def recording_integrate_boxes(f, *args, **kwargs):
            # record the node count of every call of the integrand, on
            # whichever path the law takes
            def recording_f(x, k):
                sizes.append(len(x))
                return f(x, k)

            return integrate_boxes(recording_f, *args, **kwargs)

        # the radial-moment path integrates over the facets, one dimension less
        radial = quadrature._mixture_hook(law) is not None
        box_dim = element.dim - radial
        # one box per call: the benchmark tetrahedron's one refinement pass
        # evaluates two boxes, which fit in one call of three
        limit = 15**box_dim
        monkeypatch.setattr(quadrature, "_MAX_POINTS", limit)
        monkeypatch.setattr(quadrature, "_integrate_boxes", recording_integrate_boxes)
        split = escape_probability_det(element, law, config)
        assert (split.value, split.error_estimate, split.cost) == (whole.value, whole.error_estimate, whole.cost)
        assert max(sizes) == limit
        # the radial path reads its first pass from the cell's cache and
        # calls the integrand on split boxes only
        jac = _CONE_CACHE[element.kind].first_pass[1][1]
        assert sum(sizes) == whole.cost - (len(jac) if radial else 0)


class TestTypicalScale:
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, True, "1"],
                             ids=["zero", "negative", "nan", "inf", "bool", "str"])
    @pytest.mark.parametrize("solve", [
        lambda law: escape_probability_det(mesh_element("segment", [[0.0], [1.0]]), law),
        lambda law: transition_probability_det_1d((0.0, 1.0), (0.0, 1.0), law),
    ], ids=["escape", "transition"])
    def test_bad_scale_names_the_field(self, solve, scale):
        # zero divided by zero and -1 took a logarithm of a negative number; NaN passed as unset
        law = ConeWiener(dt=0.1, dim=1)
        law.typical_scale = scale
        with pytest.raises(InputError) as info:
            solve(law)
        assert info.value.field == "typical_scale"


class TestOriginLadder:
    """The ladder toward the zero step reaches the law's scale, however far below the cell's it lies."""

    @pytest.mark.parametrize("dt", [1e-40, 1e-100, 1e-300])
    def test_wiener_self_transition_of_a_far_narrower_law(self, dt):
        # the ladder stopped 45 halvings down: 0 +- 0, where the truth is 1
        law = WienerStep(dt=dt, dim=1)
        stay = transition_probability_det_1d((0.0, 1.0), (0.0, 1.0), law)
        escape = escape_probability_det(mesh_element("segment", [[0.0], [1.0]]), law)
        assert abs(stay.value - (1.0 - escape.value)) <= stay.error_estimate + escape.error_estimate

    @pytest.mark.parametrize("dt", [1e-40, 1e-300])
    def test_cone_path_escape_of_a_far_narrower_law(self, dt):
        # the same law without the hook: escape 1 +- 0, where the truth is about sigma
        est = escape_probability_det(mesh_element("segment", [[0.0], [1.0]]), ConeWiener(dt, 1))
        assert abs(est.value - segment_escape_wiener(1.0, dt)) <= est.error_estimate

    def test_velocity_jump_far_above_one_jump_per_cell(self, benchmark_elements):
        # rate 1e20 on [0, 2]: escape about 1e-20, where the capped ladder gave 1 +- 0
        element = benchmark_elements["segment"]
        law = VelocityJumpStep(rate=1e20, dim=1)
        est = escape_probability_det(element, law)
        assert est.value <= est.error_estimate
        mc = escape_probability_mc(element, law, McConfig(particles=10**5, seed=3))
        assert abs(est.value - mc.value) <= est.error_estimate + mc.error_bound_95

    @pytest.mark.parametrize("extent, dt, op_norm", [
        (1e308, 5e-324, 1.0),  # the quotient of the lengths overflows
        (1.0, 1e-300, 1e300),  # the local scale underflows to 0
        (1.0, 1e-30, 1.0),
    ])
    def test_breaks_ascend_from_zero_within_the_normal_floats(self, extent, dt, op_norm):
        breaks = quadrature._radial_breaks(extent, WienerStep(dt=dt, dim=1), op_norm)
        assert breaks[0] == 0.0 and breaks[-1] == extent
        assert breaks[1] >= np.finfo(float).tiny
        assert all(lo < hi for lo, hi in zip(breaks, breaks[1:]))
        # down to the law's local scale, unless the normal floats end first
        assert breaks[1] <= max(math.sqrt(dt) / op_norm, 2.0 * np.finfo(float).tiny)


class TestTransitionDeterministic:
    def test_adjacent_intervals_oracle(self):
        dist = WienerStep(dt=1.0, dim=1)
        est = transition_probability_det_1d((0, 1), (1, 2), dist)
        oracle = transition_1d_trapezoid((0, 1), (1, 2), 1.0)
        assert est.value == pytest.approx(oracle, abs=1e-6)

    def test_far_intervals_negligible(self):
        dist = WienerStep(dt=0.01, dim=1)
        est = transition_probability_det_1d((0, 1), (100, 101), dist)
        assert est.value < 1e-12

    def test_near_point_mass_stays(self):
        dist = WienerStep(dt=1e-12, dim=1)
        est = transition_probability_det_1d((0, 1), (0, 1), dist)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_self_transition_is_stay_probability(self):
        # staying in [0, l] is the complement of escaping it
        dist = WienerStep(dt=1.0, dim=1)
        est = transition_probability_det_1d((0, 2), (0, 2), dist)
        assert est.value == pytest.approx(1.0 - segment_escape_wiener(2.0, 1.0), abs=1e-8)
        # the same identity under a law whose density diverges at the zero step
        dist = VelocityJumpStep(rate=1.0, dim=1)
        stay = transition_probability_det_1d((0, 1), (0, 1), dist)
        escape = escape_probability_det(mesh_element("segment", [[0.0], [1.0]]), dist)
        assert abs(escape.value - (1.0 - stay.value)) <= escape.error_estimate + stay.error_estimate

    def test_window_inside_origin_exclusion(self):
        # every step that stays is shorter than 1e-8, deep in the log singularity
        dist = VelocityJumpStep(1.0, 1)
        config = QuadratureConfig(abs_tol=1e-12, rel_tol=0.0)
        est = transition_probability_det_1d((0, 5e-9), (0, 5e-9), dist, config)
        oracle = 1.0 - vjump_segment_escape(5e-9, 1.0)
        assert oracle == pytest.approx(4.008e-8, rel=1e-3)
        assert abs(est.value - oracle) <= est.error_estimate <= config.abs_tol

    def test_requires_1d(self):
        with pytest.raises(DimensionMismatch):
            transition_probability_det_1d((0, 1), (1, 2), WienerStep(dt=1.0, dim=2))

    def test_empty_interval(self):
        from cellescape import EmptyInterval

        with pytest.raises(EmptyInterval):
            transition_probability_det_1d((1, 0), (1, 2), WienerStep(dt=1.0, dim=1))

    @pytest.mark.parametrize("source, target", [
        ((0.0, 1e308), (-1e308, 0.0)),  # the window's end overflowed: OverflowError
        ((0.0, 1e308), (0.0, 1e308)),  # its width overflowed: 0 +- 0 after overflow warnings
        ((0.0, 8e307), (-8e307, 0.0)),  # the sum of two steps overflows
    ])
    def test_window_beyond_the_float_range_names_the_target(self, source, target):
        with pytest.raises(InputError) as info:
            transition_probability_det_1d(source, target, WienerStep(dt=1.0, dim=1))
        assert info.value.field == "target"

    def test_window_far_wider_than_the_law(self):
        # a window of 2e307 under a unit law: the ladder runs 1,000 halvings deep
        est = transition_probability_det_1d((0.0, 1e307), (0.0, 1e307), WienerStep(dt=1.0, dim=1))
        assert est.value == pytest.approx(1.0, abs=est.error_estimate)


def test_benchmark_velocity_jump_segment_is_within_its_own_error():
    # the benchmark's vj/segment solve against its recorded reference: a
    # change that shrinks the estimate below the distance fails here, not
    # in the benchmark
    references = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "references.json").read_text())
    est = escape_probability_det(bench.BENCHMARK_ELEMENTS["segment"], VelocityJumpStep(rate=1.0, dim=1))
    assert abs(est.value - references["velocity_jump"]["segment"]["value"]) <= est.error_estimate
