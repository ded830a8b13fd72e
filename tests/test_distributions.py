import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import cellescape
from cellescape import (
    DensityUnavailable,
    DimensionMismatch,
    InputError,
    OriginSingularity,
    SamplerUnavailable,
    StepDistribution,
    VelocityJumpStep,
    WienerStep,
    distribution_from_dict,
    distribution_to_dict,
)

from oracles import (
    vjump_cdf_from_density,
    vjump_density_trapezoid,
    vjump_radial_integral,
)


def random_rotation(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


class TestWienerDensity:
    def test_standard_normal_mode(self):
        w = WienerStep(dt=1.0, dim=1)
        assert w.density([0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_planar_mode(self):
        w = WienerStep(dt=1.0, dim=2)
        assert w.density([0.0, 0.0]) == pytest.approx(1.0 / (2 * math.pi))

    def test_closed_form_point(self):
        w = WienerStep(dt=4.0, dim=1)
        expected = math.exp(-0.5) / math.sqrt(8 * math.pi)
        assert w.density([2.0]) == pytest.approx(expected, rel=1e-14)

    def test_batch_shape(self, rng):
        w = WienerStep(dt=0.5, dim=3)
        steps = rng.normal(size=(100, 3))
        assert w.density(steps).shape == (100,)

    def test_isotropy(self, rng):
        for n in (1, 2, 3):
            w = WienerStep(dt=0.7, dim=n)
            steps = rng.normal(size=(200, n))
            rotated = steps @ random_rotation(n, rng).T
            assert np.allclose(w.density(steps), w.density(rotated), rtol=0, atol=1e-12)

    def test_normalization(self):
        # dt = 2: a [-7 sigma, 7 sigma] box carries all mass but < 1e-9
        w = WienerStep(dt=2.0, dim=1)
        x = np.linspace(-7 * math.sqrt(2), 7 * math.sqrt(2), 20001)
        total = np.trapezoid(w.density(x[:, None]), x)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            WienerStep(dt=1.0, dim=2).density([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dt, dim", [(1e-310, 2), (1e-250, 3)])
    def test_factor_beyond_the_float_range(self, dt, dim):
        # (2 pi dt)^(-n/2) overflows a double, where a float's power raised
        # OverflowError: the density is inf only where it is itself that large
        log_factor = -0.5 * dim * math.log(2.0 * math.pi * dt)
        steps = np.zeros((3, dim))
        steps[1, 0] = math.sqrt(2.0 * dt * (log_factor - math.log(0.01)))
        steps[2, 0] = 1.0
        values = WienerStep(dt=dt, dim=dim).density(steps)
        assert values[0] == math.inf
        assert values[1] == pytest.approx(0.01, rel=1e-9)
        assert values[2] == 0.0

    @pytest.mark.parametrize("dt, dim", [(0.1, 3), (1e-300, 2), (1e-200, 3), (5e-324, 1)])
    def test_finite_factor_keeps_its_product(self, dt, dim):
        steps = np.random.default_rng(7).normal(size=(5, dim)) * math.sqrt(dt)
        norm2 = np.einsum("ij,ij->i", steps, steps)
        want = (2.0 * math.pi * dt) ** (-dim / 2.0) * np.exp(-norm2 / (2.0 * dt))
        assert np.array_equal(WienerStep(dt=dt, dim=dim).density(steps), want)


class TestWienerSampling:
    def test_mean_and_variance(self):
        w = WienerStep(dt=3.0, dim=1)
        samples = w.sample(np.random.default_rng(11), 10**6)[:, 0]
        assert abs(samples.mean()) < 4.0 * math.sqrt(3.0) / 1000.0
        assert abs(samples.var(ddof=1) - 3.0) < 0.01 * 3.0

    def test_same_seed_identical(self):
        w = WienerStep(dt=1.0, dim=2)
        a = w.sample(np.random.default_rng(5), 1000)
        b = w.sample(np.random.default_rng(5), 1000)
        assert np.array_equal(a, b)

    def test_sampler_density_ks(self):
        w = WienerStep(dt=2.5, dim=1)
        stats = pytest.importorskip("scipy.stats")
        samples = w.sample(np.random.default_rng(3), 10**5)[:, 0]
        result = stats.kstest(samples, lambda x: stats.norm.cdf(x, scale=math.sqrt(2.5)))
        assert result.pvalue > 0.001


class TestSampleIntoOut:
    """``sample(rng, size, out=buffer)`` fills the buffer with the allocating path's steps."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("make", [lambda dim: WienerStep(dt=0.3, dim=dim),
                                      lambda dim: VelocityJumpStep(rate=1.7, dim=dim)],
                             ids=["wiener", "velocity_jump"])
    def test_out_equals_allocating_path(self, make, dim):
        law = make(dim)
        expected = law.sample(np.random.default_rng(31), 3001)
        buffer = np.full((3001, dim), np.nan)
        got = law.sample(np.random.default_rng(31), 3001, out=buffer)
        assert got is buffer
        assert np.array_equal(got, expected)

    def test_velocity_jump_keeps_its_draws(self):
        # the travel times are standard exponentials times 1/rate, drawn
        # before the velocities, exactly as rng.exponential(1/rate) draws them
        law = VelocityJumpStep(rate=1.7, dim=3)
        rng = np.random.default_rng(32)
        travel = rng.exponential(1.0 / 1.7, 2000)
        expected = rng.standard_normal((2000, 3)) * travel[:, None]
        got = law.sample(np.random.default_rng(32), 2000, out=np.empty((2000, 3)))
        assert np.array_equal(got, expected)


class TestVelocityJumpSampling:
    def test_mean_near_zero(self):
        vj = VelocityJumpStep(rate=1.0, dim=2)
        samples = vj.sample(np.random.default_rng(17), 10**6)
        # var per coordinate is E[T^2] = 2, so sigma of the mean is sqrt(2)/1e3
        assert np.abs(samples.mean(axis=0)).max() < 4.0 * math.sqrt(2.0) / 1000.0

    def test_second_moment(self):
        vj = VelocityJumpStep(rate=1.0, dim=1)
        samples = vj.sample(np.random.default_rng(23), 10**6)[:, 0]
        # E[x^2] = E[T^2] E[v^2] = 2 / rate^2
        assert abs((samples**2).mean() - 2.0) < 0.05 * 2.0

    def test_same_seed_identical(self):
        vj = VelocityJumpStep(rate=0.5, dim=3)
        a = vj.sample(np.random.default_rng(9), 500)
        b = vj.sample(np.random.default_rng(9), 500)
        assert np.array_equal(a, b)


class TestVelocityJumpDensity:
    def test_normalization(self):
        # mass beyond |x| = 50 is 2.2e-9; the geometric grid resolves the
        # integrable log singularity at the origin
        vj = VelocityJumpStep(rate=1.0, dim=1)
        x = np.geomspace(1e-8, 50.0, 4001)
        simpson = pytest.importorskip("scipy.integrate").simpson
        half = simpson(vj.density(x[:, None]), x=x)
        assert 2.0 * half == pytest.approx(1.0, abs=1e-6)

    def test_symmetry(self, rng):
        vj = VelocityJumpStep(rate=1.0, dim=1)
        x = rng.uniform(0.01, 5.0, size=50)
        assert np.allclose(vj.density(x[:, None]), vj.density(-x[:, None]), rtol=1e-12)

    def test_trapezoid_oracle(self):
        vj = VelocityJumpStep(rate=1.0, dim=1)
        assert vj.density([1.0]) == pytest.approx(vjump_density_trapezoid(1.0), abs=1e-8)
        # every dimension, from far inside the origin singularity to the far
        # tail, against panel quadrature; the rate scales s = rate * |dx|
        s = np.geomspace(1e-12, 1e3, 31)
        for n in (1, 2, 3):
            vj = VelocityJumpStep(rate=2.0, dim=n)
            steps = np.zeros((len(s), n))
            steps[:, -1] = s / 2.0
            oracle = [2.0**n * (2.0 * math.pi) ** (-n / 2.0) * vjump_radial_integral(x, n) for x in s]
            assert np.allclose(vj.density(steps), oracle, rtol=1e-9, atol=0.0)
        # small-s asymptotes: I_2(s) -> sqrt(pi / 2) / s and I_3(s) -> 1 / s^2
        for n, limit in ((2, math.sqrt(math.pi / 2.0) / 1e-10), (3, 1e20)):
            value = VelocityJumpStep(rate=1.0, dim=n).density(np.full(n, 1e-10 / math.sqrt(n)))
            assert value * (2.0 * math.pi) ** (n / 2.0) == pytest.approx(limit, rel=1e-8)

    def test_origin_singularity(self):
        vj = VelocityJumpStep(rate=1.0, dim=1)
        with pytest.raises(OriginSingularity):
            vj.density([0.0])
        with pytest.raises(OriginSingularity):
            vj.density([1e-301])
        vj3 = VelocityJumpStep(rate=1.0, dim=3)
        with pytest.raises(OriginSingularity):
            vj3.density([0.0, 0.0, 0.0])

    def test_steps_far_below_sqrt_of_tiniest_double(self):
        # |dx|^2 underflows for |dx| < 1e-154; the cut stays at 1e-300
        for step in ([1e-200], [1e-200, 0.0]):
            n = len(step)
            value = VelocityJumpStep(rate=1.0, dim=n).density(step)
            oracle = (2.0 * math.pi) ** (-n / 2.0) * vjump_radial_integral(1e-200, n)
            assert math.isfinite(value)
            assert value == pytest.approx(oracle, rel=1e-9)
        # in 3D the density there (about 1e400) overflows a double
        with pytest.raises(OriginSingularity):
            VelocityJumpStep(rate=1.0, dim=3).density([1e-200, 0.0, 0.0])

    def test_step_whose_s_underflows(self):
        # rate * |dx| underflows to 0 above the 1e-300 cut, which once ended
        # in Python's OverflowError: log s is log(rate) + log|dx| (the
        # reference value is mpmath's, to 30 digits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = VelocityJumpStep(rate=1e-30, dim=1).density([1e-299])
            beside = VelocityJumpStep(rate=1e-30, dim=1).density(np.array([[1e-299], [1.0]]))
        assert value == pytest.approx(3.0201177148989548e-28, rel=1e-14)
        assert beside[0] == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("rate, dim, radius", [
        # the integrand overflowed before the factor rate^n scaled it back
        (1e-30, 2, 1e-299),
        (1e-30, 3, 1e-150),
        # rate^n (2 pi)^(-n/2) fell below the normal floats: the density read 0
        (1e-200, 2, 1.0),
        (1e-110, 3, 1.0),
    ])
    def test_tiny_rate_takes_its_factor_into_the_exponent(self, rate, dim, radius):
        # s = rate |dx| is far below 1, where the density is its small-s
        # limit rate / (2 pi |dx|) sqrt(pi / 2) in 2D and
        # rate / ((2 pi)^(3/2) |dx|^2) in 3D
        if dim == 2:
            limit = rate / (2.0 * math.pi * radius) * math.sqrt(math.pi / 2.0)
        else:
            limit = rate / ((2.0 * math.pi) ** 1.5 * radius**2)
        step = np.zeros(dim)
        step[0] = radius
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = VelocityJumpStep(rate=rate, dim=dim).density(step)
        assert value == pytest.approx(limit, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rate, dim", [(2e154, 2), (1e110, 3)])
    def test_rate_beyond_the_float_range(self, rate, dim):
        # rate**dim overflows a double: the library's error, not Python's OverflowError
        with pytest.raises(OriginSingularity, match="rate"):
            VelocityJumpStep(rate=rate, dim=dim).density(np.ones(dim))

    @pytest.mark.parametrize("rate, step", [
        (1e100, [1e210, 0.0]),  # rate * |dx| overflows
        (1e100, [1e210]),
        (1.0, [1e308]),  # the window's end 60 + 2 rate |dx| overflows
        (1.0, [0.0, 0.0, -1.7e308]),
    ])
    def test_step_beyond_the_float_range_has_density_zero(self, rate, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert VelocityJumpStep(rate=rate, dim=len(step)).density(step) == 0.0

    def test_step_beyond_the_float_range_leaves_its_batch_alone(self):
        # the short step sets the block's node count, which the far one must not move
        vj = VelocityJumpStep(rate=2.0, dim=2)
        steps = np.array([[1e-200, 0.0], [0.3, -0.4], [1e308, 1e308], [5.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = vj.density(steps)
        assert batch[2] == 0.0
        assert np.array_equal(batch[[0, 1, 3]], vj.density(steps[[0, 1, 3]]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_nan_step_has_density_nan(self, dim):
        # it once raised a bare ValueError from the node count of its block
        vj = VelocityJumpStep(rate=2.0, dim=dim)
        nan_step = np.zeros(dim)
        nan_step[-1] = math.nan
        steps = np.vstack([np.full(dim, 0.3), nan_step, np.full(dim, 1e-100), np.full(dim, 1e308), np.full(dim, 5.0)])
        finite = [0, 2, 3, 4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = vj.density(nan_step)
            batch = vj.density(steps)
            rest = vj.density(steps[finite])
        assert math.isnan(alone) and math.isnan(WienerStep(dt=1.0, dim=dim).density(nan_step))
        assert math.isnan(batch[1]) and batch[3] == 0.0
        assert np.array_equal(batch[finite], rest)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_step_density_does_not_depend_on_its_batch(self, dim):
        # 700 steps span three blocks; with every rate * |dx| >= 1e-12 each
        # block takes the same rule, so a step's value is its own
        rng = np.random.default_rng(1200 + dim)
        vj = VelocityJumpStep(rate=2.5, dim=dim)
        s = np.geomspace(1e-12, 1e3, 700)
        rng.shuffle(s)
        directions = rng.normal(size=(len(s), dim))
        steps = directions * (s / vj.rate / np.linalg.norm(directions, axis=1))[:, None]
        alone = [vj.density(step) for step in steps]
        assert np.array_equal(vj.density(steps), alone)

    def test_isotropy(self, rng):
        for n in (2, 3):
            vj = VelocityJumpStep(rate=1.3, dim=n)
            steps = rng.normal(size=(20, n))
            rotated = steps @ random_rotation(n, rng).T
            assert np.allclose(vj.density(steps), vj.density(rotated), rtol=1e-8)

    def test_sampler_density_ks(self):
        vj = VelocityJumpStep(rate=1.0, dim=1)
        kstest = pytest.importorskip("scipy.stats").kstest
        samples = vj.sample(np.random.default_rng(29), 10**5)[:, 0]
        result = kstest(samples, vjump_cdf_from_density(vj.density))
        assert result.pvalue > 0.001


class TestValidation:
    @pytest.mark.parametrize("law", [WienerStep(0.1, 2), VelocityJumpStep(1.0, 2)], ids=["wiener", "velocity-jump"])
    @pytest.mark.parametrize("size", [2.7, True, "3", -1, 3.0, None],
                             ids=["float", "bool", "str", "negative", "whole-float", "none"])
    def test_sample_size_must_be_a_non_negative_integer(self, law, size):
        with pytest.raises(InputError) as info:
            law.sample(np.random.default_rng(0), size)
        assert info.value.field == "size"

    @pytest.mark.parametrize("law", [WienerStep(0.1, 2), VelocityJumpStep(1.0, 2)], ids=["wiener", "velocity-jump"])
    def test_integer_sample_sizes_keep_working(self, law):
        rng = np.random.default_rng(0)
        assert law.sample(rng, 0).shape == (0, 2)
        assert law.sample(rng, np.int64(3)).shape == (3, 2)
        out = np.empty((4, 2))
        assert law.sample(rng, np.uint8(4), out=out) is out

    def test_import_leaves_out_scipy_stats_and_integrate(self):
        code = (
            "import sys, cellescape; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        src = str(Path(cellescape.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_parameter_checks(self):
        with pytest.raises(InputError):
            WienerStep(dt=0.0, dim=1)
        with pytest.raises(InputError):
            WienerStep(dt=1.0, dim=4)
        with pytest.raises(InputError):
            VelocityJumpStep(rate=-1.0, dim=1)

    def test_capability_flags(self):
        w = WienerStep(dt=1.0, dim=1)
        vj = VelocityJumpStep(rate=1.0, dim=1)
        assert w.has_density and w.has_sampler
        assert vj.has_density and vj.has_sampler

    def test_custom_law_capabilities(self):
        class SampleOnly(StepDistribution):
            dim = 2

            def sample(self, rng, size):
                return np.zeros((size, 2))

        law = SampleOnly()
        assert law.has_sampler and not law.has_density
        with pytest.raises(DensityUnavailable):
            law.density([0.0, 0.0])

        class DensityOnly(StepDistribution):
            dim = 1

            def density(self, steps):
                return np.ones(len(np.atleast_2d(steps)))

        other = DensityOnly()
        assert other.has_density and not other.has_sampler
        with pytest.raises(SamplerUnavailable):
            other.sample(np.random.default_rng(0), 10)


class TestConfig:
    def test_wiener_round_trip(self):
        dist = distribution_from_dict({"law": "wiener", "dt": 0.25}, dim=2)
        assert isinstance(dist, WienerStep)
        assert dist.dt == 0.25 and dist.dim == 2
        assert distribution_to_dict(dist) == {"law": "wiener", "dt": 0.25}

    def test_velocity_jump_round_trip(self):
        dist = distribution_from_dict({"law": "velocity_jump", "lambda": 2.0}, dim=1)
        assert isinstance(dist, VelocityJumpStep)
        assert dist.rate == 2.0
        assert distribution_to_dict(dist) == {"law": "velocity_jump", "lambda": 2.0}

    def test_field_errors(self):
        with pytest.raises(InputError, match="law"):
            distribution_from_dict({"dt": 1.0}, dim=1)
        with pytest.raises(InputError, match="dt"):
            distribution_from_dict({"law": "wiener"}, dim=1)
        with pytest.raises(InputError, match="lambda"):
            distribution_from_dict({"law": "velocity_jump"}, dim=1)
        with pytest.raises(InputError, match="law"):
            distribution_from_dict({"law": "levy"}, dim=1)
        with pytest.raises(InputError, match="dt"):
            distribution_from_dict({"law": "wiener", "dt": "fast"}, dim=1)
        with pytest.raises(InputError, match="'distribution'"):
            distribution_from_dict([], dim=1)

        class UserLaw(StepDistribution):
            dim = 1

        with pytest.raises(InputError, match="'law'"):
            distribution_to_dict(UserLaw())

    @pytest.mark.parametrize("value", [True, np.bool_(True), "0.1", None, [0.1]],
                             ids=["bool", "np.bool", "str", "none", "list"])
    @pytest.mark.parametrize("law, field", [(WienerStep, "dt"), (VelocityJumpStep, "lambda")])
    def test_parameter_must_be_a_real_number(self, law, field, value):
        # a bool is not taken as 1, and nothing else ends in a bare TypeError
        with pytest.raises(InputError) as info:
            law(value, 1)
        assert info.value.field == field

    @pytest.mark.parametrize("value", [True, "0.1"], ids=["bool", "str"])
    @pytest.mark.parametrize("law, field", [("wiener", "dt"), ("velocity_jump", "lambda")])
    def test_parameter_in_a_dict_is_not_converted(self, law, field, value):
        # a JSON true is not the number 1, nor is a JSON string a number
        with pytest.raises(InputError) as info:
            distribution_from_dict({"law": law, field: value}, dim=1)
        assert info.value.field == field

    @pytest.mark.parametrize("dim", [None, "three", 4])
    def test_bad_dim_names_dim(self, dim):
        # the parameter is fine; only the dimension is at fault
        with pytest.raises(InputError) as info:
            distribution_from_dict({"law": "wiener", "dt": 1}, dim=dim)
        assert info.value.field == "dim"

    @pytest.mark.parametrize("dim", [2.5, True, "2", np.int64(2)], ids=["float", "bool", "str", "np.int64"])
    @pytest.mark.parametrize("build", [
        lambda dim: WienerStep(dt=0.1, dim=dim),
        lambda dim: VelocityJumpStep(rate=1.0, dim=dim),
        lambda dim: distribution_from_dict({"law": "wiener", "dt": 0.1}, dim=dim),
    ], ids=["wiener", "velocity_jump", "from_dict"])
    def test_dim_must_be_an_integer(self, build, dim):
        # an integer, numpy's too, is taken as it is; nothing else is rounded into one
        if isinstance(dim, np.integer):
            law = build(dim)
            assert law.dim == 2 and type(law.dim) is int
            return
        with pytest.raises(InputError) as info:
            build(dim)
        assert info.value.field == "dim"


class TestLawTable:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("law", [WienerStep(dt=0.3, dim=1), VelocityJumpStep(rate=2.5, dim=1)])
    def test_round_trip(self, law, dim):
        data = distribution_to_dict(law)
        rebuilt = distribution_from_dict(data, dim)
        assert type(rebuilt) is type(law) and rebuilt.dim == dim
        assert distribution_to_dict(rebuilt) == data

    @pytest.mark.parametrize("law", [[], {}, 1, None])
    def test_law_that_is_not_a_name(self, law):
        # an unhashable value must not reach a lookup in the law table
        with pytest.raises(InputError) as info:
            distribution_from_dict({"law": law, "dt": 1.0}, dim=1)
        assert info.value.field == "law"


class TestThreadSafety:
    def test_shared_law_returns_the_type_each_caller_asked_for(self):
        # one thread passes single steps and expects floats, the other
        # batches and expects arrays; a flag stored on the law mixes them up
        law = WienerStep(dt=1.0, dim=1)
        wrong = []

        def hammer(steps, expected):
            for _ in range(3000):
                if not isinstance(law.density(steps), expected):
                    wrong.append(expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(np.array([0.5]), float)),
                threading.Thread(target=hammer, args=(np.zeros((4, 1)), np.ndarray)),
                threading.Thread(target=hammer, args=(np.array([-0.5]), float)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
