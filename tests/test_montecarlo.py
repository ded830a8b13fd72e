import math
import sys

import numpy as np
import pytest

from cellescape import (
    DimensionMismatch,
    InputError,
    McConfig,
    SamplerUnavailable,
    StepDistribution,
    TooFewRuns,
    VelocityJumpStep,
    WienerStep,
    empirical_stat_error,
    escape_probability_det,
    escape_probability_mc,
    mesh_element,
    repeat_escape_probability_mc,
    theoretical_stat_error,
    transition_probability_det_1d,
    transition_probability_mc,
)


class ConstantStep(StepDistribution):
    """Test law: every step equals a fixed vector."""

    def __init__(self, step):
        self.step = np.asarray(step, dtype=float)
        self.dim = self.step.size

    def sample(self, rng, size):
        return np.tile(self.step, (int(size), 1))


class TestEscapeMc:
    def test_zero_step_never_escapes(self, benchmark_elements):
        est = escape_probability_mc(
            benchmark_elements["triangle"], ConstantStep([0.0, 0.0]),
            McConfig(particles=20000, seed=1),
        )
        assert est.value == 0.0
        assert est.error_estimate == 0.0
        assert est.error_bound_95 is not None and est.error_bound_95 > 0.0

    def test_full_edge_step_always_escapes(self):
        square = mesh_element("parallelogram", [[0, 0], [1, 0], [0, 1]])
        est = escape_probability_mc(
            square, ConstantStep([2.0, 0.0]), McConfig(particles=20000, seed=1)
        )
        assert est.value == 1.0
        assert est.error_bound_95 is not None

    def test_benchmark_parallelepiped(self, benchmark_elements):
        est = escape_probability_mc(
            benchmark_elements["parallelepiped"], WienerStep(dt=1.0, dim=3),
            McConfig(particles=10**6, seed=20240801),
        )
        assert abs(est.value - 0.7864) <= 4.0 * 4.1e-4
        assert est.method == "monte_carlo"
        assert est.cost == 10**6

    def test_quantization(self, benchmark_elements, rng):
        n = 12345
        est = escape_probability_mc(
            benchmark_elements["segment"], WienerStep(dt=1.0, dim=1),
            McConfig(particles=n, seed=3),
        )
        assert abs(est.value * n - round(est.value * n)) < 1e-9

    def test_sampler_required(self, benchmark_elements):
        class DensityOnly(StepDistribution):
            dim = 1

            def density(self, steps):
                return np.ones(len(np.atleast_2d(steps)))

        with pytest.raises(SamplerUnavailable):
            escape_probability_mc(benchmark_elements["segment"], DensityOnly())

    def test_dimension_mismatch(self, benchmark_elements):
        with pytest.raises(DimensionMismatch):
            escape_probability_mc(benchmark_elements["segment"], WienerStep(dt=1.0, dim=2))

    def test_unbiased_over_many_seeds(self, benchmark_elements):
        seg = benchmark_elements["segment"]
        dist = WienerStep(dt=1.0, dim=1)
        det = escape_probability_det(seg, dist).value
        n_seeds, n_particles = 200, 10**4
        values = [
            escape_probability_mc(seg, dist, McConfig(particles=n_particles, seed=s)).value
            for s in range(n_seeds)
        ]
        tolerance = 4.0 * math.sqrt(det * (1 - det) / (n_seeds * n_particles))
        assert abs(np.mean(values) - det) < tolerance


class TestDeterminism:
    def test_same_config_same_value(self, benchmark_elements):
        tet = benchmark_elements["tetrahedron"]
        dist = WienerStep(dt=0.1, dim=3)
        config = McConfig(particles=200001, seed=99)
        values = {
            escape_probability_mc(tet, dist, config, workers=w).value for w in (1, 2, 8)
        }
        assert len(values) == 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=seed, runs=1)

    @pytest.mark.parametrize("field, value", [
        ("particles", 1e5), ("particles", True), ("runs", 2.0), ("seed", 1.5), ("seed", 1.9),
    ])
    def test_config_integers_are_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            McConfig(**{field: value})

    def test_numpy_integers_are_integers(self, benchmark_elements):
        seg = benchmark_elements["segment"]
        dist = WienerStep(dt=1.0, dim=1)
        config = McConfig(particles=np.int64(1000), seed=np.uint64(7), runs=np.int32(2))
        assert config == McConfig(particles=1000, seed=7, runs=2)
        assert type(config.particles) is int and type(config.seed) is int
        runs = repeat_escape_probability_mc(seg, dist, config, workers=np.int64(2))
        assert [r.value for r in runs] == [
            r.value for r in repeat_escape_probability_mc(seg, dist, McConfig(particles=1000, seed=7, runs=2))
        ]

    def test_every_run_seed_must_fit_in_uint64(self, benchmark_elements):
        assert McConfig(seed=2**64 - 3, runs=3).seed == 2**64 - 3
        # runs are told apart by the stream counter, not the seed, so the
        # largest seed runs any number of repeats
        config = McConfig(particles=1000, seed=2**64 - 1, runs=10)
        runs = repeat_escape_probability_mc(benchmark_elements["segment"], WienerStep(dt=1.0, dim=1), config)
        assert len(runs) == 10 and len({r.value for r in runs}) > 1

    def test_repeated_runs_do_not_alias_other_seeds(self, benchmark_elements):
        seg = benchmark_elements["segment"]
        dist = WienerStep(dt=1.0, dim=1)
        run_1 = repeat_escape_probability_mc(seg, dist, McConfig(particles=10**5, seed=7, runs=2))[1]
        next_seed = escape_probability_mc(seg, dist, McConfig(particles=10**5, seed=8))
        assert run_1.value != next_seed.value

    # Exact counts of 1e5-particle estimates: (Wiener dt=0.1 at seeds 0 and
    # 2**63, velocity-jump rate 1 at seeds 0 and 2**63) per benchmark cell.
    # They are part of the reproducibility contract: a rewrite of the
    # sampling or containment kernel must leave every one of them unchanged.
    # The triangle and tetrahedron counts are those of the sorted-spacings
    # reference sampler; each lies within 1.1 sigma of the deterministic value.
    PINNED_ESCAPES = {
        "segment": (12674, 12484, 31897, 31953),
        "triangle": (40851, 40752, 61194, 61188),
        "parallelogram": (24879, 24683, 49283, 49050),
        "tetrahedron": (74303, 74475, 80486, 80437),
        "parallelepiped": (35423, 35076, 59166, 59345),
    }
    # Wiener dt=0.1 transition [0,1] -> [1,2] at seeds 0 and 2**63
    PINNED_TRANSITIONS = (12542, 12610)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", list(PINNED_ESCAPES))
    def test_pinned_escape_values(self, benchmark_elements, kind, workers):
        element = benchmark_elements[kind]
        laws = (WienerStep(dt=0.1, dim=element.dim), VelocityJumpStep(rate=1.0, dim=element.dim))
        n = 10**5
        values = [
            escape_probability_mc(element, law, McConfig(particles=n, seed=seed), workers=workers).value
            for law in laws for seed in (0, 2**63)
        ]
        assert values == [count / n for count in self.PINNED_ESCAPES[kind]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_transition_values(self, workers):
        src = mesh_element("segment", [[0.0], [1.0]])
        tgt = mesh_element("segment", [[1.0], [2.0]])
        n = 10**5
        values = [
            transition_probability_mc(
                src, tgt, WienerStep(dt=0.1, dim=1), McConfig(particles=n, seed=seed), workers=workers
            ).value
            for seed in (0, 2**63)
        ]
        assert values == [count / n for count in self.PINNED_TRANSITIONS]

    # Exact counts at seeds 5 and 2**63 + 5, for a run of three chunks with a
    # ragged last one and for a run shorter than one chunk: the tetrahedron
    # escape under (Wiener dt=0.1, velocity-jump rate 1) and the transition
    # [0,1] -> [1,2] under the same two laws in 1D.  Each worker reuses one
    # workspace for all its chunks, so these pin the reuse, at worker counts
    # that do and do not divide the chunk count.
    PINNED_PARTIAL_CHUNKS = {
        2 * 2**16 + 3001: ((99515, 99766, 107751, 108108), (16910, 16736, 21022, 21173)),
        1000: ((754, 753, 800, 786), (131, 135, 160, 161)),
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", list(PINNED_PARTIAL_CHUNKS))
    def test_pinned_partial_chunks(self, benchmark_elements, n, workers):
        tet = benchmark_elements["tetrahedron"]
        src = mesh_element("segment", [[0.0], [1.0]])
        tgt = mesh_element("segment", [[1.0], [2.0]])
        seeds = (5, 2**63 + 5)
        escapes = [
            escape_probability_mc(tet, law, McConfig(particles=n, seed=seed), workers=workers).value
            for law in (WienerStep(dt=0.1, dim=3), VelocityJumpStep(rate=1.0, dim=3)) for seed in seeds
        ]
        transitions = [
            transition_probability_mc(src, tgt, law, McConfig(particles=n, seed=seed), workers=workers).value
            for law in (WienerStep(dt=0.1, dim=1), VelocityJumpStep(rate=1.0, dim=1)) for seed in seeds
        ]
        pinned_escapes, pinned_transitions = self.PINNED_PARTIAL_CHUNKS[n]
        assert escapes == [count / n for count in pinned_escapes]
        assert transitions == [count / n for count in pinned_transitions]

    # Exact counts of Wiener dt=0.1 transitions from a benchmark cell into a
    # neighbour across one of its faces, 2**16 + 3001 particles at seeds 5
    # and 2**63 + 5: the path that maps the source's reference points into
    # the target's, in 2D and 3D.
    PINNED_NEIGHBOUR_TRANSITIONS = {
        "triangle": ([[2, 0], [3, 2], [4, 0]], (7107, 7013)),
        "tetrahedron": ([[2, 0, 0], [3, 2, 0], [1, 1, 1], [3, 0, 1]], (7899, 7905)),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", list(PINNED_NEIGHBOUR_TRANSITIONS))
    def test_pinned_neighbour_transitions(self, benchmark_elements, kind, workers):
        source = benchmark_elements[kind]
        vertices, counts = self.PINNED_NEIGHBOUR_TRANSITIONS[kind]
        target = mesh_element(kind, vertices)
        n = 2**16 + 3001
        values = [
            transition_probability_mc(
                source, target, WienerStep(dt=0.1, dim=source.dim), McConfig(particles=n, seed=seed), workers=workers
            ).value
            for seed in (5, 2**63 + 5)
        ]
        assert values == [count / n for count in counts]

    def test_distinct_seeds_differ(self, benchmark_elements):
        seg = benchmark_elements["segment"]
        dist = WienerStep(dt=1.0, dim=1)
        a = escape_probability_mc(seg, dist, McConfig(particles=10**5, seed=0))
        b = escape_probability_mc(seg, dist, McConfig(particles=10**5, seed=1))
        assert a.value != b.value


class TestOnePassPerCall:
    """Every run of a repeat shares one set of checks, maps, workspaces and pool."""

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_repeat_matches_one_worker_run_by_run(self, benchmark_elements, workers):
        # five workers outnumber the cores of a small host, and with threads
        # switched often a workspace used by two tasks at once would change a count
        tri = benchmark_elements["triangle"]
        dist = WienerStep(dt=0.1, dim=2)
        config = McConfig(particles=4 * 2**16 + 123, seed=2**63 + 11, runs=3)
        serial = repeat_escape_probability_mc(tri, dist, config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = repeat_escape_probability_mc(tri, dist, config, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert [r.value.hex() for r in parallel] == [r.value.hex() for r in serial]
        assert len({r.value for r in serial}) == 3

    def test_repeat_builds_maps_and_pool_once(self, benchmark_elements, monkeypatch):
        import cellescape.montecarlo as montecarlo

        maps, pools = [], []
        build = montecarlo.build_affine_map

        class CountedPool(montecarlo.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "build_affine_map", lambda element: maps.append(element) or build(element))
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", CountedPool)
        config = McConfig(particles=2 * 2**16 + 5, seed=3, runs=3)
        runs = repeat_escape_probability_mc(benchmark_elements["segment"], WienerStep(dt=1.0, dim=1), config, workers=2)
        assert len(runs) == 3
        assert len(maps) == 2
        assert len(pools) == 1


class PlainWiener(StepDistribution):
    """A user law written without ``out``: Wiener steps by the same draws."""

    def __init__(self, dt, dim):
        self.dt = dt
        self.dim = dim

    def sample(self, rng, size):
        return math.sqrt(self.dt) * rng.standard_normal((size, self.dim))


class KeywordWiener(PlainWiener):
    """A user law that takes ``**options`` and ignores them, ``out`` included."""

    def sample(self, rng, size, **options):
        return super().sample(rng, size)


class TestUserLawWithoutOut:
    @pytest.mark.parametrize("law_type", [PlainWiener, KeywordWiener])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_returned_steps_are_used(self, benchmark_elements, law_type, workers):
        # the estimator maps whatever array the law returns
        tet = benchmark_elements["tetrahedron"]
        src = mesh_element("segment", [[0.0], [1.0]])
        tgt = mesh_element("segment", [[1.0], [2.0]])
        config = McConfig(particles=2**16 + 777, seed=21)
        for solve, dim in (
            (lambda law: escape_probability_mc(tet, law, config, workers=workers), 3),
            (lambda law: transition_probability_mc(src, tgt, law, config, workers=workers), 1),
        ):
            assert solve(law_type(0.1, dim)).value == solve(WienerStep(dt=0.1, dim=dim)).value


class WrongWidth(StepDistribution):
    """A user law of dimension ``dim`` whose ``sample`` returns steps of shape ``(size,) + shape``."""

    def __init__(self, dim, shape):
        self.dim = dim
        self.shape = shape

    def sample(self, rng, size):
        return rng.standard_normal((size,) + self.shape)


class TestUserLawOfWrongWidth:
    @pytest.mark.parametrize("dim, shape", [(2, (1,)), (2, (3,)), (1, ())], ids=["2d-m1", "2d-m3", "1d-flat"])
    @pytest.mark.parametrize("solver", ["escape", "transition"])
    def test_steps_of_the_wrong_width_raise(self, benchmark_elements, dim, shape, solver):
        # a (m, 1) step on a triangle used to be mapped as if its second column were 0
        element = benchmark_elements["segment" if dim == 1 else "triangle"]
        config = McConfig(particles=10**4, seed=1)
        law = WrongWidth(dim, shape)
        with pytest.raises(DimensionMismatch):
            if solver == "escape":
                escape_probability_mc(element, law, config)
            else:
                neighbour = mesh_element(element.kind, element.vertices + 1.0)
                transition_probability_mc(element, neighbour, law, config)


class WrongCount(StepDistribution):
    """A 2D user law whose ``sample`` returns ``extra`` rows more than asked for."""

    dim = 2

    def __init__(self, extra):
        self.extra = extra

    def sample(self, rng, size):
        return rng.standard_normal((size + self.extra, 2))


class TestUserLawOfWrongCount:
    @pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-over"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_steps_of_the_wrong_count_name_the_shapes(self, benchmark_elements, extra, workers):
        # one row short used to end in a bare numpy broadcast ValueError
        config = McConfig(particles=10**4, seed=1)
        with pytest.raises(DimensionMismatch, match=rf"\({10**4 + extra}, 2\).*\({10**4}, 2\)"):
            escape_probability_mc(benchmark_elements["triangle"], WrongCount(extra), config, workers=workers)


class NonFiniteStep(StepDistribution):
    """A user law whose ``sample`` returns Gaussian steps with one entry replaced by ``bad``.

    The bad entry sits in the last row of every sample, in coordinate ``dim - 1``.
    """

    def __init__(self, dim, bad):
        self.dim = dim
        self.bad = bad

    def sample(self, rng, size, out=None):
        steps = rng.standard_normal((size, self.dim), out=out)
        steps[-1, -1] = self.bad
        return steps


class TestUserLawOfNonFiniteSteps:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["segment", "triangle", "tetrahedron"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_steps_raise(self, benchmark_elements, bad, kind, workers):
        # an all-NaN law on the triangle used to report escape 1.0 +- 0
        element = benchmark_elements[kind]
        law = NonFiniteStep(element.dim, bad)
        config = McConfig(particles=2 * 2**16 + 3, seed=1)
        with pytest.raises(DimensionMismatch, match="non-finite"):
            escape_probability_mc(element, law, config, workers=workers)
        neighbour = mesh_element(element.kind, element.vertices + 1.0)
        with pytest.raises(DimensionMismatch, match="non-finite"):
            transition_probability_mc(element, neighbour, law, config, workers=workers)

    def test_steps_that_overflow_the_map_are_refused(self):
        # 1e308 on a segment of length 1e-3 lands at 1e311 in reference coordinates
        segment = mesh_element("segment", [[0.0], [1e-3]])
        with pytest.raises(DimensionMismatch, match="too large to map"):
            escape_probability_mc(segment, NonFiniteStep(1, 1e308), McConfig(particles=10**4, seed=1))

    def test_all_nan_law_is_refused(self, benchmark_elements):
        class AllNan(StepDistribution):
            dim = 2

            def sample(self, rng, size):
                return np.full((size, 2), np.nan)

        with pytest.raises(DimensionMismatch, match="non-finite"):
            escape_probability_mc(benchmark_elements["triangle"], AllNan(), McConfig(particles=10**4, seed=1))


class TestTransitionMc:
    def test_zero_step_stays_in_source(self, benchmark_elements):
        tri = benchmark_elements["triangle"]
        est = transition_probability_mc(
            tri, tri, ConstantStep([0.0, 0.0]), McConfig(particles=10000, seed=2)
        )
        assert est.value == 1.0

    def test_adjacent_intervals_match_deterministic(self):
        src = mesh_element("segment", [[0.0], [1.0]])
        tgt = mesh_element("segment", [[1.0], [2.0]])
        dist = WienerStep(dt=1.0, dim=1)
        det = transition_probability_det_1d((0, 1), (1, 2), dist)
        mc = transition_probability_mc(src, tgt, dist, McConfig(particles=10**6, seed=7))
        sigma = theoretical_stat_error(det.value, 10**6)
        assert abs(mc.value - det.value) <= 4.0 * sigma

    def test_far_cells_zero(self, benchmark_elements):
        tet = benchmark_elements["tetrahedron"]
        far = mesh_element(
            "tetrahedron", benchmark_elements["tetrahedron"].vertices[:4] + 100.0
        )
        est = transition_probability_mc(
            tet, far, WienerStep(dt=1e-4, dim=3), McConfig(particles=10**6, seed=11)
        )
        assert est.value == 0.0

    @pytest.mark.parametrize(
        "kind", ["segment", "triangle", "parallelogram", "tetrahedron", "parallelepiped"]
    )
    def test_escape_count_is_particles_minus_self_transitions(self, benchmark_elements, kind):
        element = benchmark_elements[kind]
        dist = WienerStep(dt=0.1, dim=element.dim)
        # three chunks of 2**16 particles, the last one ragged
        config = McConfig(particles=2 * 2**16 + 3001, seed=13, runs=1)
        escaped = escape_probability_mc(element, dist, config).value * config.particles
        stayed = transition_probability_mc(element, element, dist, config).value * config.particles
        assert round(escaped) == config.particles - round(stayed)

    def test_dimension_mismatch(self, benchmark_elements):
        with pytest.raises(DimensionMismatch):
            transition_probability_mc(
                benchmark_elements["segment"], benchmark_elements["triangle"],
                WienerStep(dt=1.0, dim=1),
            )

    @pytest.mark.parametrize("solve, argument", [
        (lambda segment, interval, law: escape_probability_det(interval, law), "element"),
        (lambda segment, interval, law: escape_probability_mc(interval, law), "element"),
        (lambda segment, interval, law: transition_probability_mc(interval, segment, law), "source"),
        (lambda segment, interval, law: transition_probability_mc(segment, interval, law), "target"),
    ], ids=["det-element", "mc-element", "mc-source", "mc-target"])
    def test_interval_tuple_is_not_an_element(self, solve, argument):
        segment = mesh_element("segment", [[0.0], [1.0]])
        with pytest.raises(InputError) as info:
            solve(segment, (0.0, 1.0), WienerStep(dt=0.1, dim=1))
        assert info.value.field == argument

    @pytest.mark.parametrize("workers", [0, -2, 1.5, True])
    @pytest.mark.parametrize("solve", [
        lambda segment, law, workers: escape_probability_mc(segment, law, workers=workers),
        lambda segment, law, workers: repeat_escape_probability_mc(segment, law, workers=workers),
        lambda segment, law, workers: transition_probability_mc(segment, segment, law, workers=workers),
    ], ids=["escape", "repeat", "transition"])
    def test_workers_below_one_rejected(self, solve, workers):
        segment = mesh_element("segment", [[0.0], [1.0]])
        with pytest.raises(InputError) as info:
            solve(segment, WienerStep(dt=0.1, dim=1), workers)
        assert info.value.field == "workers"


class TestErrorFormulas:
    def test_reference_case(self):
        # sqrt(0.3905 * 0.6095 / 1e6): prints as 4.9e-4 at two significant digits
        value = theoretical_stat_error(0.3905, 10**6)
        assert value == pytest.approx(4.879e-4, abs=5e-7)
        assert float(f"{value:.1e}") == 4.9e-4

    def test_degenerate_p(self):
        assert theoretical_stat_error(0.0, 123) == 0.0
        assert theoretical_stat_error(1.0, 123) == 0.0

    def test_small_n(self):
        assert theoretical_stat_error(0.5, 4) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_stat_error(1.5, 10)
        with pytest.raises(ValueError):
            theoretical_stat_error(0.5, 0)

    def test_empirical_identical_values(self):
        assert empirical_stat_error([0.3, 0.3, 0.3]) == 0.0

    def test_empirical_two_point(self):
        assert empirical_stat_error([0.0, 1.0]) == pytest.approx(math.sqrt(0.5))

    def test_empirical_needs_two(self):
        with pytest.raises(TooFewRuns):
            empirical_stat_error([0.5])

    def test_empirical_matches_theoretical_scale(self, benchmark_elements):
        # 10 runs of the dt=1 segment case: a 10-sample std of a binomial
        # proportion should land within a factor 3 of sqrt(p(1-p)/N)
        seg = benchmark_elements["segment"]
        dist = WienerStep(dt=1.0, dim=1)
        config = McConfig(particles=10**6, seed=123, runs=10)
        estimates = repeat_escape_probability_mc(seg, dist, config)
        empirical = empirical_stat_error([e.value for e in estimates])
        theoretical = theoretical_stat_error(0.3905, 10**6)
        assert theoretical / 3.0 < empirical < 3.0 * theoretical

    def test_repeat_first_run_matches_single(self, benchmark_elements):
        seg = benchmark_elements["segment"]
        dist = WienerStep(dt=1.0, dim=1)
        config = McConfig(particles=10**5, seed=42, runs=3)
        repeated = repeat_escape_probability_mc(seg, dist, config)
        single = escape_probability_mc(seg, dist, McConfig(particles=10**5, seed=42))
        assert repeated[0].value == single.value
        assert len(repeated) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(particles=0)
        with pytest.raises(ValueError):
            McConfig(runs=0)
