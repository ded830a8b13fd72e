"""Stochastic estimators for escape and transition probabilities.

One step of the Markov process is simulated for N particles started
uniformly in the source cell; the estimate is the fraction of particles
that end up outside (escape) or inside the target (transition).  The value
is a multiple of 1/N -- quantized, but unbiased.

Particles are processed in chunks of ``_CHUNK``.  Chunk ``i`` of run ``r``
of seed ``s`` draws from its own SFC64 stream, seeded by
``SeedSequence(s, spawn_key=(i, r))``, which hashes the whole key into the
generator's state, so distinct ``(seed, chunk, run)`` keys draw from
unrelated streams and no run of one seed repeats a run of another.  Chunk
results are exact integer counts, so the estimate is a deterministic
function of the configuration and independent of how many workers process
the chunks.

One call makes one pass for all its runs: the maps, the workspaces and
the thread pool are made once.  Worker ``g`` of ``W`` draws, maps and tests
the chunks ``g, g + W, ...`` of every run in place, in one workspace sized
for one chunk: a buffer that takes the uniforms and then the law's steps,
the reference points and the landing points as coordinate columns, and
a mask that takes the landing points' finiteness check and then the
containment test.  A chunk then allocates nothing of its size apart from
the temporaries of a law's ``sample`` and of the maps, so the heap is not
trimmed and refilled chunk after chunk.  A law whose ``sample`` takes
no ``out`` draws into its own array, which is used as it is.  No workspace
outlives its call.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import _check_law, _sample_takes_out
from .errors import DimensionMismatch, InputError, TooFewRuns, _integer, _real
from .geometry import AffineMap, MeshElement, _check_element, _reference_contains, _sample_reference
from .quadrature import ProbabilityEstimate

__all__ = [
    "McConfig",
    "escape_probability_mc",
    "transition_probability_mc",
    "repeat_escape_probability_mc",
    "theoretical_stat_error",
    "empirical_stat_error",
]

# Particles per independent random stream.  It is part of the
# reproducibility contract: changing it changes the streams and therefore
# every estimate.
_CHUNK = 2**16


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run configuration.

    ``seed`` is any integer in ``[0, 2**64)``.  Chunk ``i`` of run ``r`` of
    :func:`repeat_escape_probability_mc` draws from
    ``SFC64(SeedSequence(seed, spawn_key=(i, r)))``, so run 0 is the
    single-call estimate and no run of one seed repeats a run of another.
    """

    particles: int = 10**6
    seed: int = 0
    runs: int = 10

    def __post_init__(self):
        # numpy's integers become int
        for name, minimum, limit in (("particles", 1, None), ("seed", 0, 2**64), ("runs", 1, None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum, limit))


def _chunk_stream(seed: int, index: int, run: int) -> np.random.Generator:
    """SFC64 seeded by ``SeedSequence(seed, spawn_key=(chunk index, run))``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(index, run))))


def _landing_estimates(source, target, dist, config, workers, complement, runs) -> list[ProbabilityEstimate]:
    """Fraction of particles started in ``source`` that land in ``target``, per run.

    With ``complement`` it is the fraction that does not land there.  The
    error estimate is the binomial standard deviation at the value.  Run 0's
    wall time also covers the setup that the runs share.  Steps of the
    wrong shape, or that are not finite or too large to map, raise
    ``DimensionMismatch`` naming ``law``.
    """
    config = config or McConfig()
    workers = _integer("workers", workers, 1)
    _check_law(dist, source.dim, sampler=True)
    if source.dim != target.dim:
        raise DimensionMismatch("target", f"source dimension {source.dim} != target dimension {target.dim}")
    start = time.perf_counter()
    src_map = source.affine_map
    tgt_map = target.affine_map
    # A particle at source-reference point xi that takes the global step d
    # lands at target-reference point M xi + T^-1 d + c, where the columns
    # of M are the source's edges and c its first vertex, both in target
    # coordinates.  For escape M is the identity and c is 0.  Both maps are
    # composed from the elements' own matrices, inverses and determinants:
    # no determinant or inverse is computed again, which on an element of
    # tiny edges would overflow.
    step_map = AffineMap(tgt_map.inverse, tgt_map.to_local(src_map.offset), tgt_map.matrix, 1.0 / tgt_map.abs_det)
    reference_map = None if source is target else AffineMap(
        tgt_map.local_step(src_map.matrix.T).T, np.zeros(source.dim),
        src_map.local_step(tgt_map.matrix.T).T, src_map.abs_det / tgt_map.abs_det,
    )

    n = source.dim
    takes_out = _sample_takes_out(dist)
    chunks = -(-config.particles // _CHUNK)
    size = min(_CHUNK, config.particles)
    workers = min(workers, chunks)
    # One workspace per worker: the uniforms and then the steps, the
    # reference points, the landing points, and a mask for their finiteness
    # and then for the containment test.  They are made in this thread, so
    # they share its heap: made in the worker threads, which glibc serves
    # from heaps of their own, they raised the benchmark's peak RSS by 4-7 MB.
    workspaces = [
        (np.empty(size * n), np.empty((n, size)), np.empty((n, size)), np.empty(size, dtype=bool))
        for _ in range(workers)
    ]

    def count_landed(run: int, worker: int) -> int:
        """Particles of the chunks ``worker, worker + workers, ...`` of ``run`` that land in the target."""
        draws, points, landing, mask = workspaces[worker]
        landed = 0
        for index in range(worker, chunks, workers):
            m = min(_CHUNK, config.particles - index * _CHUNK)
            rng = _chunk_stream(config.seed, index, run)
            raw = draws[:m * n]
            xi = _sample_reference(source.kind, rng, m, out=points[:, :m].T, draws=raw.reshape(m, n))
            steps = dist.sample(rng, m, out=raw.reshape(m, n)) if takes_out else dist.sample(rng, m)
            if np.shape(steps) != (m, n):
                raise DimensionMismatch("law", f"sampled steps of shape {np.shape(steps)}, expected {(m, n)}")
            with np.errstate(invalid="ignore", over="ignore"):  # refused below
                local = step_map.to_global(steps, out=landing[:, :m].T)
            if reference_map is None:
                local += xi
            else:  # the steps are mapped, so their buffer is free again
                local += reference_map.to_global(xi, out=raw.reshape(n, m).T)
            # A step with a NaN or infinite component lands at a point with no
            # finite coordinate, which would count as outside the target: one
            # coordinate column finds every such step.
            if not np.isfinite(local[:, 0], out=mask[:m]).all():
                raise DimensionMismatch("law", "sampled non-finite steps, or steps too large to map")
            landed += int(np.count_nonzero(_reference_contains(target.kind, local, out=mask[:m])))
        return landed

    estimates = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # One worker counts in this thread; a pool that is given no task
        # starts no thread.
        map_workers = map if workers == 1 else pool.map
        for run in range(runs):
            landed = sum(map_workers(count_landed, [run] * workers, range(workers)))
            successes = config.particles - landed if complement else landed
            value = successes / config.particles
            bound = None
            if successes == 0 or successes == config.particles:
                # Binomial sigma degenerates at the extremes; report the one-sided
                # 95% Clopper-Pearson distance instead.
                bound = 1.0 - 0.05 ** (1.0 / config.particles)
            estimates.append(ProbabilityEstimate(
                value=value,
                error_estimate=theoretical_stat_error(value, config.particles),
                method="monte_carlo",
                cost=config.particles,
                wall_time=time.perf_counter() - start,
                error_bound_95=bound,
            ))
            start = time.perf_counter()
    return estimates


def escape_probability_mc(
    element: MeshElement, dist, config: McConfig | None = None, workers: int = 1
) -> ProbabilityEstimate:
    """Estimate the escape probability with N independent particles.

    Each particle starts uniformly inside the element, takes one sampled
    step, and counts as escaped when its new position is not inside
    (boundary-inclusive containment): the complement of the element's
    self-transition count.
    """
    _check_element("element", element)
    return _landing_estimates(element, element, dist, config, workers, complement=True, runs=1)[0]


def transition_probability_mc(
    source: MeshElement, target: MeshElement, dist, config: McConfig | None = None, workers: int = 1
) -> ProbabilityEstimate:
    """Estimate the probability of moving from ``source`` into ``target``."""
    _check_element("source", source)
    _check_element("target", target)
    return _landing_estimates(source, target, dist, config, workers, complement=False, runs=1)[0]


def repeat_escape_probability_mc(
    element: MeshElement, dist, config: McConfig | None = None, workers: int = 1
) -> list[ProbabilityEstimate]:
    """Run the escape estimator ``config.runs`` times with independent streams.

    Run ``r`` keeps ``config.seed`` and draws chunk ``i`` from
    ``SFC64(SeedSequence(config.seed, spawn_key=(i, r)))``, so the first
    entry reproduces a single :func:`escape_probability_mc` call with the
    same config.
    """
    _check_element("element", element)
    config = config or McConfig()
    return _landing_estimates(element, element, dist, config, workers, complement=True, runs=config.runs)


def theoretical_stat_error(p: float, n: int) -> float:
    """Binomial standard deviation ``sqrt(p (1 - p) / n)``.

    ``p`` must be a number in ``[0, 1]`` and ``n`` an integer of at least
    1; ``InputError`` names the one that is not.
    """
    if _real("p", p, positive=False) > 1.0:
        raise InputError("p", f"expected a number in [0, 1], got {p!r}")
    return math.sqrt(p * (1.0 - p) / _integer("n", n, 1))


def empirical_stat_error(estimates) -> float:
    """Sample standard deviation (divisor N - 1) of repeated run values."""
    values = np.asarray(estimates, dtype=float)
    if values.size < 2:
        raise TooFewRuns("need at least 2 run values for an empirical error")
    return float(np.std(values, ddof=1))
