"""Inputs and answer checks of the benchmark workloads.

``build(workload, seed, tiny)`` returns the workload's fixed list of
operations.  One operation is one solve through the public API, paired with
a check of its answer.  The seed drives the Monte Carlo streams only: the
deterministic inputs are fixed by the reference data.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cellescape as ce
from cellescape import bench

WORKLOADS = ("det-wiener-grid", "velocity-jump-and-mc")

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())

# Monte Carlo answers must lie within this many binomial sigmas of the
# deterministic reference.
SIGMA_FACTOR = 4.0
# Half a unit in the last place of the 4-decimal REFERENCE_DET values.
REFERENCE_DET_ROUNDING = 5e-5
MC_DT = 0.1
MC_PARTICLES = 10**6
MC_PARTICLES_TINY = 10**4
VJ_RATE = 1.0
# The 2D velocity-jump solve runs at a loose tolerance; it still takes 4-8 s
# on a shared 2-vCPU Xeon whose speed changes up to 2x every few seconds, so
# one solve spans several speed phases and no repeat of it times steadily.
# It is checked in every run and traced, but not timed.
VJ_2D_CONFIG = ce.QuadratureConfig(abs_tol=1e-2, rel_tol=0.0)
TRANSITION_TARGETS = range(-3, 4)

MC_CELLS = ("segment", "triangle", "parallelogram", "tetrahedron", "parallelepiped")


@dataclass(frozen=True)
class Op:
    """One solve and the check of its answer.

    ``check(estimate, done)`` returns ``None`` when the answer is right, or
    the reason it is wrong; ``done`` maps the names of the operations that
    ran earlier in the same pass to their estimates.  An untraced run
    solves and checks an operation that is not ``timed`` in its first pass
    only, and leaves it out of the wall time.
    """

    name: str
    solver: str  # "det" or "mc"
    kind: str  # element kind, or "transition" for a 1D transition solve
    workers: int
    particles: int
    solve: Callable[[], ce.ProbabilityEstimate]
    check: Callable[[ce.ProbabilityEstimate, dict], str | None]
    timed: bool = True


def mc_workers() -> tuple[int, ...]:
    """Worker counts of the Monte Carlo solves.

    Two workers run only where the estimators still take a ``workers``
    argument and the machine has two cores for them.
    """
    takes_workers = "workers" in inspect.signature(ce.escape_probability_mc).parameters
    return (1, 2) if takes_workers and len(os.sched_getaffinity(0)) >= 2 else (1,)


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    if workload == "det-wiener-grid":
        return _wiener_grid(tiny)
    if workload == "velocity-jump-and-mc":
        return _velocity_jump(tiny) + _mc_escape(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _within(tolerance: float, reference: float) -> Callable:
    def check(est, done):
        if abs(est.value - reference) <= tolerance:
            return None
        return f"value {est.value:.6f} is {abs(est.value - reference):.2e} from {reference:.6f} (allowed {tolerance:.2e})"

    return check


def _within_own_error(reference: float) -> Callable:
    """Pass when the solver's own error estimate covers the reference."""

    def check(est, done):
        return _within(est.error_estimate, reference)(est, done)

    return check


def _wiener_grid(tiny: bool) -> list[Op]:
    ops = []
    for name, element in bench.BENCHMARK_ELEMENTS.items():
        for j, dt in enumerate(bench.DT_GRID):
            if tiny and dt < 10.0:
                continue
            dist = ce.WienerStep(dt=dt, dim=element.dim)
            ops.append(Op(
                name=f"wiener/{name}/dt={dt:g}",
                solver="det",
                kind=name,
                workers=1,
                particles=0,
                solve=lambda element=element, dist=dist: ce.escape_probability_det(element, dist),
                check=_within(bench.DET_TOLERANCE, bench.REFERENCE_DET[name][j]),
            ))
    return ops


def _transition_name(k: int) -> str:
    return f"vj/T[0,1]->[{k},{k + 1}]"


def _velocity_jump(tiny: bool) -> list[Op]:
    refs = REFERENCES["velocity_jump"]
    law_1d = ce.VelocityJumpStep(rate=VJ_RATE, dim=1)
    law_2d = ce.VelocityJumpStep(rate=VJ_RATE, dim=2)
    segment = bench.BENCHMARK_ELEMENTS["segment"]
    unit_segment = ce.mesh_element("segment", [[0.0], [1.0]])

    def escape_is_one_minus_self_transition(est, done):
        wrong = _within_own_error(refs["segment[0,1]"]["value"])(est, done)
        if wrong:
            return wrong
        stay = done.get(_transition_name(0))
        if stay is None:
            return "the self-transition it is checked against did not run"
        tolerance = est.error_estimate + stay.error_estimate
        if abs(1.0 - stay.value - est.value) > tolerance:
            return (f"1 - T([0,1]->[0,1]) = {1.0 - stay.value:.9f} differs from the "
                    f"escape {est.value:.9f} by more than {tolerance:.2e}")
        return None

    ops = [] if tiny else [Op(
        name="vj/segment",
        solver="det",
        kind="segment",
        workers=1,
        particles=0,
        solve=lambda: ce.escape_probability_det(segment, law_1d),
        check=_within_own_error(refs["segment"]["value"]),
    )]
    for k in TRANSITION_TARGETS:
        ops.append(Op(
            name=_transition_name(k),
            solver="det",
            kind="transition",
            workers=1,
            particles=0,
            solve=lambda k=k: ce.transition_probability_det_1d((0.0, 1.0), (k, k + 1.0), law_1d),
            check=_within_own_error(refs[f"T[0,1]->[{k},{k + 1}]"]["value"]),
        ))
    ops.append(Op(
        name="vj/segment[0,1]",
        solver="det",
        kind="segment",
        workers=1,
        particles=0,
        solve=lambda: ce.escape_probability_det(unit_segment, law_1d),
        check=escape_is_one_minus_self_transition,
    ))
    if not tiny:
        parallelogram = bench.BENCHMARK_ELEMENTS["parallelogram"]
        ops.append(Op(
            name="vj/parallelogram",
            solver="det",
            kind="parallelogram",
            workers=1,
            particles=0,
            solve=lambda: ce.escape_probability_det(parallelogram, law_2d, VJ_2D_CONFIG),
            check=_within_own_error(refs["parallelogram"]["value"]),
            timed=False,
        ))
    return ops


def _mc_escape(seed: int, tiny: bool) -> list[Op]:
    """Five Wiener cells, velocity-jump segment escape, Wiener 1D transition.

    Each solve runs at every worker count; a solve at two workers must give
    the bit-identical value of the same solve at one worker.
    """
    particles = MC_PARTICLES_TINY if tiny else MC_PARTICLES
    j = bench.DT_GRID.index(MC_DT)
    cases = []  # (label, kind, solve(config, workers), reference, reference error)
    for name in MC_CELLS:
        element = bench.BENCHMARK_ELEMENTS[name]
        dist = ce.WienerStep(dt=MC_DT, dim=element.dim)
        cases.append((
            f"wiener/{name}", name,
            lambda cfg, w, element=element, dist=dist: ce.escape_probability_mc(element, dist, cfg, **_workers_kw(w)),
            bench.REFERENCE_DET[name][j], REFERENCE_DET_ROUNDING,
        ))
    vj = REFERENCES["velocity_jump"]["segment"]
    segment = bench.BENCHMARK_ELEMENTS["segment"]
    law = ce.VelocityJumpStep(rate=VJ_RATE, dim=1)
    cases.append((
        "vj/segment", "segment",
        lambda cfg, w: ce.escape_probability_mc(segment, law, cfg, **_workers_kw(w)),
        vj["value"], vj["error_estimate"],
    ))
    tr = REFERENCES["wiener"]["T[0,1]->[1,2]"]
    source = ce.mesh_element("segment", [[0.0], [1.0]])
    target = ce.mesh_element("segment", [[1.0], [2.0]])
    wiener_1d = ce.WienerStep(dt=MC_DT, dim=1)
    cases.append((
        "wiener/T[0,1]->[1,2]", "transition",
        lambda cfg, w: ce.transition_probability_mc(source, target, wiener_1d, cfg, **_workers_kw(w)),
        tr["value"], tr["error_estimate"],
    ))

    seeds = np.random.SeedSequence(seed).generate_state(len(cases), dtype=np.uint64)
    ops = []
    for workers in mc_workers():
        for (label, kind, solve, reference, reference_error), case_seed in zip(cases, seeds):
            config = ce.McConfig(particles=particles, seed=int(case_seed))
            ops.append(Op(
                name=f"mc/{label}/w{workers}",
                solver="mc",
                kind=kind,
                workers=workers,
                particles=particles,
                solve=lambda solve=solve, config=config, workers=workers: solve(config, workers),
                check=_mc_check(label, reference, reference_error, particles, workers),
            ))
    return ops


def _workers_kw(workers: int) -> dict:
    return {} if workers == 1 else {"workers": workers}


def _mc_check(label, reference, reference_error, particles, workers) -> Callable:
    sigma = math.sqrt(reference * (1.0 - reference) / particles)
    within = _within(SIGMA_FACTOR * sigma + reference_error, reference)

    def check(est, done):
        wrong = within(est, done)
        if wrong or workers == 1:
            return wrong
        single = done.get(f"mc/{label}/w1")
        if single is None:
            return "the one-worker solve it must equal did not run"
        if est.value != single.value:
            return f"{workers} workers gave {est.value!r}, one worker gave {single.value!r}"
        return None

    return check
