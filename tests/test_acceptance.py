"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  The full suite is sized for a desktop machine; the
heaviest items are the voxel-count oracle (criterion 4) and the full
benchmark grid (criteria 1 and 2).
"""

import math
import time

import numpy as np
from scipy.stats import kstest

from cellescape import (
    McConfig,
    QuadratureConfig,
    ReferenceCell,
    VelocityJumpStep,
    WienerStep,
    build_affine_map,
    conditional_escape,
    escape_probability_det,
    escape_probability_mc,
    mesh_element,
    stay_fraction,
    theoretical_stat_error,
    transition_probability_det_1d,
    transition_probability_mc,
)
from cellescape.bench import BENCHMARK_ELEMENTS, DT_GRID, REFERENCE_DET

from conftest import random_element
from oracles import (
    overlap_box,
    overlap_interval,
    overlap_tetrahedron,
    overlap_triangle,
    segment_escape_wiener,
    transition_1d_trapezoid,
    vjump_cdf_from_density,
)

MC_SEED = 20240801


def record(criterion: int, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_deterministic_reference_grid():
    """All 30 (geometry, dt) cells within 5e-4 of the 4-decimal references."""
    start = time.perf_counter()
    worst = 0.0
    config = QuadratureConfig(abs_tol=1e-6)
    for name, element in BENCHMARK_ELEMENTS.items():
        for j, dt in enumerate(DT_GRID):
            est = escape_probability_det(element, WienerStep(dt=dt, dim=element.dim), config)
            worst = max(worst, abs(est.value - REFERENCE_DET[name][j]))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-4 and elapsed <= 1800.0
    record(1, ok, f"worst |det - ref| = {worst:.2e}, {elapsed:.0f}s of 1800s budget")


def test_criterion_2_monte_carlo_consistency():
    """|mc - det| <= 4 sigma in >= 28 of 30 cells at N = 1e6, fixed seed."""
    n = 10**6
    consistent = 0
    worst_ratio = 0.0
    for name, element in BENCHMARK_ELEMENTS.items():
        for dt in DT_GRID:
            dist = WienerStep(dt=dt, dim=element.dim)
            det = escape_probability_det(element, dist)
            mc = escape_probability_mc(element, dist, McConfig(particles=n, seed=MC_SEED))
            if det.value >= 0.9999:
                consistent += 1
                continue
            bound = 4.0 * theoretical_stat_error(det.value, n)
            if abs(mc.value - det.value) <= bound:
                consistent += 1
            worst_ratio = max(worst_ratio, abs(mc.value - det.value) / bound)
    record(2, consistent >= 28, f"{consistent}/30 cells consistent, worst |diff|/4sigma = {worst_ratio:.2f}")


def test_criterion_3_segment_closed_form():
    """Deterministic segment escape matches the analytic formula to 1e-8."""
    config = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    worst = 0.0
    for length in (0.5, 1.0, 2.0):
        segment = mesh_element("segment", [[0.0], [length]])
        for dt in (0.1, 1.0, 10.0):
            est = escape_probability_det(segment, WienerStep(dt=dt, dim=1), config)
            worst = max(worst, abs(est.value - segment_escape_wiener(length, dt)))
    anchor = round(segment_escape_wiener(2.0, 1.0), 4)
    record(3, worst <= 1e-8 and anchor == 0.3905,
           f"worst |det - closed form| = {worst:.2e}, closed form(l=2, dt=1) = {anchor}")


def test_criterion_4_overlap_grid_oracle():
    """Closed-form stay fractions match grid-count overlap oracles."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    n_steps = 10**4
    cases = [
        (ReferenceCell.INTERVAL, 10**6, lambda s, r: overlap_interval(s, r)),
        (ReferenceCell.SQUARE, 2000, overlap_box),
        (ReferenceCell.TRIANGLE, 2000, overlap_triangle),
        (ReferenceCell.CUBE, 400, overlap_box),
        (ReferenceCell.TETRAHEDRON, 400, overlap_tetrahedron),
    ]
    details = []
    ok = True
    for cell, res, oracle in cases:
        steps = rng.uniform(-1.3, 1.3, size=(n_steps, cell.dim))
        error = np.abs(stay_fraction(cell, steps) - oracle(steps, res)).max()
        bound = 2.0 * cell.dim / res
        ok &= error <= bound
        details.append(f"{cell.label} {error:.1e}<={bound:.1e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 600.0
    record(4, ok, "; ".join(details) + f"; {elapsed:.0f}s of 600s budget")


CONTINUITY_MANIFOLDS = {
    ReferenceCell.INTERVAL: [(1.0,)],
    ReferenceCell.SQUARE: [(1, 0), (0, 1)],
    ReferenceCell.TRIANGLE: [(1, 0), (0, 1), (1, 1)],
    ReferenceCell.CUBE: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    ReferenceCell.TETRAHEDRON: [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
    ],
}


def _continuity_jump(rng, points_per_manifold=250):
    """Largest stay-fraction jump across all case-boundary manifolds."""
    worst = 0.0
    count = 0
    eps = 5e-11
    for cell, normals in CONTINUITY_MANIFOLDS.items():
        for w in normals:
            w = np.asarray(w, dtype=float)
            unit = w / np.linalg.norm(w)
            for const in (0.0, -1.0, 1.0):
                base = rng.uniform(-1.2, 1.2, size=(points_per_manifold, cell.dim))
                base -= np.outer((base @ w + const) / (w @ w), w)
                lo = stay_fraction(cell, base - eps * unit)
                mid = stay_fraction(cell, base)
                hi = stay_fraction(cell, base + eps * unit)
                jump = max(
                    np.abs(hi - lo).max(), np.abs(mid - lo).max(), np.abs(hi - mid).max()
                )
                worst = max(worst, jump)
                count += len(base)
    return worst, count


def test_criterion_5_property_suite():
    rng = np.random.default_rng(505)
    details = []

    # stay-fraction symmetry under step negation, exact
    sym_ok = True
    for cell in CONTINUITY_MANIFOLDS:
        steps = rng.uniform(-2.0, 2.0, size=(20000, cell.dim))
        sym_ok &= bool(
            np.array_equal(stay_fraction(cell, steps), stay_fraction(cell, -steps))
        )
    details.append(f"symmetry exact: {sym_ok}")

    # ray monotonicity: 1e3 rays x 10 magnitudes
    mono_ok = True
    magnitudes = np.linspace(0.0, 1.8, 10)
    for cell in CONTINUITY_MANIFOLDS:
        directions = rng.normal(size=(200, cell.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        for v in directions:
            values = stay_fraction(cell, np.outer(magnitudes, v))
            mono_ok &= bool(np.all(np.diff(values) <= 1e-12))
    details.append(f"ray monotonicity: {mono_ok}")

    # continuity across case boundaries
    jump, n_pts = _continuity_jump(rng)
    continuity_ok = jump <= 1e-9 and n_pts >= 10**4
    details.append(f"continuity: max jump {jump:.1e} over {n_pts} boundary points")

    # escape probabilities always land in [0, 1]
    range_ok = True
    for kind in ("segment", "triangle", "parallelogram", "tetrahedron", "parallelepiped"):
        element = random_element(kind, rng, scale=2.0)
        steps = rng.normal(size=(2000, element.dim)) * 3.0
        escapes = np.array([conditional_escape(element, s) for s in steps[:50]])
        range_ok &= bool(np.all((escapes >= 0.0) & (escapes <= 1.0)))
        local = build_affine_map(element).local_step(steps)
        values = 1.0 - stay_fraction(element.reference_cell, local)
        range_ok &= bool(np.all((values >= 0.0) & (values <= 1.0)))
    details.append(f"escape in [0,1]: {range_ok}")

    # Brownian scale coupling on 100 random elements, within 2 abs_tol
    kinds = ["segment"] * 40 + ["triangle"] * 25 + ["parallelogram"] * 20 \
        + ["tetrahedron"] * 9 + ["parallelepiped"] * 6
    worst_scaling = 0.0
    for kind in kinds:
        element = random_element(kind, rng, scale=1.5)
        dt = float(rng.uniform(0.1, 2.0))
        factor = float(rng.uniform(0.5, 2.0))
        scaled = mesh_element(element.kind, element.vertices * factor)
        a = escape_probability_det(element, WienerStep(dt=dt, dim=element.dim))
        b = escape_probability_det(scaled, WienerStep(dt=dt * factor**2, dim=element.dim))
        worst_scaling = max(worst_scaling, abs(a.value - b.value))
    scaling_ok = worst_scaling <= 2e-6
    details.append(f"scale coupling: worst diff {worst_scaling:.1e} on {len(kinds)} elements")

    # translation invariance, within 2 abs_tol
    worst_shift = 0.0
    for kind in ("segment", "triangle", "parallelogram", "tetrahedron", "parallelepiped"):
        for _ in range(4):
            element = random_element(kind, rng, scale=1.5)
            shift = rng.normal(size=element.dim) * 25.0
            moved = mesh_element(element.kind, element.vertices + shift)
            dist = WienerStep(dt=float(rng.uniform(0.1, 2.0)), dim=element.dim)
            a = escape_probability_det(element, dist)
            b = escape_probability_det(moved, dist)
            worst_shift = max(worst_shift, abs(a.value - b.value))
    shift_ok = worst_shift <= 2e-6
    details.append(f"translation: worst diff {worst_shift:.1e}")

    ok = sym_ok and mono_ok and continuity_ok and range_ok and scaling_ok and shift_ok
    record(5, ok, "; ".join(details))


def test_criterion_6_mc_determinism_across_workers():
    seg = BENCHMARK_ELEMENTS["segment"]
    tet = BENCHMARK_ELEMENTS["tetrahedron"]
    config = McConfig(particles=333333, seed=MC_SEED)
    escape_values = {
        escape_probability_mc(seg, WienerStep(dt=1.0, dim=1), config, workers=w).value
        for w in (1, 2, 8)
    }
    escape_values_3d = {
        escape_probability_mc(tet, WienerStep(dt=0.1, dim=3), config, workers=w).value
        for w in (1, 2, 8)
    }
    src = mesh_element("segment", [[0.0], [1.0]])
    tgt = mesh_element("segment", [[1.0], [2.0]])
    transition_values = {
        transition_probability_mc(src, tgt, WienerStep(dt=1.0, dim=1), config, workers=w).value
        for w in (1, 2, 8)
    }
    ok = len(escape_values) == len(escape_values_3d) == len(transition_values) == 1
    record(6, ok, "escape 1D/3D and transition bit-identical for workers 1, 2, 8")


def test_criterion_7_transition_1d():
    src, tgt = (0.0, 1.0), (1.0, 2.0)
    src_el = mesh_element("segment", [[0.0], [1.0]])
    tgt_el = mesh_element("segment", [[1.0], [2.0]])
    worst_det = 0.0
    worst_mc = 0.0
    n = 10**6
    for dt in (0.1, 1.0, 10.0):
        dist = WienerStep(dt=dt, dim=1)
        det = transition_probability_det_1d(src, tgt, dist)
        oracle = transition_1d_trapezoid(src, tgt, dt)
        worst_det = max(worst_det, abs(det.value - oracle))
        mc = transition_probability_mc(src_el, tgt_el, dist, McConfig(particles=n, seed=MC_SEED))
        sigma = theoretical_stat_error(det.value, n)
        worst_mc = max(worst_mc, abs(mc.value - det.value) / (4.0 * sigma))
    ok = worst_det <= 1e-6 and worst_mc <= 1.0
    record(7, ok, f"worst |det - trapezoid| = {worst_det:.1e}, worst |mc - det|/4sigma = {worst_mc:.2f}")


def test_criterion_8_velocity_jump():
    # sampler-vs-density agreement at three rates
    pvalues = []
    for i, rate in enumerate((0.5, 1.0, 2.0)):
        vj = VelocityJumpStep(rate=rate, dim=1)
        samples = vj.sample(np.random.default_rng(808 + i), 10**5)[:, 0]
        cdf = vjump_cdf_from_density(vj.density, x_max=80.0 / rate)
        pvalues.append(kstest(samples, cdf).pvalue)
    ks_ok = all(p > 0.001 for p in pvalues)

    # deterministic and MC escape agree on the benchmark segment
    segment = BENCHMARK_ELEMENTS["segment"]
    vj = VelocityJumpStep(rate=1.0, dim=1)
    det = escape_probability_det(segment, vj)
    mc = escape_probability_mc(segment, vj, McConfig(particles=10**6, seed=MC_SEED))
    bound = 4.0 * theoretical_stat_error(det.value, 10**6)
    agree_ok = abs(mc.value - det.value) <= bound
    record(
        8,
        ks_ok and agree_ok,
        f"KS p-values {['%.3f' % p for p in pvalues]}, "
        f"|mc - det| = {abs(mc.value - det.value):.1e} <= {bound:.1e}",
    )
