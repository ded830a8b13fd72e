"""Record the benchmark's reference values into ``references.json``.

Each value is solved deterministically at a tolerance 100x tighter than the
benchmark's own solve of it, and cross-checked against a Monte Carlo
estimate of 10^7 particles at 4 sigma.  The script exits with code 1, and
writes nothing, when a cross-check fails.

Run it from the repository root, once, when the reference data must be
recorded again (it takes about a minute):

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cellescape as ce  # noqa: E402
from cellescape import bench  # noqa: E402

MC_PARTICLES = 10**7
MC_SEED = 20261017
SIGMA_FACTOR = 4.0
# 100x tighter than the default QuadratureConfig and than the 2D solve's 1e-2.
TIGHT = ce.QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
TIGHT_2D = ce.QuadratureConfig(abs_tol=1e-4, rel_tol=0.0)


def record(det, mc) -> dict:
    """Solve ``det()`` and check it against ``mc(config)`` at 4 sigma."""
    exact = det()
    estimate = mc(ce.McConfig(particles=MC_PARTICLES, seed=MC_SEED))
    sigma = math.sqrt(exact.value * (1.0 - exact.value) / MC_PARTICLES)
    distance = abs(estimate.value - exact.value)
    return {
        "value": exact.value,
        "error_estimate": exact.error_estimate,
        "evals": exact.cost,
        "mc_value": estimate.value,
        "mc_particles": MC_PARTICLES,
        "mc_sigmas": distance / sigma,
        "mc_within_4_sigma": distance <= SIGMA_FACTOR * sigma + exact.error_estimate,
    }


def main() -> int:
    unit = ce.mesh_element("segment", [[0.0], [1.0]])
    segment = bench.BENCHMARK_ELEMENTS["segment"]
    parallelogram = bench.BENCHMARK_ELEMENTS["parallelogram"]
    vj1 = ce.VelocityJumpStep(rate=1.0, dim=1)
    vj2 = ce.VelocityJumpStep(rate=1.0, dim=2)
    w1 = ce.WienerStep(dt=0.1, dim=1)

    vj = {
        "segment": record(
            lambda: ce.escape_probability_det(segment, vj1, TIGHT),
            lambda cfg: ce.escape_probability_mc(segment, vj1, cfg),
        ),
        "segment[0,1]": record(
            lambda: ce.escape_probability_det(unit, vj1, TIGHT),
            lambda cfg: ce.escape_probability_mc(unit, vj1, cfg),
        ),
    }
    for k in range(-3, 4):
        target = ce.mesh_element("segment", [[float(k)], [k + 1.0]])
        vj[f"T[0,1]->[{k},{k + 1}]"] = record(
            lambda: ce.transition_probability_det_1d((0.0, 1.0), (k, k + 1.0), vj1, TIGHT),
            lambda cfg: ce.transition_probability_mc(unit, target, vj1, cfg),
        )
    vj["parallelogram"] = record(
        lambda: ce.escape_probability_det(parallelogram, vj2, TIGHT_2D),
        lambda cfg: ce.escape_probability_mc(parallelogram, vj2, cfg),
    )
    next_cell = ce.mesh_element("segment", [[1.0], [2.0]])
    wiener = {
        "T[0,1]->[1,2]": record(
            lambda: ce.transition_probability_det_1d((0.0, 1.0), (1.0, 2.0), w1, TIGHT),
            lambda cfg: ce.transition_probability_mc(unit, next_cell, w1, cfg),
        ),
    }

    out = {
        "about": (
            "Deterministic values at 100x the benchmark's tolerance, each "
            "cross-checked against a 1e7-particle Monte Carlo estimate. "
            "velocity_jump: rate 1; wiener: dt 0.1. Written by record_references.py."
        ),
        "abs_rel_tol": {"1d": [TIGHT.abs_tol, TIGHT.rel_tol],
                        "parallelogram": [TIGHT_2D.abs_tol, TIGHT_2D.rel_tol]},
        "velocity_jump": vj,
        "wiener": wiener,
    }
    failed = [
        f"{law}/{name}"
        for law in ("velocity_jump", "wiener")
        for name, entry in out[law].items()
        if not entry["mc_within_4_sigma"]
    ]
    print(json.dumps(out, indent=2))
    if failed:
        print("cross-check failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    (HERE / "references.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
