"""Run one benchmark workload against the library in ``src/`` and report metrics.

    python3 perfbench/run.py --workload det-wiener-grid --seed 1 --seconds 48 --trace 0

Run it from the repository root.  It imports ``cellescape`` from ``src/``
beside this directory, and exits with code 2 when that is not there.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: the wall
time of one pass over the workload's fixed timed solves, each solve scaled to
the host's reference speed and taken at its fastest repeat in the run, the
median set-up time of a fresh interpreter, scaled likewise, and peak memory.
``--trace 1`` alternates untraced passes with traced passes (one-worker
solves only) and reports the per-layer metrics, including the tracing
overhead. Every answer is checked in both modes. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the environment and (when
traced) every span, goes to ``perfbench/out/``. Exit code 1 means that some
answer was wrong.
METRICS.md says what each metric measures and which layer moves it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
# A shared host's CPU speed drifts by up to 2x over minutes, for every
# process on it.  Untraced passes time a fixed speed probe before each solve
# and after the last one, and so does the set-up measurement around each
# fresh interpreter; a timing is scaled by PROBE_REFERENCE_S over the mean of
# the two probes around it.  PROBE_REFERENCE_S is the probe's typical time
# on a 2-vCPU Xeon, so scaled times read as seconds there.
PROBE_POINTS = 500_000
PROBE_QUADS = 160
PROBE_REFERENCE_S = 0.009
KINDS = ("segment", "triangle", "parallelogram", "tetrahedron", "parallelepiped")
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter imports the library and builds the workload's inputs.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1')"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at a tiny size (the harness self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_library() -> bool:
    """Import ``cellescape`` from ``src/``, never from an installed copy."""
    package = SRC / "cellescape"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from a checkout of the repository", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import cellescape

    if Path(cellescape.__file__).resolve().parent != package.resolve():
        print(f"error: imported cellescape from {cellescape.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


def environment() -> dict:
    """Versions, cores, CPU model and the BLAS thread setting as found."""
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": build.get("blas", {}).get("name", "unknown"),
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARIABLES},
    }


def measure_setup(args) -> tuple[float, float]:
    """Median wall time of fresh interpreters importing and building inputs.

    Returns the median of the times scaled like a solve's, from the speed
    probes around each interpreter, and the median of the unscaled times.
    """
    command = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
               args.workload, str(args.seed), "1" if args.tiny else "0"]
    scaled, unscaled = [], []
    before = speed_probe()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=120, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        after = speed_probe()
        scaled.append(scale(seconds, before, after))
        unscaled.append(seconds)
        before = after
    return statistics.median(scaled), statistics.median(unscaled)


@functools.cache
def probe_arrays():
    """The probe's input and two work arrays, allocated once: a fresh 4 MB
    array costs page faults, whose price depends on the process's heap."""
    import numpy as np

    x = np.linspace(0.0, 1.0, PROBE_POINTS)
    return x, np.empty_like(x), np.empty_like(x)


def speed_probe() -> float:
    """Seconds of a fixed piece of work, the faster of two tries.

    It does the two kinds of work the solvers do, without calling them:
    numpy arithmetic on a 4 MB array, and scipy quadrature of a Python
    integrand.  Each kind slows in its own way when the host is busy, so the
    probe needs both to follow the solves.
    """
    import numpy as np
    from scipy import integrate

    x, y, z = probe_arrays()
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        np.multiply(x, x, out=y)
        np.negative(y, out=y)
        np.exp(y, out=y)
        np.sqrt(x, out=z)
        np.multiply(y, z, out=y)
        y.sum()
        for k in range(PROBE_QUADS):
            integrate.quad(lambda t, w=k % 8: math.exp(-t * t) * math.cos(w * t), 0.0, 1.0 + k % 8)
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the speed probes around it."""
    return seconds * 2.0 * PROBE_REFERENCE_S / (before + after)


def run_pass(ops, tracer=None) -> dict:
    """Solve and check every op once; an op that fails is recorded, not raised.

    Untraced, each record also holds ``scaled_s``: its time at the reference
    speed, from the speed probes before and after it.
    """
    first_span = len(tracer.spans) if tracer else 0
    records = []
    probes = []
    done = {}
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is None:
            probes.append(speed_probe())
        est = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                est = op.solve()
            else:
                root = "quadrature.solve" if op.solver == "det" else "montecarlo.solve"
                with tracer.span(root, solve_id=index):
                    est = op.solve()
            seconds = time.perf_counter() - t0
            failure = op.check(est, done)
        except Exception as exc:  # a solve that raises is a failed op; the pass goes on
            seconds = time.perf_counter() - t0
            failure = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        done[op.name] = est
        records.append({
            "op": op.name,
            "seconds": seconds,
            "value": None if est is None else est.value,
            "error_estimate": None if est is None else est.error_estimate,
            "cost": None if est is None else est.cost,
            "failure": failure,
        })
    wall = time.perf_counter() - start
    if tracer is None:
        probes.append(speed_probe())
        for record, before, after in zip(records, probes, probes[1:]):
            record["scaled_s"] = scale(record["seconds"], before, after)
    spans = [first_span, len(tracer.spans)] if tracer else None
    return {"traced": tracer is not None, "wall_s": wall, "spans": spans, "ops": records}


def run_passes(ops, seconds: int, tracer=None) -> list[dict]:
    """Repeat passes until the next one would end after ``seconds``.

    Untraced, the first pass runs all ops and later passes leave out the ops
    that are not timed.  Traced, untraced and traced passes alternate, at
    least one of each, every untraced pass runs all ops, and the traced ones
    run the one-worker ops only.
    """
    single = [op for op in ops if op.workers == 1]
    timed = ops if tracer is not None else [op for op in ops if op.timed]
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            with tracer.installed():
                passes.append(run_pass(single, tracer))
        else:
            passes.append(run_pass(timed if passes else ops))
        if tracer is not None and len(passes) < 2:
            continue
        longest = max(p["wall_s"] for p in passes[1:] or passes)
        if time.perf_counter() - start + longest > seconds:
            return passes


def seconds_of(p: dict, name: str) -> float:
    return next(r["seconds"] for r in p["ops"] if r["op"] == name)


def median_over(passes, fn) -> float:
    return statistics.median(fn(p) for p in passes)


def best_pass_s(ops, passes, key="scaled_s") -> float:
    """Sum over the timed ops of each op's fastest time in any pass."""
    return sum(min(r[key] for p in passes for r in p["ops"] if r["op"] == op.name)
               for op in ops if op.timed)


def mc_metrics(ops, untraced) -> dict:
    """Monte Carlo throughput per cell kind at one worker, and at two workers."""
    particles = {op.name: op.particles for op in ops}
    out = {}
    for kind in KINDS:
        one, two = f"mc/wiener/{kind}/w1", f"mc/wiener/{kind}/w2"
        out[f"montecarlo.particles_per_s.{kind}"] = (
            median_over(untraced, lambda p: particles[one] / seconds_of(p, one))
            if one in particles else 0.0)
        out[f"montecarlo.speedup_2w.{kind}"] = (
            median_over(untraced, lambda p: seconds_of(p, one) / seconds_of(p, two))
            if two in particles else 0.0)
    cells = [f"mc/wiener/{kind}/w2" for kind in KINDS if f"mc/wiener/{kind}/w2" in particles]
    out["montecarlo.particles_per_s.workers2"] = median_over(
        untraced,
        lambda p: sum(particles[n] for n in cells) / sum(seconds_of(p, n) for n in cells),
    ) if cells else 0.0
    return out


def layer_metrics(ops, passes, tracer) -> dict:
    """Per-layer self times (median over traced passes) and exact counts."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    summaries = [tracer.summary(*p["spans"]) for p in traced]
    last = summaries[-1]

    def self_s(name):
        return median_over(summaries, lambda s: s.get(name, {}).get("self_s", 0.0))

    def calls(name):
        return last.get(name, {}).get("calls", 0)

    single = [op for op in ops if op.workers == 1]
    det_ids = {i for i, op in enumerate(single) if op.solver == "det"}
    first, end = traced[-1]["spans"]
    batches = sum(1 for row in tracer.spans[first:end]
                  if row[0] == "distributions.density" and row[4] in det_ids)
    evals = dict.fromkeys(KINDS + ("transition",), 0)
    for op, record in zip(single, traced[-1]["ops"]):
        if op.solver == "det":
            evals[op.kind] += record["cost"] or 0
    density_s = self_s("distributions.density")
    points = last.get("distributions.density", {}).get("points", 0)
    one_worker = {op.name for op in single}
    untraced_single = median_over(untraced, lambda p: sum(
        r["seconds"] for r in p["ops"] if r["op"] in one_worker))
    traced_single = median_over(traced, lambda p: sum(r["seconds"] for r in p["ops"]))
    return {
        "quadrature.evals": sum(evals.values()),
        **{f"quadrature.evals.{kind}": n for kind, n in evals.items()},
        "quadrature.batches": batches,
        "quadrature.self_s": self_s("quadrature.solve"),
        "conditional.stay_fraction.s": self_s("conditional.stay_fraction"),
        "conditional.transition_1d.s": self_s("conditional.transition_1d"),
        "distributions.density.s": density_s,
        "distributions.density.points": points,
        "distributions.density.points_per_s": points / density_s if density_s else 0.0,
        "distributions.sample.s": self_s("distributions.sample"),
        "geometry.sample_reference.s": self_s("geometry.sample_reference"),
        "geometry.affine.s": self_s("geometry.affine"),
        "geometry.contains.s": self_s("geometry.contains"),
        "montecarlo.self_s": self_s("montecarlo.solve") + self_s("montecarlo.chunk_stream"),
        "montecarlo.chunks": calls("montecarlo.chunk_stream"),
        **mc_metrics(ops, untraced),
        "trace.overhead_pct": 100.0 * (traced_single / untraced_single - 1.0),
        "trace.spans": end - first,
        "trace.missing_layers": len(tracer.missing_layers),
    }


def check_pinned(workload, ops, traced: dict, tracer, metrics) -> int:
    """Print each pinned exact count beside this run's; return how many differ."""
    single = [op for op in ops if op.workers == 1]
    first, end = traced["spans"]
    measured = {"quadrature.evals": metrics["quadrature.evals"]}
    for index, (op, record) in enumerate(zip(single, traced["ops"])):
        measured[f"evals:{op.name}"] = record["cost"]
        measured[f"chunks:{op.name}"] = sum(
            1 for row in tracer.spans[first:end]
            if row[0] == "montecarlo.chunk_stream" and row[4] == index)
    pinned = json.loads((HERE / "pinned_counts.json").read_text())[workload]
    differ = 0
    for name, expected in pinned.items():
        got = measured.get(name)
        differ += got != expected
        print(f"pinned {name}: expected {expected}, measured {got}: "
              f"{'match' if got == expected else 'differs'}")
    return differ


def unit_of(name: str) -> str:
    if "_per_s" in name:
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if ".speedup_" in name:
        return "x"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_library():
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env))
    ops = workloads.build(args.workload, args.seed, args.tiny)
    setup_s, setup_unscaled_s = (None, None) if args.trace else measure_setup(args)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        for name in tracer.missing:
            print(f"trace: {name} not found")
        for layer in tracer.missing_layers:
            print(f"trace: layer {layer}: missing")
    passes = run_passes(ops, args.seconds, tracer)

    failures = [(r["op"], r["failure"]) for p in passes for r in p["ops"] if r["failure"]]
    attempted = sum(len(p["ops"]) for p in passes)
    for p in passes:
        bad = sum(1 for r in p["ops"] if r["failure"])
        print(f"pass ({'traced' if p['traced'] else 'untraced'}): {p['wall_s']:.3f} s, "
              f"{len(p['ops'])} ops, {bad} failed")
    for name, reason in failures:
        print(f"FAIL {name}: {reason}")

    untraced = [p for p in passes if not p["traced"]]
    if tracer is None:
        metrics = {
            "wall_s": best_pass_s(ops, untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        shown = {**metrics, "wall_unscaled_s": best_pass_s(ops, untraced, "seconds"),
                 "setup_unscaled_s": setup_unscaled_s,
                 **mc_metrics(ops, untraced)}
    else:
        metrics = layer_metrics(ops, passes, tracer)
        traced = [p for p in passes if p["traced"]][-1]
        metrics["pinned.mismatches"] = (
            0 if args.tiny else check_pinned(args.workload, ops, traced, tracer, metrics))
        shown = metrics
    for name, value in shown.items():
        print(f"metric {name} = {value:.6g} {unit_of(name)}")
    print(f"ops = {attempted}, ops_failed = {len(failures)}, passes = {len(passes)}")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    record = {"args": vars(args), "env": env, "metrics": shown, "passes": passes}
    if tracer is not None:
        record["missing"] = tracer.missing
        record["layers"] = tracer.summary()
        record["spans"] = tracer.spans
    (OUT / f"{tag}.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
