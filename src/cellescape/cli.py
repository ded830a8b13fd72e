"""Command-line front end.

Subcommands:

* ``escape``     -- escape probability of one cell, deterministic and/or MC.
* ``transition`` -- cell-to-cell transition probability (deterministic in
  1D, Monte Carlo in any dimension).
* ``bench``      -- the full benchmark grid with pass/fail marks.

Exit codes, one table for every command:

* 0 success; 1 ``bench`` only, when some grid cell fails its check.
* 2 malformed input: an ``InputError``, with ``error: field '...': ...``
  on stderr and no traceback.  That covers a bad geometry or law, an
  unreadable input file, an ``--output`` file that cannot be written
  (checked before any solve), and a ``--tol`` (named ``abs_tol``),
  ``--particles``, ``--seed``, ``--runs`` or ``--workers`` value the
  configs reject.
* 3 solver failure, with a partial report: ``ToleranceNotMet`` keeps the
  best deterministic value (``--method both`` still runs Monte Carlo), any
  other library error is reported as ``solver_failure``.
* 4 unsupported method: deterministic transition outside 1D.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .bench import MC_SIGMA_FACTOR, render_benchmark, run_benchmark
from .distributions import distribution_from_dict, distribution_to_dict
from .errors import CellEscapeError, InputError, ToleranceNotMet, _integer
from .geometry import _read_json, element_from_dict, element_to_dict
from .montecarlo import (
    McConfig,
    empirical_stat_error,
    repeat_escape_probability_mc,
    theoretical_stat_error,
    transition_probability_mc,
)
from .quadrature import (
    QuadratureConfig,
    escape_probability_det,
    transition_probability_det_1d,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_SOLVER_FAILURE = 3
EXIT_UNSUPPORTED = 4


def _provenance(seed: int | None) -> dict:
    return {
        "tool": "cellescape",
        "version": __version__,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


class _Unsupported(Exception):
    """The requested method does not support the given geometry."""


def _load_inputs(args, options: tuple[str, ...]):
    elements = [element_from_dict(_read_json(getattr(args, option), option)) for option in options]
    if len({e.dim for e in elements}) != 1:
        raise InputError("vertices", "geometry files have different dimensions")
    dist = distribution_from_dict(_read_json(args.distribution, "distribution"), dim=elements[0].dim)
    return elements, dist


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=args.tol, rel_tol=0.0)


def _check_flags(args) -> tuple[QuadratureConfig, McConfig]:
    """The solver configs of the flags, checked with the ``--output`` file before any work.

    The output check opens the file for appending, so a file that did not
    exist is created empty.  A bad flag raises ``InputError``.
    """
    quad_config = _quad_config(args)
    _integer("workers", args.workers, 1)
    mc_config = McConfig(particles=args.particles, seed=args.seed, runs=args.runs)
    if args.output:
        try:
            with open(args.output, "a"):
                pass
        except OSError as exc:
            raise InputError(
                "output", f"cannot write the --output file {args.output}: {exc.strerror or exc}"
            ) from None
    return quad_config, mc_config


def _reject(exc: Exception, code: int = EXIT_BAD_INPUT) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _emit(data: dict, args) -> None:
    text = json.dumps(data, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _solve_and_report(args, options: tuple[str, ...], solve_det, solve_mc) -> int:
    """Load the inputs, build the configs, run the requested solves, emit the report.

    ``options`` name the geometry files.  ``solve_det(*elements, dist,
    config)`` returns a ``ProbabilityEstimate`` and ``solve_mc`` with the
    same arguments a result dict.  Every exception is mapped to its exit
    code here, by the table in the module docstring.
    """
    try:
        quad_config, mc_config = _check_flags(args)
    except InputError as exc:
        return _reject(exc)
    results: dict = {}
    status = "ok"
    code = EXIT_OK
    try:
        elements, dist = _load_inputs(args, options)
        request = {option: element_to_dict(e) for option, e in zip(options, elements)}
        request.update(
            distribution=distribution_to_dict(dist),
            method=args.method,
            tol=args.tol,
            particles=args.particles,
            seed=args.seed,
            runs=args.runs,
        )
        if args.method in ("det", "both"):
            try:
                results["deterministic"] = solve_det(*elements, dist, quad_config).to_dict()
            except ToleranceNotMet as exc:
                results["deterministic"] = {
                    "value": exc.value,
                    "error_estimate": exc.error_estimate,
                    "method": "deterministic",
                }
                status = f"tolerance_not_met: {exc}"
                code = EXIT_SOLVER_FAILURE
        if args.method in ("mc", "both"):
            results["monte_carlo"] = solve_mc(*elements, dist, mc_config)
    except _Unsupported as exc:
        return _reject(exc, EXIT_UNSUPPORTED)
    except InputError as exc:
        return _reject(exc)
    except CellEscapeError as exc:
        status = f"solver_failure: {exc}"
        code = EXIT_SOLVER_FAILURE
    if code == EXIT_OK and args.method == "both":
        det_v = results["deterministic"]["value"]
        mc_v = results["monte_carlo"]["value"]
        four_sigma = MC_SIGMA_FACTOR * theoretical_stat_error(det_v, args.particles)
        results["comparison"] = {
            "difference": mc_v - det_v,
            "four_sigma": four_sigma,
            "within_four_sigma": abs(mc_v - det_v) <= four_sigma,
        }

    _emit({
        "command": args.command,
        "request": request,
        "results": results,
        "provenance": _provenance(args.seed),
        "status": status,
    }, args)
    return code


def cmd_escape(args) -> int:
    def solve_mc(element, dist, config) -> dict:
        estimates = repeat_escape_probability_mc(element, dist, config, workers=args.workers)
        result = estimates[0].to_dict()
        if len(estimates) > 1:
            result["run_values"] = [e.value for e in estimates]
            result["empirical_error"] = empirical_stat_error(result["run_values"])
        return result

    return _solve_and_report(args, ("geometry",), escape_probability_det, solve_mc)


def _segment_interval(element) -> tuple[float, float]:
    values = sorted(float(v[0]) for v in element.vertices)
    return values[0], values[-1]


def cmd_transition(args) -> int:
    def solve_det(source, target, dist, config):
        if source.dim != 1:
            raise _Unsupported("deterministic transition supported in 1D only")
        return transition_probability_det_1d(
            _segment_interval(source), _segment_interval(target), dist, config
        )

    return _solve_and_report(
        args,
        ("source", "target"),
        solve_det,
        lambda source, target, dist, config: transition_probability_mc(
            source, target, dist, config, workers=args.workers
        ).to_dict(),
    )


def cmd_bench(args) -> int:
    try:
        quad_config, mc_config = _check_flags(args)
    except InputError as exc:
        return _reject(exc)
    artifact = run_benchmark(quad_config, mc_config, workers=args.workers)
    _emit(artifact, args)
    print(render_benchmark(artifact), file=sys.stdout if args.output else sys.stderr)
    return EXIT_OK if artifact["summary"]["failed"] == 0 else 1


def _add_common(parser, with_runs=False):
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="absolute tolerance of the deterministic solver "
                             "(no relative tolerance is applied)")
    parser.add_argument("--particles", type=int, default=10**6,
                        help="Monte Carlo particle count")
    parser.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads for Monte Carlo chunks")
    parser.add_argument("--output", help="write the JSON report to this file")
    if with_runs:
        parser.add_argument("--runs", type=int, default=1,
                            help="MC repetitions for the empirical error")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellescape",
        description="Escape and transition probabilities of one Markov step on mesh cells.",
    )
    parser.add_argument("--version", action="version", version=f"cellescape {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_escape = sub.add_parser("escape", help="escape probability of a cell")
    p_escape.add_argument("--geometry", required=True, help="geometry JSON file")
    p_escape.add_argument("--distribution", required=True, help="distribution JSON file")
    p_escape.add_argument("--method", choices=["det", "mc", "both"], default="both")
    _add_common(p_escape, with_runs=True)
    p_escape.set_defaults(func=cmd_escape)

    p_trans = sub.add_parser("transition", help="transition probability between two cells")
    p_trans.add_argument("--source", required=True, help="source geometry JSON file")
    p_trans.add_argument("--target", required=True, help="target geometry JSON file")
    p_trans.add_argument("--distribution", required=True, help="distribution JSON file")
    p_trans.add_argument("--method", choices=["det", "mc"], default="det")
    _add_common(p_trans)
    p_trans.set_defaults(func=cmd_transition, runs=1)

    p_bench = sub.add_parser("bench", help="run the full benchmark grid")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench, runs=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
