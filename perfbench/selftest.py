"""Fast self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run passes its answer checks, that its result line and record file
match ``result.schema.json``, and that it reports exactly the metrics that
``BENCHMARK.json`` names, with their units.  It also checks that a traced
run reports a renamed layer as missing instead of failing, and that the
benchmark refuses to run without the library beside it.  Exits with code 1
on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

try:
    import jsonschema
except ImportError:
    sys.exit("selftest needs the jsonschema package")


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(workload: str, trace: int, schema: dict, expected: dict) -> None:
    seed = 7
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), "--tiny"])
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    jsonschema.validate(line, schema)
    if not line["correct"] or line["failed"]:
        raise AssertionError(f"answer checks failed:\n{proc.stdout}")
    units = {name: metric["unit"] for name, metric in line["metrics"].items()}
    if units != expected:
        raise AssertionError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(expected))} "
                             f"or units {[(n, u, expected.get(n)) for n, u in units.items() if expected.get(n) != u]}")
    record_file = HERE / "out" / f"{workload}-seed{seed}-trace{trace}-tiny.json"
    record_schema = {"$schema": schema["$schema"], "$defs": schema["$defs"], "$ref": "#/$defs/record"}
    jsonschema.validate(json.loads(record_file.read_text()), record_schema)


def check_missing_layer() -> None:
    """A traced run survives a renamed layer and names it as missing."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cellescape.montecarlo as montecarlo
    from tracing import Tracer

    original = montecarlo._sample_reference
    del montecarlo._sample_reference
    try:
        tracer = Tracer()
        with tracer.installed():
            pass
    finally:
        montecarlo._sample_reference = original
    if tracer.missing_layers != ["geometry.sample_reference"]:
        raise AssertionError(f"expected geometry.sample_reference missing, got {tracer.missing_layers}")
    if montecarlo._sample_reference is not original:
        raise AssertionError("the tracer did not restore a wrapped name")


def check_refuses_without_library() -> None:
    """With only BENCHMARK.json and perfbench/ present, the benchmark exits non-zero."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["perfbench/run.py", "--workload", "velocity-jump-and-mc", "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError(f"ran without the library: exit {proc.returncode}\n{proc.stdout}")


def main() -> int:
    schema = json.loads((HERE / "result.schema.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [
        (f"{workload} trace {trace}",
         lambda w=workload, t=trace: check_workload(
             w, t, schema, {m["name"]: m["unit"] for m in bench["per_layer" if t else "end_to_end"]}))
        for workload in (w["name"] for w in bench["workloads"])
        for trace in (0, 1)
    ]
    checks += [("missing layer", check_missing_layer),
               ("refuses without the library", check_refuses_without_library)]
    for name, check in checks:
        try:
            check()
        except (AssertionError, jsonschema.ValidationError) as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
