import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import cellescape
from cellescape import bench, theoretical_stat_error
from cellescape.cli import main

from oracles import segment_escape_wiener, transition_1d_trapezoid


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    # a segment whose kind is spelled with a Latin-1 byte, so not UTF-8
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "s\xe9gment", "vertices": [[0], [1]]}')
    # nested deeper than the JSON decoder recurses
    (tmp_path / "deep.json").write_text("[" * 3000)
    nested = [[0.0], [1.0]]
    for _ in range(70):
        nested = [nested]
    return {
        "segment": write("segment.json", {"kind": "segment", "vertices": [[0.0], [2.0]]}),
        "unit": write("unit.json", {"kind": "segment", "vertices": [[0.0], [1.0]]}),
        "next": write("next.json", {"kind": "segment", "vertices": [[1.0], [2.0]]}),
        "tetrahedron": write(
            "tet.json",
            {"kind": "tetrahedron", "vertices": [[0, 0, 0], [2, 0, 0], [3, 2, 0], [1, 1, 1]]},
        ),
        "triangle": write("triangle.json", {"kind": "triangle", "vertices": [[0, 0], [2, 0], [3, 2]]}),
        "parallelepiped": write(
            "parallelepiped.json",
            {"kind": "parallelepiped", "vertices": [
                [0, 0, 0], [2, 0, 0], [1, 2, 1], [0, 0, 2], [3, 2, 1], [2, 0, 2], [3, 2, 3], [1, 2, 3],
            ]},
        ),
        "wiener": write("wiener.json", {"law": "wiener", "dt": 1.0}),
        "wiener_01": write("wiener_01.json", {"law": "wiener", "dt": 0.1}),
        "vjump": write("vjump.json", {"law": "velocity_jump", "lambda": 1.0}),
        "broken_geometry": write("broken.json", {"kind": "triangle"}),
        "broken_distribution": write("broken_dist.json", {"law": "wiener"}),
        "degenerate": write(
            "degenerate.json", {"kind": "triangle", "vertices": [[0, 0], [1, 1], [2, 2]]}
        ),
        "law_list": write("law_list.json", {"law": []}),
        "string_vertices": write("string_vertices.json", {"kind": "segment", "vertices": [["0"], ["2"]]}),
        "bool_vertices": write("bool_vertices.json", {"kind": "segment", "vertices": [[False], [True]]}),
        "mixed_bool_vertices": write("mixed_bool_vertices.json", {"kind": "segment", "vertices": [[0.5], [True]]}),
        "huge_int_vertices": write("huge_int_vertices.json", {"kind": "segment", "vertices": [[0], [10**400]]}),
        "overflowing_segment": write("overflowing_segment.json", {"kind": "segment", "vertices": [[1e308], [-1e308]]}),
        "huge_segment": write("huge_segment.json", {"kind": "segment", "vertices": [[0], [1e308]]}),
        "huge_negative_segment": write("huge_negative_segment.json", {"kind": "segment", "vertices": [[-1e308], [0]]}),
        "wide_segment": write("wide_segment.json", {"kind": "segment", "vertices": [[0], [1e10]]}),
        "wiener_tiny": write("wiener_tiny.json", {"law": "wiener", "dt": 1e-290}),
        "deep_vertices": write("deep_vertices.json", {"kind": "segment", "vertices": nested}),
        "vjump_huge": write("vjump_huge.json", {"law": "velocity_jump", "lambda": 1e110}),
        "latin1": str(tmp_path / "latin1.json"),
        "deep": str(tmp_path / "deep.json"),
        "missing": str(tmp_path / "missing.json"),
        "unwritable": str(tmp_path / "no-such-directory" / "report.json"),
        "tmp_path": tmp_path,
    }


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(schema_dir, name):
    with open(schema_dir / name) as fh:
        return json.load(fh)


class TestEscapeCommand:
    def test_det_value_and_schema(self, capsys, files, schema_dir):
        code, out, _ = run_cli(capsys, [
            "escape", "--geometry", files["segment"], "--distribution", files["wiener"],
            "--method", "det",
        ])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema(schema_dir, "report.json"))
        assert list(report) == ["command", "request", "results", "provenance", "status"]
        det = report["results"]["deterministic"]
        assert list(det) == ["value", "error_estimate", "method", "cost", "wall_time"]
        assert det["value"] == pytest.approx(segment_escape_wiener(2.0, 1.0), abs=1e-6)
        assert det["value"] == pytest.approx(0.3905, abs=5e-5)
        assert det["error_estimate"] <= 1e-6
        assert "monte_carlo" not in report["results"]

    def test_both_reports_comparison(self, capsys, files, schema_dir):
        code, out, _ = run_cli(capsys, [
            "escape", "--geometry", files["segment"], "--distribution", files["wiener"],
            "--method", "both", "--particles", "100000", "--seed", "7",
        ])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema(schema_dir, "report.json"))
        comparison = report["results"]["comparison"]
        assert comparison["within_four_sigma"]
        det = report["results"]["deterministic"]["value"]
        diff = report["results"]["monte_carlo"]["value"] - det
        assert comparison["difference"] == pytest.approx(diff)
        assert comparison["four_sigma"] == bench.MC_SIGMA_FACTOR * theoretical_stat_error(det, 100000)

    def test_cell_far_wider_than_a_step_does_not_escape(self, capsys, files):
        # |A b| / sigma = 1e155 once overflowed into escape 1.0 with an error of 0
        code, out, _ = run_cli(capsys, [
            "escape", "--geometry", files["wide_segment"], "--distribution", files["wiener_tiny"],
            "--method", "det",
        ])
        assert code == 0
        det = json.loads(out)["results"]["deterministic"]
        assert det["value"] <= det["error_estimate"] + 4 * 2.0**-52

    def test_runs_add_empirical_error(self, capsys, files):
        code, out, _ = run_cli(capsys, [
            "escape", "--geometry", files["unit"], "--distribution", files["wiener"],
            "--method", "mc", "--particles", "20000", "--runs", "5", "--seed", "1",
        ])
        assert code == 0
        mc = json.loads(out)["results"]["monte_carlo"]
        assert len(mc["run_values"]) == 5
        assert mc["empirical_error"] > 0.0

    def test_one_run_reports_no_run_values(self, capsys, files):
        code, out, _ = run_cli(capsys, [
            "escape", "--geometry", files["unit"], "--distribution", files["wiener"],
            "--method", "mc", "--particles", "20000", "--runs", "1", "--seed", "1",
        ])
        assert code == 0
        mc = json.loads(out)["results"]["monte_carlo"]
        assert set(mc) == {"value", "error_estimate", "method", "cost", "wall_time"}

    def test_missing_vertices_field(self, capsys, files):
        code, _, err = run_cli(capsys, [
            "escape", "--geometry", files["broken_geometry"],
            "--distribution", files["wiener"],
        ])
        assert code == 2
        assert "vertices" in err

    def test_missing_dt_field(self, capsys, files):
        code, _, err = run_cli(capsys, [
            "escape", "--geometry", files["segment"],
            "--distribution", files["broken_distribution"],
        ])
        assert code == 2
        assert "dt" in err

    def test_bool_dt_field(self, capsys, files):
        # a JSON true used to be solved as dt = 1
        path = files["tmp_path"] / "bool_dt.json"
        path.write_text(json.dumps({"law": "wiener", "dt": True}))
        code, _, err = run_cli(capsys, [
            "escape", "--geometry", files["segment"], "--distribution", str(path),
        ])
        assert code == 2
        assert "'dt'" in err

    def test_output_file(self, capsys, files):
        out_path = files["tmp_path"] / "report.json"
        code, out, _ = run_cli(capsys, [
            "escape", "--geometry", files["segment"], "--distribution", files["wiener"],
            "--method", "det", "--output", str(out_path),
        ])
        assert code == 0 and out == ""
        report = json.loads(out_path.read_text())
        assert report["command"] == "escape"

    def test_deterministic_output_excluding_timings(self, capsys, files):
        argv = [
            "escape", "--geometry", files["segment"], "--distribution", files["wiener"],
            "--method", "both", "--particles", "50000", "--seed", "3",
        ]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)

        def strip_volatile(text):
            report = json.loads(text)
            report["provenance"].pop("timestamp")
            for section in report["results"].values():
                section.pop("wall_time", None)
            return report

        assert strip_volatile(out1) == strip_volatile(out2)

    def test_tol_is_an_absolute_tolerance(self, capsys, files):
        code, out, _ = run_cli(capsys, [
            "escape", "--geometry", files["triangle"], "--distribution", files["wiener_01"],
            "--method", "det", "--tol", "1e-10",
        ])
        assert code == 0
        det = json.loads(out)["results"]["deterministic"]
        assert det["error_estimate"] <= 1e-10

    def test_solver_failure_prints_partial_report(self, capsys, files, monkeypatch):
        # force an unreachable budget so the solver must give up
        from cellescape import QuadratureConfig
        import cellescape.cli as cli_module

        monkeypatch.setattr(
            cli_module, "_quad_config",
            lambda args: QuadratureConfig(abs_tol=1e-13, rel_tol=0.0, max_subdivisions=2),
        )
        code, out, _ = run_cli(capsys, [
            "escape", "--geometry", files["tetrahedron"],
            "--distribution", files["wiener"], "--method", "det",
        ])
        assert code == 3
        report = json.loads(out)
        assert report["status"].startswith("tolerance_not_met")
        partial = report["results"]["deterministic"]
        assert 0.0 <= partial["value"] <= 1.0
        assert partial["value"] == pytest.approx(0.9701, abs=0.05)


# one clean solve for each command, method and law, across the cell kinds
SOLVES = {
    "triangle-wiener-both": ["escape", "--geometry", "triangle", "--distribution", "wiener_01",
                             "--method", "both", "--particles", "10000"],
    "tetrahedron-wiener-det": ["escape", "--geometry", "tetrahedron", "--distribution", "wiener_01",
                               "--method", "det"],
    "parallelepiped-wiener-det": ["escape", "--geometry", "parallelepiped", "--distribution", "wiener_01",
                                  "--method", "det"],
    "tetrahedron-wiener-mc-2-workers": ["escape", "--geometry", "tetrahedron", "--distribution", "wiener_01",
                                        "--method", "mc", "--workers", "2", "--particles", "200000"],
    "triangle-velocity-jump-det": ["escape", "--geometry", "triangle", "--distribution", "vjump",
                                   "--method", "det"],
    "tetrahedron-velocity-jump-det": ["escape", "--geometry", "tetrahedron", "--distribution", "vjump",
                                      "--method", "det", "--tol", "1e-2"],
    "transition-velocity-jump-det": ["transition", "--source", "unit", "--target", "next",
                                     "--distribution", "vjump", "--method", "det"],
}


@pytest.mark.parametrize("case", SOLVES)
def test_solves(capsys, files, schema_dir, case):
    code, out, err = run_cli(capsys, [files.get(arg, arg) for arg in SOLVES[case]])
    assert code == 0 and err == ""
    report = json.loads(out)
    jsonschema.validate(report, load_schema(schema_dir, "report.json"))
    assert report["status"] == "ok"
    for method in ("deterministic", "monte_carlo"):
        if method in report["results"]:
            assert 0.0 <= report["results"][method]["value"] <= 1.0


class TestTransitionCommand:
    def test_det_matches_trapezoid_oracle(self, capsys, files, schema_dir):
        code, out, _ = run_cli(capsys, [
            "transition", "--source", files["unit"], "--target", files["next"],
            "--distribution", files["wiener"], "--method", "det",
        ])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, load_schema(schema_dir, "report.json"))
        oracle = transition_1d_trapezoid((0, 1), (1, 2), 1.0)
        assert report["results"]["deterministic"]["value"] == pytest.approx(oracle, abs=1e-6)

    def test_mc_agrees_with_det(self, capsys, files):
        code, out, _ = run_cli(capsys, [
            "transition", "--source", files["unit"], "--target", files["next"],
            "--distribution", files["wiener"], "--method", "mc",
            "--particles", "1000000", "--seed", "5",
        ])
        assert code == 0
        mc = json.loads(out)["results"]["monte_carlo"]
        det = transition_1d_trapezoid((0, 1), (1, 2), 1.0)
        assert abs(mc["value"] - det) <= 4.0 * (det * (1 - det) / 10**6) ** 0.5

    def test_det_rejected_for_3d(self, capsys, files):
        code, _, err = run_cli(capsys, [
            "transition", "--source", files["tetrahedron"], "--target", files["tetrahedron"],
            "--distribution", files["wiener"], "--method", "det",
        ])
        assert code == 4
        assert "deterministic transition supported in 1D only" in err


class TestBenchCommand:
    def test_small_run_passes_and_validates(self, capsys, files, schema_dir):
        out_path = files["tmp_path"] / "bench.json"
        code, out, _ = run_cli(capsys, [
            "bench", "--particles", "20000", "--seed", "0", "--tol", "1e-5",
            "--output", str(out_path),
        ])
        assert code == 0
        artifact = json.loads(out_path.read_text())
        jsonschema.validate(artifact, load_schema(schema_dir, "bench.json"))
        assert artifact["summary"]["total"] == 30
        assert artifact["summary"]["failed"] == 0
        assert "passed 30/30 cells" in out

    def test_rerun_identical_except_times(self, capsys, files):
        argv = ["bench", "--particles", "5000", "--seed", "9", "--tol", "1e-4"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)

        def strip_volatile(text):
            artifact = json.loads(text[: text.index("\ngeometry x dt")]) if "\ngeometry x dt" in text else json.loads(text)
            artifact.pop("timestamp")
            for cell in artifact["cells"]:
                cell["det"].pop("wall_time")
                cell["mc"].pop("wall_time")
            return artifact

        assert strip_volatile(out1) == strip_volatile(out2)


def _tolerance_not_met(monkeypatch):
    # force an unreachable budget so the deterministic solver must give up
    from cellescape import QuadratureConfig
    import cellescape.cli as cli_module

    monkeypatch.setattr(
        cli_module, "_quad_config",
        lambda args: QuadratureConfig(abs_tol=1e-13, rel_tol=0.0, max_subdivisions=2),
    )


def _non_finite(monkeypatch):
    from cellescape import NonFiniteIntegrand
    import cellescape.cli as cli_module

    def fail(*args):
        raise NonFiniteIntegrand("integrand returned NaN or infinity")

    monkeypatch.setattr(cli_module, "escape_probability_det", fail)


ESCAPE = ["escape", "--geometry", "segment", "--distribution", "wiener"]

# (argv with file keys, patch, exit code, field named on stderr as ``field '...'``
# or report status)
EXIT_CODE_TABLE = {
    "escape-degenerate-triangle": (
        ["escape", "--geometry", "degenerate", "--distribution", "wiener"], None, 2, "vertices"),
    "transition-degenerate-triangle": (
        ["transition", "--source", "degenerate", "--target", "degenerate",
         "--distribution", "wiener", "--method", "mc"], None, 2, "vertices"),
    "transition-1d-source-2d-target": (
        ["transition", "--source", "unit", "--target", "triangle", "--distribution", "wiener"],
        None, 2, "vertices"),
    "string-coordinates": (
        ["escape", "--geometry", "string_vertices", "--distribution", "wiener"], None, 2, "vertices"),
    "bool-coordinates": (
        ["escape", "--geometry", "bool_vertices", "--distribution", "wiener"], None, 2, "vertices"),
    "bool-among-numbers": (
        ["transition", "--source", "unit", "--target", "mixed_bool_vertices", "--distribution", "wiener"],
        None, 2, "vertices"),
    "int-beyond-float": (
        ["escape", "--geometry", "huge_int_vertices", "--distribution", "wiener"], None, 2, "vertices"),
    "edges-beyond-float": (
        ["escape", "--geometry", "overflowing_segment", "--distribution", "wiener"], None, 2, "vertices"),
    # each segment is a valid element, but the steps between them leave the float range
    "transition-window-beyond-float": (
        ["transition", "--source", "huge_segment", "--target", "huge_negative_segment", "--distribution", "wiener"],
        None, 2, "target"),
    "missing-geometry": (
        ["escape", "--geometry", "missing", "--distribution", "wiener"], None, 2, "geometry"),
    "missing-source": (
        ["transition", "--source", "missing", "--target", "next", "--distribution", "wiener"],
        None, 2, "source"),
    "missing-distribution": (
        ["escape", "--geometry", "segment", "--distribution", "missing"], None, 2, "distribution"),
    "geometry-not-utf8": (
        ["escape", "--geometry", "latin1", "--distribution", "wiener"], None, 2, "geometry"),
    "geometry-nested-too-deeply": (
        ["escape", "--geometry", "deep", "--distribution", "wiener"], None, 2, "geometry"),
    "distribution-nested-too-deeply": (
        ["escape", "--geometry", "segment", "--distribution", "deep"], None, 2, "distribution"),
    "vertices-beyond-32-dimensions": (
        ["escape", "--geometry", "deep_vertices", "--distribution", "wiener"], None, 2, "vertices"),
    "law-not-a-name": (
        ["escape", "--geometry", "segment", "--distribution", "law_list"], None, 2, "law"),
    "particles-0": (ESCAPE + ["--particles", "0"], None, 2, "particles"),
    "runs-0": (ESCAPE + ["--runs", "0"], None, 2, "runs"),
    "tol-0": (ESCAPE + ["--tol", "0"], None, 2, "abs_tol"),
    "tol-nan": (ESCAPE + ["--tol", "nan"], None, 2, "abs_tol"),
    "tol-inf": (ESCAPE + ["--tol", "inf"], None, 2, "abs_tol"),
    "seed-negative": (ESCAPE + ["--seed", "-1"], None, 2, "seed"),
    "bench-particles-0": (["bench", "--particles", "0"], None, 2, "particles"),
    "workers-0": (ESCAPE + ["--workers", "0"], None, 2, "workers"),
    "transition-workers-negative": (
        ["transition", "--source", "unit", "--target", "next", "--distribution", "wiener",
         "--method", "mc", "--workers", "-2"], None, 2, "workers"),
    "bench-workers-0": (["bench", "--workers", "0"], None, 2, "workers"),
    "output-unwritable": (
        ESCAPE + ["--method", "det", "--output", "unwritable"], _non_finite, 2, "output"),
    "tolerance-not-met-both": (
        ["escape", "--geometry", "tetrahedron", "--distribution", "wiener",
         "--method", "both", "--particles", "20000"],
        _tolerance_not_met, 3, "tolerance_not_met"),
    "other-library-error": (ESCAPE + ["--method", "det"], _non_finite, 3, "solver_failure"),
    # rate**3 beyond the float range
    "velocity-jump-rate-beyond-float": (
        ["escape", "--geometry", "tetrahedron", "--distribution", "vjump_huge", "--method", "det"],
        None, 3, "solver_failure"),
}


@pytest.mark.parametrize("case", EXIT_CODE_TABLE)
def test_exit_code_table(capsys, files, monkeypatch, case):
    argv, patch, expected, named = EXIT_CODE_TABLE[case]
    if patch is not None:
        patch(monkeypatch)
    code, out, err = run_cli(capsys, [files.get(arg, arg) for arg in argv])
    assert code == expected
    assert "Traceback" not in err
    if expected == 3:
        report = json.loads(out)
        assert report["status"].startswith(named)
        if "--method" in argv and argv[argv.index("--method") + 1] == "both":
            assert set(report["results"]) == {"deterministic", "monte_carlo"}
    else:
        assert out == ""
        assert err.startswith(f"error: field '{named}': ")


def test_entry_point_reports_missing_file(files):
    src = str(Path(cellescape.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cellescape.cli", "escape",
         "--geometry", files["missing"], "--distribution", files["wiener"]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "geometry" in proc.stderr and "Traceback" not in proc.stderr
