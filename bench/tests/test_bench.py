"""Tests of the benchmark itself: input determinism, declared metrics, and
the output checker on deliberately wrong outputs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import gqd.cli  # noqa: E402
from gqd import PauliDiagonalParams, sudden_transition_point  # noqa: E402

from bench import checking, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_generates_identical_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name].make
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = workloads.describe_inputs(make(5, dirs[0]))
    second = workloads.describe_inputs(make(5, dirs[1]))
    other = workloads.describe_inputs(make(6, dirs[2]))
    assert [{k: v for k, v in d.items() if k != "document"} for d in first] == [
        {k: v for k, v in d.items() if k != "document"} for d in second]
    assert _files(dirs[0]) == _files(dirs[1])
    assert first != other


def test_declared_workloads_exist():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert set(declared) <= set(workloads.WORKLOADS)
    # verify runs on request only: one op per run is too few for a bound.
    assert set(workloads.WORKLOADS) - set(declared) == {"verify"}


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section, tmp_path):
    proc = _run("--workload", "closed-sweep", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--out", str(tmp_path / "result.json"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
    record = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    env = record["environment"]
    for key in ("git_sha", "python", "numpy", "scipy", "cpu_count", "blas",
                "GQD_THREADS", "workload_seed"):
        assert key in env
    assert env["workload_seed"] == 3


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "closed-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the output checker on perturbed and malformed outputs --------------------

def test_check_solve_flags_perturbed_values():
    good = dict(value=0.3, raw_value=0.3, converged=True, i_rho=1.0,
                reevaluated=0.3, exact=0.3)
    assert checking.check_solve(**good) == []
    assert checking.check_solve(**{**good, "value": 0.3 + 1e-3, "raw_value": 0.3 + 1e-3,
                                    "reevaluated": 0.3 + 1e-3})
    assert checking.check_solve(**{**good, "value": 0.3 - 1e-3})
    assert checking.check_solve(**{**good, "reevaluated": 0.3 + 1e-7})
    assert checking.check_solve(**{**good, "value": 1.5})
    assert checking.check_solve(**{**good, "value": float("nan")})
    # An unconverged solve above the exact value is reported, not failed.
    assert checking.check_solve(**{**good, "value": 0.31, "raw_value": 0.31,
                                   "reevaluated": 0.31, "converged": False}) == []


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gqd.cli.main(argv)
    return code, out.getvalue()


def test_check_compute_output_flags_malformed_records():
    record = {"value": 0.1, "method": "numeric", "optimal_measurement": [[0, 0, 1]] * 2,
              "diagnostics": {"raw_value": 0.1, "converged": True, "evaluations": 9,
                              "starts": 3}}
    assert checking.parse_compute_output(0, json.dumps(record))[1] == []
    assert checking.parse_compute_output(2, json.dumps(record))[1]
    assert checking.parse_compute_output(0, "value: 0.1")[1]
    assert checking.parse_compute_output(0, "")[1]
    assert checking.parse_compute_output(0, json.dumps({**record, "value": float("nan")}))[1]
    assert checking.parse_compute_output(0, json.dumps({**record, "diagnostics": {}}))[1]


def test_check_figure1_output_flags_bad_rows(tmp_path):
    out = tmp_path / "figure1.csv"
    n_list, steps = (2, 3, "inf"), 7
    code, _ = _cli(["figure1", "--n-list", "2,3,inf", "--mu-steps", str(steps),
                    "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert checking.check_figure1_output(code, text, n_list, steps) == []
    lines = text.splitlines()
    mu, n, value = lines[1].split(",")
    perturbed = "\n".join([lines[0], f"{mu},{n},{float(value) + 1e-6}"] + lines[2:])
    assert checking.check_figure1_output(code, perturbed, n_list, steps)
    assert checking.check_figure1_output(code, "\n".join(lines[:-1]), n_list, steps)
    assert checking.check_figure1_output(code, text.replace("mu,n", "mu;n"), n_list, steps)
    assert checking.check_figure1_output(2, text, n_list, steps)


def test_check_dephase_scan_output_flags_bad_report(tmp_path):
    params = PauliDiagonalParams(2, 1.0, -0.6, 0.6)
    out = tmp_path / "scan.csv"
    code, stdout = _cli(["dephase-scan", "--n", "2", "--c1", "1.0", "--c2", "-0.6",
                         "--c3", "0.6", "--p-steps", "101", "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    predicted = sudden_transition_point(params)
    assert checking.check_dephase_scan_output(code, stdout, text, params, 101, predicted) == []
    moved = stdout.replace("detected kinks: p = 0.4", "detected kinks: p = 0.7")
    assert checking.check_dephase_scan_output(code, moved, text, params, 101, predicted)
    silent = stdout.replace("detected kinks: p = 0.4", "detected kinks: none")
    assert checking.check_dephase_scan_output(code, silent, text, params, 101, predicted)
    assert checking.check_dephase_scan_output(code, stdout, text[: len(text) // 2], params,
                                              101, predicted)


def test_check_scan_flags_missing_kink():
    import numpy as np
    from gqd import scan_gqd_vs_p
    from gqd.dynamics import ScanReport

    params = PauliDiagonalParams(2, 0.5, 0.1, 0.2)
    grid = np.linspace(0.0, 1.0, 101)
    records, report = scan_gqd_vs_p(params, grid)
    predicted = sudden_transition_point(params)
    assert checking.check_scan(params, grid, records, report, predicted) == []
    no_kink = ScanReport(report.predicted_transition_p, (), report.plateaus)
    assert checking.check_scan(params, grid, records, no_kink, predicted)
    assert checking.check_scan(params, grid, records[:-1], report, predicted)


def test_check_verify_output_flags_failures():
    good = "[PASS] a  margin 0  tol 1\n[PASS] b  margin 0  tol 1\n2/2 checks passed\n"
    assert checking.check_verify_output(0, good) == []
    assert checking.check_verify_output(1, good)
    failed = good.replace("[PASS] b", "[FAIL] b").replace("2/2", "1/2")
    assert checking.check_verify_output(1, failed)
    assert checking.check_verify_output(0, good.replace("2/2 checks passed\n", ""))


def test_check_scan_accepts_kink_at_the_switch_next_to_p_star():
    import numpy as np
    from gqd import scan_gqd_vs_p

    # p* sits between grid points near p = 1; the detector reports the kink
    # one step past the first point beyond p*, which its docstring allows.
    params = PauliDiagonalParams(5, 0.6940649544982957, 0.09624564581658812,
                                 -0.0007756022668192752)
    grid = np.linspace(0.0, 1.0, 2001)
    records, report = scan_gqd_vs_p(params, grid)
    predicted = sudden_transition_point(params)
    assert checking.check_scan(params, grid, records, report, predicted) == []
    far = type(report)(report.predicted_transition_p, (0.99,), report.plateaus)
    assert checking.check_scan(params, grid, records, far, predicted)


def test_reduced_start_solves_report_a_local_minimum_without_failing():
    stuck = dict(value=0.14, raw_value=0.14, converged=True, i_rho=1.0,
                 reevaluated=0.14, exact=0.08)
    assert checking.check_solve(**stuck)
    assert checking.check_solve(**stuck, reach_exact=False) == []
    assert checking.check_solve(**{**stuck, "value": 0.07, "raw_value": 0.07,
                                   "reevaluated": 0.07}, reach_exact=False)
