"""Output checks for the benchmark's operations.

Every function returns a list of problems, empty when the output is correct.
The functions only read the outputs they are given, so a test can feed them
a perturbed value or a malformed CLI output without touching the package.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gqd import (
    BlochVector,
    LocalMeasurement,
    PauliDiagonalParams,
    WernerGhzParams,
    gqd_pauli_diagonal,
    gqd_werner_ghz,
)

# Acceptance tolerance for a numeric minimum against a known closed form.
EXACT_TOL = 1e-4
# A reported raw minimum against the objective re-evaluated at the reported
# measurement.
RAW_TOL = 1e-8
# Slack on the upper bound value <= I(rho).
BOUND_TOL = 1e-9


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_solve(
    value: float,
    raw_value: float,
    converged: bool,
    i_rho: float,
    reevaluated: float,
    exact: float | None,
    reach_exact: bool = True,
) -> list[str]:
    """Check one numeric discord result.

    ``reevaluated`` is the objective at the reported optimal measurement and
    must match ``raw_value``. A known ``exact`` value must never be undercut
    (the numeric route only evaluates real measurements, so its minimum is an
    upper bound). With ``reach_exact``, for solves run with the default
    options, a solve that reports convergence must also reach it; with fewer
    starts a converged start can sit in a local minimum, which the caller
    reports as a gap instead.
    """
    if not _finite(value, raw_value, reevaluated):
        return [f"non-finite output: value={value!r} raw={raw_value!r} "
                f"reevaluated={reevaluated!r}"]
    problems = []
    if not 0.0 <= value <= i_rho + BOUND_TOL:
        problems.append(f"value {value!r} outside [0, I(rho)={i_rho!r}]")
    if abs(reevaluated - raw_value) > RAW_TOL:
        problems.append(
            f"objective at the reported measurement {reevaluated!r} differs "
            f"from raw_value {raw_value!r} by {abs(reevaluated - raw_value):.3e}"
        )
    if exact is not None:
        if value < exact - EXACT_TOL:
            problems.append(f"value {value!r} below the exact minimum {exact!r}")
        elif reach_exact and converged and value - exact > EXACT_TOL:
            problems.append(
                f"converged solve missed the exact value {exact!r} "
                f"by {value - exact:.3e}"
            )
    return problems


def parse_compute_output(exit_code: int, stdout: str) -> tuple[dict | None, list[str]]:
    """Parse the JSON record of ``gqd compute``; return it and any problems."""
    if exit_code != 0:
        return None, [f"compute exited {exit_code}"]
    lines = stdout.strip().splitlines()
    if not lines:
        return None, ["compute printed nothing"]
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return None, [f"compute output is not JSON: {exc}"]
    if not isinstance(record, dict):
        return None, ["compute output is not a JSON object"]
    diag = record.get("diagnostics")
    directions = record.get("optimal_measurement")
    if not isinstance(diag, dict) or not isinstance(directions, list):
        return None, ["compute record lacks diagnostics or optimal_measurement"]
    for key in ("raw_value", "converged", "evaluations", "starts"):
        if key not in diag:
            return None, [f"compute diagnostics lack {key!r}"]
    if not _finite(record.get("value")):
        return None, [f"compute value {record.get('value')!r} is not a finite number"]
    return record, []


def measurement_from_record(record: dict) -> LocalMeasurement:
    """The optimal measurement of a compute record as a LocalMeasurement."""
    return LocalMeasurement(
        tuple(BlochVector(*map(float, d)) for d in record["optimal_measurement"])
    )


def check_scan(params: PauliDiagonalParams, grid, records, report, predicted) -> list[str]:
    """Check a library dephasing scan against the closed form and p*.

    ``predicted`` is :func:`gqd.sudden_transition_point` of ``params``.
    Kinks must appear exactly when a transition is predicted, as
    :func:`check_kinks` describes.
    """
    grid = np.asarray(grid, dtype=float)
    problems = []
    if len(records) != grid.size:
        return [f"scan returned {len(records)} records for {grid.size} grid points"]
    if any(r.p != p for r, p in zip(records, grid)):
        problems.append("scan records do not follow the grid")
    values = [r.gqd for r in records]
    if not _finite(*values) or min(values) < 0.0:
        problems.append("scan values are not finite and nonnegative")
    for i in (0, grid.size // 2, grid.size - 1):
        p = float(grid[i])
        f = 1.0 - p
        exact = max(gqd_pauli_diagonal(PauliDiagonalParams(
            params.n_qubits, params.c1 * f, params.c2 * f, params.c3)), 0.0)
        if abs(values[i] - exact) > 1e-12:
            problems.append(f"scan value at p={p!r} is {values[i]!r}, expected {exact!r}")
    problems += check_kinks(grid, report.predicted_transition_p, report.kinks, predicted)
    return problems


def check_kinks(grid, reported_p, kinks, predicted) -> list[str]:
    """Kink report against the predicted transition point.

    The detector places a kink within one grid step of the first grid point
    at or past p* (where the dominant coefficient switches), and exactly at
    p* when p* is a grid point. No kink may appear without a transition.
    """
    grid = np.asarray(grid, dtype=float)
    if reported_p != predicted:
        return [f"predicted transition {reported_p!r}, expected {predicted!r}"]
    if predicted is None or not grid[0] < predicted <= grid[-1]:
        return [f"kinks {tuple(kinks)} reported without a transition"] if kinks else []
    if not kinks:
        return [f"no kink reported at the transition p*={predicted!r}"]
    if np.any(grid == predicted):
        ok = predicted in kinks
    else:
        first = int(np.searchsorted(grid, predicted))
        window = grid[max(first - 1, 0): first + 2]
        ok = any(k in window for k in kinks)
    return [] if ok else [f"kinks {tuple(kinks)} not at the switch nearest p*={predicted!r}"]


def _csv_rows(text: str, header: str, n_rows: int, n_fields: int):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None, [f"CSV header is {lines[0] if lines else None!r}, expected {header!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n_rows:
        return None, [f"CSV has {len(rows)} rows, expected {n_rows}"]
    if any(len(r) != n_fields for r in rows):
        return None, [f"CSV row without {n_fields} fields"]
    return rows, []


def check_dephase_scan_output(
    exit_code: int,
    stdout: str,
    csv_text: str,
    params: PauliDiagonalParams,
    p_steps: int,
    predicted: float | None,
) -> list[str]:
    """Check ``gqd dephase-scan``: CSV rows, values and the stdout report."""
    if exit_code != 0:
        return [f"dephase-scan exited {exit_code}"]
    rows, problems = _csv_rows(
        csv_text, "p,c1_p,c2_p,c3_p,gqd_bits,active_branch", p_steps, 6
    )
    if problems:
        return problems
    grid = np.linspace(0.0, 1.0, p_steps)
    try:
        ps = [float(r[0]) for r in rows]
        values = [float(r[4]) for r in rows]
    except ValueError as exc:
        return [f"dephase-scan CSV has a non-numeric field: {exc}"]
    if any(abs(p - g) > 1e-11 for p, g in zip(ps, grid)):
        problems.append("dephase-scan CSV does not follow the grid")
    for i in (0, p_steps // 2, p_steps - 1):
        f = 1.0 - float(grid[i])
        exact = max(gqd_pauli_diagonal(PauliDiagonalParams(
            params.n_qubits, params.c1 * f, params.c2 * f, params.c3)), 0.0)
        if abs(values[i] - exact) > 1e-11:
            problems.append(f"dephase-scan value {values[i]!r} at row {i}, expected {exact!r}")
    report = stdout.splitlines()
    expected = (
        "predicted transition: none" if predicted is None
        else f"predicted transition: p* = {predicted:.12g}"
    )
    if not report or report[0] != expected:
        problems.append(f"dephase-scan report starts {report[:1]!r}, expected {expected!r}")
        return problems
    kink_line = next((l for l in report if l.startswith("detected kinks: ")), None)
    if kink_line is None:
        problems.append("dephase-scan report has no kink line")
        return problems
    body = kink_line[len("detected kinks: "):]
    try:
        kinks = () if body == "none" else tuple(
            float(k.strip()[len("p = "):]) for k in body.split(",")
        )
    except ValueError:
        return problems + [f"dephase-scan kink line {kink_line!r} is malformed"]
    # The CLI prints 12 significant digits, so compare against p* and the
    # grid rounded alike.
    rounded = None if predicted is None else float(f"{predicted:.12g}")
    grid = np.array([float(f"{g:.12g}") for g in grid])
    return problems + check_kinks(grid, rounded, kinks, rounded)


def check_figure1_output(exit_code: int, csv_text: str, n_list, mu_steps: int) -> list[str]:
    """Check ``gqd figure1``: one row per (n, mu), values on the closed form."""
    if exit_code != 0:
        return [f"figure1 exited {exit_code}"]
    rows, problems = _csv_rows(csv_text, "mu,n,gqd_bits", len(n_list) * mu_steps, 3)
    if problems:
        return problems
    mus = np.linspace(0.0, 1.0, mu_steps)
    for k, n in enumerate(n_list):
        for i in (0, mu_steps // 3, mu_steps - 1):
            mu_text, label, value_text = rows[k * mu_steps + i]
            mu = float(mus[i])
            if label != str(n):
                problems.append(f"figure1 row labelled {label!r}, expected {n!r}")
                continue
            exact = mu if n == "inf" else gqd_werner_ghz(WernerGhzParams(n, mu))
            try:
                ok = abs(float(mu_text) - mu) <= 1e-11 and abs(float(value_text) - exact) <= 1e-11
            except ValueError:
                ok = False
            if not ok:
                problems.append(
                    f"figure1 row ({mu_text}, {label}, {value_text}) off the closed form {exact!r}"
                )
    return problems


def check_verify_output(exit_code: int, stdout: str) -> list[str]:
    """Check ``gqd verify``: every check line PASS and a full summary."""
    lines = stdout.strip().splitlines()
    problems = [f"FAIL line: {l}" for l in lines if l.startswith("[FAIL]")]
    if exit_code != 0:
        problems.insert(0, f"verify exited {exit_code}")
    checks = [l for l in lines if l.startswith("[PASS]") or l.startswith("[FAIL]")]
    expected = f"{len(checks)}/{len(checks)} checks passed"
    if not checks or expected not in lines:
        problems.append(f"verify summary missing or incomplete (expected {expected!r})")
    return problems
