"""Per-layer probes of the traced run.

Each probe calls one module's public functions through the tracer on fixed
seeded inputs, so its spans time that layer alone. The probes are the same
for every workload; the workload's own traffic adds the per-layer self-time
shares on top.
"""

from __future__ import annotations

import math
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import gqd.checks
import gqd.cli
from gqd import (
    DensityMatrix,
    LocalMeasurement,
    OptimizerOptions,
    PauliDiagonalParams,
    WernerGhzParams,
    gqd_maximally_mixed,
    gqd_numeric,
    gqd_pauli_diagonal,
    gqd_werner_ghz,
    measurement_objective,
    mutual_information,
    partial_trace,
    pauli_diagonal_state,
    pinch_matrix,
    relative_entropy_objective,
    scan_gqd_vs_p,
    shannon_entropy,
)
from gqd.cli import StateDocument, load_state_document, save_state_document
from gqd.qcore import random_bloch_vector, random_density_matrix

from bench.tracing import NullTracer, Tracer
from bench.workloads import (
    CLI_CALLEES,
    FIGURE1_MU_STEPS,
    FIGURE1_N_LIST,
    SCAN_POINTS,
    VERIFY_TRIALS,
    WIDE_STARTS,
    run_cli,
)

# Fixed-budget single-start solves for the per-evaluation cost.
EVAL_NS = (2, 3, 4, 5, 6, 7, 8)
EVAL_BUDGET = 200
SLOPE_NS = (5, 6, 7, 8)
# Sizes of the dense qcore, measurement and document probes. N = 10 is
# timed once; smaller sizes report the median of REPS calls. The
# relative-entropy route stops at N = 8: one call at N = 10 takes seconds.
DENSE_NS = (2, 4, 6, 8, 10)
RELATIVE_ENTROPY_NS = (2, 4, 6, 8)
DOC_NS = (2, 4, 6, 8)
REPS = 3
MICRO_CALLS = 2000


def _median_span(tracer: Tracer, op: str, name: str, fn, *args, reps: int = REPS):
    with tracer.op(op):
        for _ in range(reps):
            tracer.call(name, fn, *args)
    return statistics.median(tracer.durations_in(op, name))


def _per_call_us(tracer: Tracer, op: str, name: str, fn, *args) -> float:
    """Microseconds per call over a tight loop inside one span."""
    def loop():
        for _ in range(MICRO_CALLS):
            fn(*args)
    return _median_span(tracer, op, name, loop) / MICRO_CALLS * 1e6


def _slope(ns, values) -> float:
    """Least-squares slope of log2(value) against N."""
    x = np.asarray(ns, dtype=float)
    y = np.log2(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def probe_discord(tracer: Tracer, rng: np.random.Generator, m: dict, problems: list) -> None:
    evals = {}
    for n in EVAL_NS:
        rho = random_density_matrix(n, rng)
        opts = OptimizerOptions(seed=1, starts=1, max_evals_per_start=EVAL_BUDGET)
        with tracer.op(f"probe.eval.n{n}"):
            res = tracer.call("discord.gqd_numeric", gqd_numeric, rho, opts)
        wall = tracer.durations_in(f"probe.eval.n{n}", "discord.gqd_numeric")[0]
        evals[n] = wall / res.diagnostics.evaluations * 1e6
        m[f"discord.eval_us.n{n}"] = evals[n]
    m["discord.eval_slope"] = _slope(SLOPE_NS, [evals[n] for n in SLOPE_NS])

    # Default-option solves of the dense-small kind, once on one thread and
    # once on the two-thread pool.
    states = [random_density_matrix(n, rng) for n in (2, 2, 3)]
    results = {}
    for threads in (1, 2):
        op = f"probe.pool.t{threads}"
        opts = OptimizerOptions(seed=7, threads=threads)
        with tracer.op(op):
            results[threads] = [tracer.call("discord.gqd_numeric", gqd_numeric, r, opts)
                                for r in states]
    walls = {t: sum(tracer.durations_in(f"probe.pool.t{t}", "discord.gqd_numeric"))
             for t in (1, 2)}
    m["discord.pool_speedup"] = walls[1] / walls[2]
    if [r.value for r in results[1]] != [r.value for r in results[2]]:
        problems.append("probe: threads=1 and threads=2 solves disagree")
    diags = [r.diagnostics for r in results[1]]
    m["discord.evals_per_solve"] = statistics.mean(d.evaluations for d in diags)
    m["discord.starts_per_solve"] = statistics.mean(d.starts for d in diags)
    m["discord.evals_per_start"] = (
        sum(d.evaluations for d in diags) / sum(d.starts for d in diags))

    m["discord.closed_form_us.werner_ghz"] = _per_call_us(
        tracer, "probe.closed_form.werner_ghz", "discord.gqd_werner_ghz",
        gqd_werner_ghz, WernerGhzParams(5, 0.3))
    m["discord.closed_form_us.pauli_diagonal"] = _per_call_us(
        tracer, "probe.closed_form.pauli_diagonal", "discord.gqd_pauli_diagonal",
        gqd_pauli_diagonal, PauliDiagonalParams(4, 0.5, -0.3, 0.2))

    rho = pauli_diagonal_state(PauliDiagonalParams(3, 0.6, -0.3, 0.2))
    m["discord.maximally_mixed_s"] = _median_span(
        tracer, "probe.maximally_mixed", "discord.gqd_maximally_mixed",
        gqd_maximally_mixed, rho, OptimizerOptions(seed=3), reps=1)


def probe_qcore_measurement(tracer: Tracer, rng: np.random.Generator, m: dict) -> None:
    for n in DENSE_NS:
        reps = 1 if n >= 10 else REPS
        rho = random_density_matrix(n, rng)
        meas = LocalMeasurement(tuple(random_bloch_vector(rng) for _ in range(n)))
        for key, name, fn, args in (
            ("qcore.density_matrix_s", "qcore.DensityMatrix", DensityMatrix, (rho.matrix,)),
            ("qcore.mutual_information_s", "qcore.mutual_information",
             mutual_information, (rho,)),
            ("qcore.partial_trace_s", "qcore.partial_trace", partial_trace, (rho, {0})),
            ("measurement.pinch_matrix_s", "measurement.pinch_matrix",
             pinch_matrix, (rho.matrix, meas.directions)),
            ("measurement.objective_s", "measurement.measurement_objective",
             measurement_objective, (rho, meas)),
            ("measurement.relative_entropy_objective_s",
             "measurement.relative_entropy_objective",
             relative_entropy_objective, (rho, meas)),
        ):
            if key.startswith("measurement.relative") and n not in RELATIVE_ENTROPY_NS:
                continue
            m[f"{key}.n{n}"] = _median_span(
                tracer, f"probe.{key}.n{n}", name, fn, *args, reps=reps)
    weights = rng.dirichlet(np.ones(16))
    m["qcore.shannon_entropy_us"] = _per_call_us(
        tracer, "probe.shannon", "qcore.shannon_entropy", shannon_entropy, weights)


def probe_dynamics(tracer: Tracer, m: dict) -> None:
    grid = np.linspace(0.0, 1.0, SCAN_POINTS)
    params = PauliDiagonalParams(2, 1.0, -0.6, 0.6)
    m["dynamics.scan_point_us"] = _median_span(
        tracer, "probe.scan", "dynamics.scan_gqd_vs_p", scan_gqd_vs_p, params, grid
    ) / SCAN_POINTS * 1e6


def probe_checks(tracer: Tracer, m: dict, seed: int, problems: list) -> None:
    """Time each check function of one ``run_checks`` call."""
    names = sorted(n for n in dir(gqd.checks) if n.startswith("check_"))
    with tracer.patched(gqd.checks, names, "checks"), tracer.op("probe.checks"):
        results = tracer.call("checks.run_checks", gqd.checks.run_checks,
                              "all", seed, VERIFY_TRIALS)
    problems += [f"probe: check {r.name} failed" for r in results if not r.passed]
    for name in names:
        durations = tracer.durations_in("probe.checks", f"checks.{name}")
        if durations:
            m[f"checks.{name[len('check_'):]}_s"] = sum(durations)


def probe_cli(tracer: Tracer, rng: np.random.Generator, m: dict, problems: list,
              workdir: Path) -> None:
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        for n in DOC_NS:
            path = tmp / f"n{n}.json"
            rho = random_density_matrix(n, rng)
            save_state_document(str(path), StateDocument("dense", n, matrix=rho.matrix))
            m[f"cli.load_document_s.n{n}"] = _median_span(
                tracer, f"probe.load.n{n}", "cli.load_state_document",
                load_state_document, str(path))

        # compute self time: the command's wall minus document load, state
        # validation and the solve, each timed by its own span.
        path = tmp / "n6.json"
        op = "probe.compute"
        with tracer.patched(gqd.cli, CLI_CALLEES, "cli"), tracer.op(op):
            code, _, _ = run_cli(tracer, ["compute", "--input", str(path),
                                           "--starts", str(WIDE_STARTS), "--seed", "5"])
            doc = load_state_document(str(path))
            tracer.call("qcore.DensityMatrix", DensityMatrix, doc.matrix)
        if code != 0:
            problems.append(f"probe: compute exited {code}")
        (main_s,) = tracer.durations_in(op, "cli.main")
        parts = sum(sum(tracer.durations_in(op, name)) for name in (
            "cli.load_state_document", "discord.gqd_numeric", "qcore.DensityMatrix"))
        m["cli.compute_self_s"] = main_s - parts

        for key, argv in (
            ("cli.figure1_s", ["figure1", "--n-list", ",".join(map(str, FIGURE1_N_LIST)),
                               "--mu-steps", str(FIGURE1_MU_STEPS),
                               "--out", str(tmp / "figure1.csv")]),
            ("cli.dephase_scan_s", ["dephase-scan", "--n", "2", "--c1", "1.0", "--c2", "-0.6",
                                    "--c3", "0.6", "--p-steps", str(SCAN_POINTS),
                                    "--out", str(tmp / "scan.csv")]),
        ):
            with tracer.op(f"probe.{key}"):
                code, _, _ = run_cli(tracer, argv)
            if code != 0:
                problems.append(f"probe: {argv[0]} exited {code}")
            m[key] = tracer.durations_in(f"probe.{key}", "cli.main")[0]


def tracing_overhead_us() -> float:
    """Traced minus untraced wall time of one cheap call, per span."""
    params = WernerGhzParams(3, 0.5)
    wall = {}
    for label, t in (("untraced", NullTracer()), ("traced", Tracer())):
        times = []
        for _ in range(REPS):
            t0 = perf_counter()
            for _ in range(MICRO_CALLS):
                t.call("discord.gqd_werner_ghz", gqd_werner_ghz, params)
            times.append(perf_counter() - t0)
        wall[label] = statistics.median(times)
    return (wall["traced"] - wall["untraced"]) / MICRO_CALLS * 1e6


def run_probes(tracer: Tracer, seed: int, workdir: Path) -> tuple[dict, list[str]]:
    """All per-layer probe metrics, plus any probe output that was wrong."""
    rng = np.random.default_rng(seed)
    m: dict = {}
    problems: list[str] = []
    probe_discord(tracer, rng, m, problems)
    probe_qcore_measurement(tracer, rng, m)
    probe_dynamics(tracer, m)
    probe_checks(tracer, m, seed, problems)
    probe_cli(tracer, rng, m, problems, workdir)
    m["trace.overhead_us_per_span"] = tracing_overhead_us()
    bad = [k for k, v in m.items() if not math.isfinite(v)]
    problems += [f"probe: metric {k} is not finite" for k in bad]
    return m, problems
