"""Seeded inputs and operations of the four benchmark workloads.

Each workload is a list of cycles; a cycle is a fixed sequence of
operations, so every run mixes operation kinds in the same proportions. One
caller runs the operations closed-loop: each starts when the previous one
returns. Everything an operation needs is drawn from the workload seed
during set-up; the package only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import gqd.cli
from gqd import (
    DensityMatrix,
    OptimizerOptions,
    PauliDiagonalParams,
    WernerGhzParams,
    gqd_numeric,
    gqd_pauli_diagonal,
    gqd_werner_ghz,
    measurement_objective,
    mutual_information,
    pauli_diagonal_state,
    scan_gqd_vs_p,
    sudden_transition_point,
    validate_pauli_params,
    werner_ghz_state,
)
from gqd.cli import StateDocument, save_state_document
from gqd.qcore import random_density_matrix, random_unitary

from bench import checking

FAMILIES = ("ginibre", "werner_ghz", "pauli_diagonal")

# Options of the dense-wide CLI solves: default 8N starts would take minutes
# per solve at N = 7.
WIDE_STARTS = 3
# Grid points of one library scan and one dephase-scan call.
SCAN_POINTS = 2001
# figure1 arguments: every N from 2 to 32 plus the asymptote.
FIGURE1_N_LIST = tuple(range(2, 33)) + ("inf",)
FIGURE1_MU_STEPS = 1001
# `gqd verify --trials`: the smallest value at which every check runs its
# minimum workload (the default of 100 doubles the wall time).
VERIFY_TRIALS = 20


@dataclass
class OpResult:
    seconds: float          # wall time of the package call(s), checks excluded
    items: int              # solves, grid points or verify runs completed
    problems: list[str]     # output check failures, empty when correct
    converged: bool | None = None
    evaluations: int | None = None
    exact_gap: float | None = None  # value minus the known exact minimum


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def random_pauli_params(
    n: int, rng: np.random.Generator, transition: bool
) -> PauliDiagonalParams:
    """Valid coefficients with or without a sudden transition under dephasing.

    With a transition, ``0 < |c3| < max(|c1|, |c2|)``; without, ``|c3|`` is
    the largest magnitude, so the dominant coefficient never switches.
    """
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        order = np.argsort(np.abs(c))
        c3_index = order[0] if transition else order[-1]
        c1, c2 = (float(c[i]) for i in range(3) if i != c3_index)
        params = PauliDiagonalParams(n, c1, c2, float(c[c3_index]))
        if validate_pauli_params(params).ok and (
            sudden_transition_point(params) is not None
        ) == transition:
            return params


def _local_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(2, rng)
    for _ in range(n - 1):
        u = np.kron(u, random_unitary(2, rng))
    return u


def random_state(family: str, n: int, rng: np.random.Generator):
    """A seeded state of ``family`` and its exact discord, if known.

    Werner-GHZ and Pauli-diagonal states are rotated by a random local
    unitary, which leaves their discord at the closed-form value.
    """
    if family == "ginibre":
        return random_density_matrix(n, rng), None, {}
    if family == "werner_ghz":
        params = WernerGhzParams(n, float(rng.uniform(0.0, 1.0)))
        rho, exact = werner_ghz_state(params), gqd_werner_ghz(params)
        info = {"mu": params.mu}
    else:
        params = random_pauli_params(n, rng, transition=bool(rng.integers(2)))
        rho, exact = pauli_diagonal_state(params), gqd_pauli_diagonal(params)
        info = {"c": [params.c1, params.c2, params.c3]}
    u = _local_rotation(n, rng)
    rotated = u @ rho.matrix @ u.conj().T
    return DensityMatrix((rotated + rotated.conj().T) / 2.0), exact, info


def run_cli(tracer, argv) -> tuple[int, str, float]:
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = tracer.call("cli.main", gqd.cli.main, argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), perf_counter() - t0


# Cross-module calls that gqd.cli makes, wrapped in its namespace when
# tracing so that CLI spans have per-layer children.
CLI_CALLEES = ("load_state_document", "gqd_numeric", "scan_gqd_vs_p", "run_checks")


@dataclass
class SolveOp:
    """One numeric discord solve, in-process or through ``gqd compute``."""

    label: str
    n: int
    family: str
    rho: DensityMatrix
    exact: float | None
    opt_seed: int
    info: dict
    doc: Path | None = None

    def inputs(self) -> dict:
        return {"label": self.label, "n": self.n, "family": self.family,
                "optimizer_seed": self.opt_seed, "document": self.doc.name if self.doc else "",
                **self.info}

    def run(self, tracer) -> OpResult:
        if self.doc is None:
            t0 = perf_counter()
            res = tracer.call("discord.gqd_numeric", gqd_numeric, self.rho,
                              OptimizerOptions(seed=self.opt_seed))
            seconds = perf_counter() - t0
            value, measurement = res.value, res.optimal_measurement
            diag = res.diagnostics
            raw, converged, evaluations = diag.raw_value, diag.converged, diag.evaluations
        else:
            argv = ["compute", "--input", str(self.doc), "--starts", str(WIDE_STARTS),
                    "--seed", str(self.opt_seed)]
            with tracer.patched(gqd.cli, CLI_CALLEES, "cli"):
                code, stdout, seconds = run_cli(tracer, argv)
            record, problems = checking.parse_compute_output(code, stdout)
            if problems:
                return OpResult(seconds, 0, problems)
            value, measurement = record["value"], checking.measurement_from_record(record)
            diag = record["diagnostics"]
            raw, converged, evaluations = diag["raw_value"], bool(diag["converged"]), diag["evaluations"]
        i_rho = tracer.call("qcore.mutual_information", mutual_information, self.rho)
        reeval = tracer.call("measurement.measurement_objective",
                             measurement_objective, self.rho, measurement)
        problems = checking.check_solve(value, raw, converged, i_rho, reeval, self.exact,
                                        reach_exact=self.doc is None)
        gap = None if self.exact is None else value - self.exact
        return OpResult(seconds, 1, problems, converged, evaluations, gap)


def _dense_cycles(seed: int, workdir: Path | None, small_n: int, large_n: int,
                  n_cycles: int) -> list[list[SolveOp]]:
    rng = np.random.default_rng(seed)
    cycles = []
    for c in range(n_cycles):
        cycle = []
        shapes = [(small_n, f) for f in FAMILIES] + [(large_n, FAMILIES[c % 3])]
        for i, (n, family) in enumerate(shapes):
            rho, exact, info = random_state(family, n, rng)
            op = SolveOp(f"c{c}-{i}-n{n}-{family}", n, family, rho, exact, _seed(rng), info)
            if workdir is not None:
                op.doc = workdir / f"{op.label}.json"
                save_state_document(str(op.doc), StateDocument("dense", n, matrix=rho.matrix))
            cycle.append(op)
        cycles.append(cycle)
    return cycles


def dense_small(seed: int, workdir: Path) -> list[list[SolveOp]]:
    """Three N = 2 solves and one N = 3 solve per cycle, default options."""
    return _dense_cycles(seed, None, 2, 3, n_cycles=16)


def dense_wide(seed: int, workdir: Path) -> list[list[SolveOp]]:
    """Three N = 6 and one N = 7 ``gqd compute`` calls per cycle."""
    return _dense_cycles(seed, workdir, 6, 7, n_cycles=4)


@dataclass
class ScanOp:
    """``scan_gqd_vs_p`` on a fine grid."""

    label: str
    params: PauliDiagonalParams

    def inputs(self) -> dict:
        p = self.params
        return {"label": self.label, "n": p.n_qubits, "c": [p.c1, p.c2, p.c3],
                "grid_points": SCAN_POINTS}

    def run(self, tracer) -> OpResult:
        grid = np.linspace(0.0, 1.0, SCAN_POINTS)
        t0 = perf_counter()
        records, report = tracer.call("dynamics.scan_gqd_vs_p", scan_gqd_vs_p,
                                      self.params, grid)
        seconds = perf_counter() - t0
        predicted = tracer.call("dynamics.sudden_transition_point",
                                sudden_transition_point, self.params)
        problems = checking.check_scan(self.params, grid, records, report, predicted)
        return OpResult(seconds, SCAN_POINTS, problems)


@dataclass
class DephaseScanCliOp:
    """``gqd dephase-scan`` into a CSV file."""

    label: str
    params: PauliDiagonalParams
    out: Path

    def inputs(self) -> dict:
        p = self.params
        return {"label": self.label, "n": p.n_qubits, "c": [p.c1, p.c2, p.c3],
                "p_steps": SCAN_POINTS}

    def run(self, tracer) -> OpResult:
        p = self.params
        argv = ["dephase-scan", "--n", str(p.n_qubits), "--c1", repr(p.c1),
                "--c2", repr(p.c2), "--c3", repr(p.c3), "--p-steps", str(SCAN_POINTS),
                "--out", str(self.out)]
        with tracer.patched(gqd.cli, CLI_CALLEES, "cli"):
            code, stdout, seconds = run_cli(tracer, argv)
        csv_text = self.out.read_text(encoding="utf-8") if code == 0 else ""
        predicted = sudden_transition_point(p)
        problems = checking.check_dephase_scan_output(
            code, stdout, csv_text, p, SCAN_POINTS, predicted)
        return OpResult(seconds, SCAN_POINTS, problems)


@dataclass
class Figure1CliOp:
    """``gqd figure1`` over many qubit counts into a CSV file."""

    label: str
    out: Path

    def inputs(self) -> dict:
        return {"label": self.label, "n_list": list(FIGURE1_N_LIST),
                "mu_steps": FIGURE1_MU_STEPS}

    def run(self, tracer) -> OpResult:
        argv = ["figure1", "--n-list", ",".join(map(str, FIGURE1_N_LIST)),
                "--mu-steps", str(FIGURE1_MU_STEPS), "--out", str(self.out)]
        code, _, seconds = run_cli(tracer, argv)
        csv_text = self.out.read_text(encoding="utf-8") if code == 0 else ""
        problems = checking.check_figure1_output(code, csv_text, FIGURE1_N_LIST,
                                                 FIGURE1_MU_STEPS)
        return OpResult(seconds, len(FIGURE1_N_LIST) * FIGURE1_MU_STEPS, problems)


def closed_sweep(seed: int, workdir: Path) -> list[list[object]]:
    """Library scans at N = 2..5, one dephase-scan and one figure1 per cycle.

    Half the scans of a cycle have a sudden transition and half do not; the
    halves swap between cycles so every N sees both cases.
    """
    rng = np.random.default_rng(seed)
    cycles = []
    for c in range(8):
        cycle: list[object] = []
        for n in (2, 3, 4, 5):
            transition = (n + c) % 2 == 0
            params = random_pauli_params(n, rng, transition)
            cycle.append(ScanOp(f"c{c}-scan-n{n}-{'kink' if transition else 'flat'}", params))
        n = 2 + c % 4
        params = random_pauli_params(n, rng, transition=c % 2 == 0)
        cycle.append(DephaseScanCliOp(f"c{c}-dephase-scan-n{n}", params,
                                      workdir / f"c{c}-dephase.csv"))
        cycle.append(Figure1CliOp(f"c{c}-figure1", workdir / f"c{c}-figure1.csv"))
        cycles.append(cycle)
    return cycles


@dataclass
class VerifyCliOp:
    """``gqd verify --scope all`` with a seeded check seed."""

    label: str
    check_seed: int

    def inputs(self) -> dict:
        return {"label": self.label, "seed": self.check_seed, "trials": VERIFY_TRIALS}

    def run(self, tracer) -> OpResult:
        argv = ["verify", "--scope", "all", "--seed", str(self.check_seed),
                "--trials", str(VERIFY_TRIALS)]
        with tracer.patched(gqd.cli, CLI_CALLEES, "cli"):
            code, stdout, seconds = run_cli(tracer, argv)
        return OpResult(seconds, 1, checking.check_verify_output(code, stdout))


def verify(seed: int, workdir: Path) -> list[list[object]]:
    rng = np.random.default_rng(seed)
    return [[VerifyCliOp(f"c{c}-verify", _seed(rng))] for c in range(4)]


@dataclass(frozen=True)
class Workload:
    make: object   # (seed, workdir) -> list of cycles
    item: str      # what one item of work is


WORKLOADS = {
    "dense-small": Workload(dense_small, "solve"),
    "dense-wide": Workload(dense_wide, "solve"),
    "closed-sweep": Workload(closed_sweep, "grid point"),
    "verify": Workload(verify, "verify run"),
}


def describe_inputs(cycles) -> list[dict]:
    """Every generated input, for determinism checks and failure reports."""
    out = []
    for cycle in cycles:
        for op in cycle:
            d = op.inputs()
            if isinstance(op, SolveOp):
                d["matrix_sha256"] = hashlib.sha256(op.rho.matrix.tobytes()).hexdigest()
                d["exact"] = op.exact
            out.append(d)
    return out
