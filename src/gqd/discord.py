"""Global quantum discord: numerical minimization and closed-form families.

The global quantum discord of an N-qubit state is the smallest
mutual-information loss achievable by an unread local projective measurement,

    D(rho) = min_Phi [ I(rho) - I(Phi(rho)) ],

minimized over one Bloch direction per qubit. Two families admit closed
forms, implemented here next to the generic optimizer:

* ``werner_ghz``: an N-qubit GHZ projector mixed with white noise;
* ``pauli_diagonal``: states of the form
  ``(I + c1 X...X + c2 Y...Y + c3 Z...Z) / 2**n``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .measurement import (
    LocalMeasurement,
    _angles_to_unitaries,
    _measured_distribution,
)
from .qcore import (
    DensityMatrix,
    Spectrum,
    _entropy_bits,
    binary_entropy,
    mutual_information,
    partial_trace,
    pauli_string,
    shannon_entropy,
    von_neumann_entropy,
)

__all__ = [
    "InvalidParamsError",
    "QubitLimitError",
    "WernerGhzParams",
    "PauliDiagonalParams",
    "ConstraintCheck",
    "ValidationReport",
    "validate_pauli_params",
    "require_valid_pauli_params",
    "OptimizerOptions",
    "OptimizerDiagnostics",
    "GqdResult",
    "ghz_vector",
    "werner_ghz_state",
    "gqd_werner_ghz",
    "gqd_werner_ghz_asymptotic",
    "pauli_diagonal_state",
    "pauli_diagonal_spectrum",
    "gqd_pauli_diagonal",
    "gqd_numeric",
    "gqd_maximally_mixed",
]

# Slack accepted on the closed-form validity bounds, so that states sitting
# exactly on the boundary (pure GHZ, Bell mixtures with a zero weight) are
# not rejected over float rounding.
_PARAM_TOL = 1e-12


class InvalidParamsError(ValueError):
    """Family parameters violate their validity constraints."""


class QubitLimitError(ValueError):
    """A dense computation was requested above the configured qubit limit."""


def _check_n_qubits(n) -> None:
    # A plain type test: bool is an int subclass, and this runs once per
    # grid point of a dephasing scan.
    if type(n) is not int:
        raise InvalidParamsError(f"n_qubits must be an integer, got {n!r}")
    if n < 2:
        raise InvalidParamsError(f"n_qubits must be >= 2, got {n}")


@dataclass(frozen=True)
class WernerGhzParams:
    """White noise mixed with an N-qubit GHZ projector, weight ``mu``."""

    n_qubits: int
    mu: float

    def __post_init__(self):
        _check_n_qubits(self.n_qubits)
        if not 0.0 <= self.mu <= 1.0:
            raise InvalidParamsError(f"mu must lie in [0, 1], got {self.mu!r}")


@dataclass(frozen=True)
class PauliDiagonalParams:
    """Coefficients of ``(I + c1 X...X + c2 Y...Y + c3 Z...Z) / 2**n``.

    Construction only checks types and ranges; whether the coefficients give
    a positive state depends on the parity of ``n_qubits`` and is reported by
    :func:`validate_pauli_params`.
    """

    n_qubits: int
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        _check_n_qubits(self.n_qubits)
        for name in ("c1", "c2", "c3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParamsError(f"{name} must be finite, got {v!r}")

    def coefficients(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    value: float
    low: float
    high: float


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail record for each positivity constraint of a parameter set."""

    ok: bool
    checks: tuple[ConstraintCheck, ...]

    def failure_message(self) -> str | None:
        for c in self.checks:
            if not c.passed:
                return (
                    f"{c.name} = {c.value:.12g} out of range "
                    f"[{c.low:g}, {c.high:g}]"
                )
        return None


def _even_parity_sign(n_qubits: int) -> float:
    return -1.0 if (n_qubits // 2) % 2 else 1.0


def _pauli_lambdas(params: PauliDiagonalParams) -> np.ndarray:
    """The four spectral weights of an even-N state, each of total mass 1/4."""
    c1, c2, c3 = params.coefficients()
    s = _even_parity_sign(params.n_qubits)
    return np.array(
        [
            (1.0 + c3 + c1 + s * c2) / 4.0,
            (1.0 + c3 - c1 - s * c2) / 4.0,
            (1.0 - c3 + c1 - s * c2) / 4.0,
            (1.0 - c3 - c1 + s * c2) / 4.0,
        ]
    )


def validate_pauli_params(params: PauliDiagonalParams) -> ValidationReport:
    """Report whether the coefficients define a positive state.

    For odd ``n_qubits`` the single constraint is
    ``d = sqrt(c1^2 + c2^2 + c3^2) <= 1``. For even ``n_qubits`` the four
    spectral weights ``lambda_j`` must each lie in ``[0, 1]``.
    """
    checks = []
    if params.n_qubits % 2:
        d = math.sqrt(params.c1**2 + params.c2**2 + params.c3**2)
        checks.append(
            ConstraintCheck("d", d <= 1.0 + _PARAM_TOL, d, 0.0, 1.0)
        )
    else:
        for j, lam in enumerate(_pauli_lambdas(params), start=1):
            ok = -_PARAM_TOL <= lam <= 1.0 + _PARAM_TOL
            checks.append(ConstraintCheck(f"lambda{j}", ok, float(lam), 0.0, 1.0))
    return ValidationReport(all(c.passed for c in checks), tuple(checks))


def require_valid_pauli_params(params: PauliDiagonalParams) -> None:
    report = validate_pauli_params(params)
    if not report.ok:
        raise InvalidParamsError(
            f"pauli-diagonal coefficients invalid: {report.failure_message()}"
        )


def ghz_vector(n_qubits: int) -> np.ndarray:
    """State vector ``(|0...0> + |1...1>) / sqrt(2)``."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    v = np.zeros(2**n_qubits, dtype=np.complex128)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return v


def werner_ghz_state(params: WernerGhzParams) -> DensityMatrix:
    """Dense matrix of the GHZ-plus-white-noise mixture."""
    n, mu = params.n_qubits, params.mu
    d = 2**n
    mat = np.eye(d, dtype=np.complex128) * ((1.0 - mu) / d)
    half = mu / 2.0
    mat[0, 0] += half
    mat[-1, -1] += half
    mat[0, -1] += half
    mat[-1, 0] += half
    return DensityMatrix(mat)


def _xlog2(t: float) -> float:
    return 0.0 if t <= 0.0 else t * math.log2(t)


def gqd_werner_ghz(params: WernerGhzParams) -> float:
    """Closed-form global quantum discord of the GHZ-noise mixture, in bits.

    With ``a = (1 - mu) / 2**n``,

        D = (a + mu) log2(a + mu) + a log2(a) - 2 (a + mu/2) log2(a + mu/2).

    The optimal measurement is along z on every qubit. ``a`` is scaled by
    ``ldexp``, so it underflows to 0 and ``D`` tends to ``mu`` for large N
    instead of overflowing.
    """
    a = math.ldexp(1.0 - params.mu, -params.n_qubits)
    return (
        _xlog2(a + params.mu) + _xlog2(a) - 2.0 * _xlog2(a + params.mu / 2.0)
    )


def gqd_werner_ghz_asymptotic(mu: float) -> float:
    """Large-N limit of the GHZ-noise discord: exactly ``mu`` bits."""
    if not 0.0 <= mu <= 1.0:
        raise InvalidParamsError(f"mu must lie in [0, 1], got {mu!r}")
    return float(mu)


def pauli_diagonal_state(params: PauliDiagonalParams) -> DensityMatrix:
    """Dense matrix ``(I + c1 X...X + c2 Y...Y + c3 Z...Z) / 2**n``."""
    require_valid_pauli_params(params)
    n = params.n_qubits
    d = 2**n
    mat = np.eye(d, dtype=np.complex128)
    for c, axis in zip(params.coefficients(), ("x", "y", "z")):
        if c != 0.0:
            mat += c * pauli_string(axis, n)
    return DensityMatrix(mat / d)


def pauli_diagonal_spectrum(params: PauliDiagonalParams) -> Spectrum:
    """Exact eigenvalues of the state, with multiplicities expanded.

    Even ``n``: the four values ``lambda_j / 2**(n-2)`` each repeated
    ``2**(n-2)`` times. Odd ``n``: ``(1 +/- d) / 2**n`` each repeated
    ``2**(n-1)`` times.
    """
    require_valid_pauli_params(params)
    n = params.n_qubits
    if n % 2:
        d = math.sqrt(params.c1**2 + params.c2**2 + params.c3**2)
        vals = np.repeat(
            [(1.0 + d) / 2**n, (1.0 - d) / 2**n], 2 ** (n - 1)
        )
    else:
        lam = np.clip(_pauli_lambdas(params), 0.0, None)
        vals = np.repeat(lam / 2 ** (n - 2), 2 ** (n - 2))
    return Spectrum(vals)


def gqd_pauli_diagonal(params: PauliDiagonalParams) -> float:
    """Closed-form global quantum discord of a Pauli-string mixture, in bits.

    ``D = f - g`` where ``f`` is the binary entropy of
    ``(1 + c) / 2`` with ``c = max(|c1|, |c2|, |c3|)``, and ``g`` is the
    same expression with ``d = sqrt(c1^2 + c2^2 + c3^2)`` for odd ``n`` or
    ``-1 + H(lambda)`` built from the four spectral weights for even ``n``.
    The optimal measurement aligns every qubit with the axis whose
    coefficient has the largest magnitude.
    """
    require_valid_pauli_params(params)
    c = max(abs(v) for v in params.coefficients())
    f = binary_entropy((1.0 + c) / 2.0)
    if params.n_qubits % 2:
        d = math.sqrt(params.c1**2 + params.c2**2 + params.c3**2)
        g = binary_entropy((1.0 + min(d, 1.0)) / 2.0)
    else:
        lam = np.clip(_pauli_lambdas(params), 0.0, None)
        g = -1.0 + shannon_entropy(lam)
    return f - g


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the numeric minimization.

    ``starts`` defaults to ``8 * n_qubits``: the three fixed axis starts
    (z, x, y on every qubit) plus seeded random directions. ``threads``
    overrides the ``GQD_THREADS`` environment variable; 0 means one thread
    per CPU, capped by the number of starts.
    """

    seed: int = 0
    starts: int | None = None
    max_evals_per_start: int = 2000
    f_tol: float = 1e-10
    x_tol: float = 1e-5
    max_qubits: int = 12
    threads: int | None = None
    seed_measurements: tuple[LocalMeasurement, ...] = ()


@dataclass(frozen=True)
class OptimizerDiagnostics:
    starts: int
    iterations: int
    evaluations: int
    best_objective_history_length: int
    seed: int
    raw_value: float
    converged: bool


@dataclass(frozen=True)
class GqdResult:
    """Outcome of a discord computation.

    ``value`` is clipped at zero; the raw minimum survives in
    ``diagnostics.raw_value`` when the numeric route produced it.
    """

    value: float
    method: str
    optimal_measurement: LocalMeasurement | None = None
    diagnostics: OptimizerDiagnostics | None = None


def _resolve_threads(requested: int | None, n_tasks: int) -> int:
    if requested is None:
        env = os.environ.get("GQD_THREADS", "").strip()
        if not env:
            return 1
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"GQD_THREADS must be an integer, got {env!r}")
    if requested < 0:
        raise ValueError(f"thread count must be >= 0, got {requested}")
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, n_tasks))


_AXIS_ANGLES = {
    "z": (0.0, 0.0),
    "x": (math.pi / 2.0, 0.0),
    "y": (math.pi / 2.0, math.pi / 2.0),
}


def _start_points(n: int, opts: OptimizerOptions) -> list[np.ndarray]:
    total = opts.starts if opts.starts is not None else 8 * n
    if total < 1:
        raise ValueError(f"starts must be >= 1, got {total}")
    points = []
    for axis in ("z", "x", "y")[: min(3, total)]:
        theta, phi = _AXIS_ANGLES[axis]
        points.append(np.tile([theta, phi], n))
    for m in opts.seed_measurements:
        if m.n_qubits != n:
            raise ValueError(
                f"seed measurement covers {m.n_qubits} qubits, expected {n}"
            )
        angles = []
        for d in m.directions:
            angles.append(math.atan2(math.hypot(d.x, d.y), d.z))
            angles.append(math.atan2(d.y, d.x))
        points.append(np.array(angles))
    rng = np.random.default_rng(opts.seed)
    while len(points) < total + len(opts.seed_measurements):
        z = rng.uniform(-1.0, 1.0, size=n)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        theta = np.arccos(z)
        points.append(np.column_stack([theta, phi]).ravel())
    return points


def _measured_probabilities(rho_mat: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Outcome distribution of the measurement at ``[theta_0, phi_0, ...]``."""
    unitaries = _angles_to_unitaries(angles[0::2], angles[1::2])
    return _measured_distribution(rho_mat, unitaries).real


def _run_starts(objective, points, opts: OptimizerOptions):
    """Minimize from every start; reduce deterministically by (value, index)."""

    def run(x0):
        return minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": opts.max_evals_per_start,
                "fatol": opts.f_tol,
                "xatol": opts.x_tol,
            },
        )

    n_threads = _resolve_threads(opts.threads, len(points))
    if n_threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run, points))
    else:
        results = [run(x0) for x0 in points]

    best_idx = 0
    history = 0
    best_val = math.inf
    for i, r in enumerate(results):
        if r.fun < best_val:
            best_val = r.fun
            best_idx = i
            history += 1
    best = results[best_idx]
    diag = OptimizerDiagnostics(
        starts=len(points),
        iterations=int(sum(r.nit for r in results)),
        evaluations=int(sum(r.nfev for r in results)),
        best_objective_history_length=history,
        seed=opts.seed,
        raw_value=float(best.fun),
        converged=bool(best.success),
    )
    return best, diag


def _is_maximally_mixed(rho: DensityMatrix) -> bool:
    d = rho.dim
    return bool(np.max(np.abs(rho.matrix - np.eye(d) / d)) <= 1e-12)


def _check_numeric_size(rho: DensityMatrix, opts: OptimizerOptions) -> None:
    n = rho.n_qubits
    if n < 2:
        raise ValueError(f"discord needs >= 2 qubits, got {n}")
    if n > opts.max_qubits:
        raise QubitLimitError(
            f"state has {n} qubits, above the dense limit of {opts.max_qubits}"
        )


def _short_circuit_result(n: int, opts: OptimizerOptions, method: str) -> GqdResult:
    return GqdResult(
        value=0.0,
        method=method,
        optimal_measurement=LocalMeasurement.along_axis("z", n),
        diagnostics=OptimizerDiagnostics(
            starts=0,
            iterations=0,
            evaluations=0,
            best_objective_history_length=0,
            seed=opts.seed,
            raw_value=0.0,
            converged=True,
        ),
    )


def gqd_numeric(rho: DensityMatrix, opts: OptimizerOptions | None = None) -> GqdResult:
    """Global quantum discord by multi-start minimization over measurements.

    Parameterizes each qubit's direction by two angles and refines every
    start with a derivative-free simplex search. Deterministic for a fixed
    ``opts.seed`` regardless of how the starts are scheduled.
    """
    opts = opts or OptimizerOptions()
    _check_numeric_size(rho, opts)
    n = rho.n_qubits
    if _is_maximally_mixed(rho):
        return _short_circuit_result(n, opts, "numeric")

    rho_mat = rho.matrix
    i_rho = mutual_information(rho)
    # Bloch vector r_j = (2 Re m01, -2 Im m01, m00 - m11) of each marginal m.
    marginals = np.array([partial_trace(rho, {j}).matrix for j in range(n)])
    rx, ry = 2.0 * marginals[:, 0, 1].real, -2.0 * marginals[:, 0, 1].imag
    rz = (marginals[:, 0, 0] - marginals[:, 1, 1]).real

    def objective(angles: np.ndarray) -> float:
        s_phi = _entropy_bits(_measured_probabilities(rho_mat, angles))
        # Qubit j's measured marginal is (1 +/- n_j . r_j) / 2 for the unit
        # direction n_j at angles (theta_j, phi_j).
        sin, cos = np.sin(angles), np.cos(angles)
        dots = sin[0::2] * (cos[1::2] * rx + sin[1::2] * ry) + cos[0::2] * rz
        marg_sum = _entropy_bits(np.concatenate([1.0 + dots, 1.0 - dots]) / 2.0)
        return i_rho - (marg_sum - s_phi)

    best, diag = _run_starts(objective, _start_points(n, opts), opts)
    return GqdResult(
        value=max(float(best.fun), 0.0),
        method="numeric",
        optimal_measurement=LocalMeasurement.from_angles(best.x).canonicalized(),
        diagnostics=diag,
    )


def gqd_maximally_mixed(
    rho: DensityMatrix, opts: OptimizerOptions | None = None
) -> GqdResult:
    """Discord shortcut for states whose one-qubit marginals are all ``I/2``.

    For such states the objective reduces to the measured-state entropy, so
    ``D = min_Phi S(Phi(rho)) - S(rho)``. Raises if any marginal deviates
    from ``I/2`` by more than 1e-8, naming the offending qubit.
    """
    opts = opts or OptimizerOptions()
    _check_numeric_size(rho, opts)
    n = rho.n_qubits
    for j in range(n):
        dev = np.max(np.abs(partial_trace(rho, {j}).matrix - np.eye(2) / 2.0))
        if dev > 1e-8:
            raise ValueError(
                f"qubit {j} marginal deviates from I/2 by {dev:.3e}, "
                "shortcut requires maximally mixed marginals"
            )
    if _is_maximally_mixed(rho):
        return _short_circuit_result(n, opts, "maximally_mixed")

    rho_mat = rho.matrix
    s_rho = von_neumann_entropy(rho)

    def objective(angles: np.ndarray) -> float:
        return _entropy_bits(_measured_probabilities(rho_mat, angles))

    best, diag = _run_starts(objective, _start_points(n, opts), opts)
    raw = float(best.fun) - s_rho
    return GqdResult(
        value=max(raw, 0.0),
        method="maximally_mixed",
        optimal_measurement=LocalMeasurement.from_angles(best.x).canonicalized(),
        diagnostics=replace(diag, raw_value=raw),
    )
