"""Self-verification suites: algebraic identities and closed-form agreement.

Every check is deterministic for a fixed seed and reports its worst observed
margin next to the tolerance it was held to. The ``lemmas`` scope covers the
algebraic identities the discord computation leans on; the ``theorems``
scope cross-validates the two objective routes, the optimizer, and the
closed forms against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discord import (
    OptimizerOptions,
    PauliDiagonalParams,
    WernerGhzParams,
    _pauli_diagonal_bits,
    _pauli_weights,
    _werner_ghz_bits,
    gqd_maximally_mixed,
    gqd_numeric,
    gqd_pauli_diagonal,
    gqd_werner_ghz,
    pauli_diagonal_state,
    validate_pauli_params,
    werner_ghz_state,
)
from .measurement import (
    LocalMeasurement,
    apply_local_measurement,
    measurement_objective,
    relative_entropy_objective,
)
from .qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_rotation,
    diagonal_pinch,
    majorizes,
    partial_trace,
    random_bloch_vector,
    random_density_matrix,
    random_unitary,
    shannon_entropy,
    von_neumann_entropy,
)

__all__ = ["CheckResult", "SCOPES", "MAX_TRIALS", "run_checks", "random_valid_pauli_params"]

# Most trials one run may ask for, 100 times the default. The numeric checks
# solve trials // 20 states each, so a larger value would run for minutes.
MAX_TRIALS = 10_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    passed: bool
    margin: float
    tolerance: float
    detail: str = ""


def random_valid_pauli_params(
    n_qubits: int, rng: np.random.Generator
) -> PauliDiagonalParams:
    """Rejection-sample a coefficient triple that passes validation."""
    while True:
        c1, c2, c3 = rng.uniform(-1.0, 1.0, size=3)
        params = PauliDiagonalParams(n_qubits, float(c1), float(c2), float(c3))
        if validate_pauli_params(params).ok:
            return params


def _result(name, scope, margin, tol, detail=""):
    return CheckResult(name, scope, margin <= tol, float(margin), tol, detail)


def check_pinch_trace(seed: int, trials: int) -> CheckResult:
    """tr(A diag(B)) == tr(diag(A) diag(B)), and the same under f = exp."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b_bar = diagonal_pinch(b)
        lhs = np.trace(a @ b_bar)
        rhs = np.trace(diagonal_pinch(a) @ b_bar)
        worst = max(worst, abs(lhs - rhs))
        f_b = np.diag(np.exp(np.diag(b_bar)))
        lhs_f = np.trace(a @ f_b)
        rhs_f = np.trace(diagonal_pinch(a) @ f_b)
        worst = max(worst, abs(lhs_f - rhs_f))
    return _result("pinch-trace-identity", "lemmas", worst, 1e-9)


def check_product_log_additivity(seed: int, trials: int) -> CheckResult:
    """tr[rho log2(s1 x s2 x ...)] == sum_i tr[rho_i log2 s_i]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        rho = random_density_matrix(n, rng)
        logs = []
        log_total = None
        for _ in range(n):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            s = g @ g.conj().T + 0.05 * np.eye(2)
            s /= np.trace(s).real
            w, v = np.linalg.eigh(s)
            log_s = (v * np.log2(w)) @ v.conj().T
            logs.append(log_s)
            log_total = (
                log_s
                if log_total is None
                else np.kron(log_total, np.eye(2)) + np.kron(np.eye(len(log_total)), log_s)
            )
        lhs = np.trace(rho.matrix @ log_total).real
        rhs = sum(
            np.trace(partial_trace(rho, {i}).matrix @ logs[i]).real for i in range(n)
        )
        worst = max(worst, abs(lhs - rhs))
    return _result("product-log-additivity", "lemmas", worst, 1e-9)


def check_rotation_homomorphism(seed: int, trials: int) -> CheckResult:
    """u (r.sigma) u^dagger == (R r).sigma with det R = 1."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = random_unitary(2, rng)
        r = bloch_rotation(u)
        vec = random_bloch_vector(rng).as_array()
        lhs = u @ (vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z) @ u.conj().T
        rot = r @ vec
        rhs = rot[0] * PAULI_X + rot[1] * PAULI_Y + rot[2] * PAULI_Z
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        worst = max(worst, abs(float(np.linalg.det(r)) - 1.0))
    return _result("rotation-homomorphism", "lemmas", worst, 1e-9)


def check_majorization_monotonicity(seed: int, trials: int) -> CheckResult:
    """Mixing by permutations lowers no partial sum and raises entropy."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        size = int(rng.integers(2, 9))
        q = rng.dirichlet(np.ones(size))
        weights = rng.dirichlet(np.ones(4))
        p = np.zeros(size)
        for w in weights:
            p += w * rng.permutation(q)
        if not majorizes(p, q):
            return CheckResult(
                "majorization-monotonicity", "lemmas", False, math.inf, 1e-12,
                "permutation mixture not majorized by source",
            )
        worst = max(worst, shannon_entropy(q) - shannon_entropy(p))
    return _result("majorization-monotonicity", "lemmas", worst, 1e-12)


def check_objective_forms(seed: int, trials: int) -> CheckResult:
    """Mutual-information and relative-entropy objective routes agree."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        rho = random_density_matrix(n, rng)
        m = LocalMeasurement(tuple(random_bloch_vector(rng) for _ in range(n)))
        worst = max(
            worst,
            abs(measurement_objective(rho, m) - relative_entropy_objective(rho, m)),
        )
    return _result("objective-two-routes", "theorems", worst, 1e-9)


def check_mixed_marginal_shortcut(seed: int, trials: int) -> CheckResult:
    """At ``I/2`` marginals the discord is dense ``S(Phi(rho)) - S(rho)`` at its measurement."""
    rng = np.random.default_rng(seed)
    opts = OptimizerOptions(seed=seed)
    worst = 0.0
    count = max(2, trials // 20)
    for _ in range(count):
        n = int(rng.integers(2, 4))
        if rng.uniform() < 0.5:
            rho = werner_ghz_state(WernerGhzParams(n, float(rng.uniform())))
        else:
            rho = pauli_diagonal_state(random_valid_pauli_params(n, rng))
        res = gqd_maximally_mixed(rho, opts)
        dense = von_neumann_entropy(apply_local_measurement(rho, res.optimal_measurement))
        worst = max(worst, abs(res.diagnostics.raw_value - (dense - von_neumann_entropy(rho))))
    return _result("mixed-marginal-shortcut", "theorems", worst, 1e-9)


def check_werner_ghz_closed_form(seed: int, trials: int) -> CheckResult:
    """Numeric minimization reproduces the GHZ-mixture closed form."""
    opts = OptimizerOptions(seed=seed)
    worst = 0.0
    for n in (2, 3):
        for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
            params = WernerGhzParams(n, mu)
            numeric = gqd_numeric(werner_ghz_state(params), opts).value
            worst = max(worst, abs(numeric - gqd_werner_ghz(params)))
    return _result("werner-ghz-closed-form", "theorems", worst, 1e-4)


def check_pauli_diagonal_closed_form(seed: int, trials: int) -> CheckResult:
    """Numeric minimization reproduces the Pauli-mixture closed form."""
    rng = np.random.default_rng(seed)
    opts = OptimizerOptions(seed=seed)
    worst = 0.0
    per_n = max(2, trials // 20)
    for n in (2, 3, 4):
        for _ in range(per_n):
            params = random_valid_pauli_params(n, rng)
            numeric = gqd_numeric(pauli_diagonal_state(params), opts).value
            worst = max(worst, abs(numeric - gqd_pauli_diagonal(params)))
    return _result("pauli-diagonal-closed-form", "theorems", worst, 1e-4)


def check_asymptote_deviation(seed: int, trials: int) -> list[CheckResult]:
    """The GHZ-mixture discord approaches ``mu`` at the documented rates."""
    mus = np.linspace(0.0, 1.0, 101)
    out = []
    for n, tol in ((10, 1e-2), (14, 1e-3), (17, 1e-4)):
        # The asymptote, gqd_werner_ghz_asymptotic, is mu itself.
        dev = float(np.max(np.abs(_werner_ghz_bits(n, mus) - mus)))
        out.append(_result(f"asymptote-deviation-n{n}", "theorems", dev, tol))
    return out


def check_cross_family(seed: int, trials: int) -> CheckResult:
    """The two closed forms agree where the families coincide (n = 2)."""
    mus = np.linspace(0.0, 1.0, 51)
    # (mu, -mu, mu) is a positive state for every mu in [0, 1].
    pauli = _pauli_diagonal_bits(2, mus, -mus, mus, _pauli_weights(2, mus, -mus, mus))
    worst = float(np.max(np.abs(_werner_ghz_bits(2, mus) - pauli)))
    return _result("cross-family-agreement", "theorems", worst, 1e-12)


SCOPES = ("lemmas", "theorems", "all")


def run_checks(scope: str = "all", seed: int = 0, trials: int = 100) -> list[CheckResult]:
    """Run one verification scope and collect the results.

    Raises ValueError, before any check runs, for an unknown scope,
    ``trials`` outside ``[1, MAX_TRIALS]`` or a negative ``seed``.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_TRIALS}], got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    results: list[CheckResult] = []
    if scope in ("lemmas", "all"):
        results.append(check_pinch_trace(seed, trials))
        results.append(check_product_log_additivity(seed, trials))
        results.append(check_rotation_homomorphism(seed, trials))
        results.append(check_majorization_monotonicity(seed, trials))
    if scope in ("theorems", "all"):
        results.append(check_objective_forms(seed, trials))
        results.append(check_mixed_marginal_shortcut(seed, trials))
        results.append(check_werner_ghz_closed_form(seed, trials))
        results.append(check_pauli_diagonal_closed_form(seed, trials))
        results.extend(check_asymptote_deviation(seed, trials))
        results.append(check_cross_family(seed, trials))
    return results
