"""Acceptance suite: one test per release criterion.

Each test states its criterion in the name; the conftest hook prints a
one-line PASS/FAIL verdict per criterion at the end of the run. Tolerances
are pinned here and must not be loosened.
"""

import math
import time

import numpy as np

from gqd.checks import random_valid_pauli_params, run_checks
from gqd.cli import main
from gqd.discord import (
    OptimizerOptions,
    PauliDiagonalParams,
    WernerGhzParams,
    gqd_numeric,
    gqd_pauli_diagonal,
    gqd_werner_ghz,
    gqd_werner_ghz_asymptotic,
    pauli_diagonal_state,
    werner_ghz_state,
)
from gqd.dynamics import scan_gqd_vs_p, sudden_transition_point
from gqd.measurement import (
    LocalMeasurement,
    measurement_objective,
    relative_entropy_objective,
)
from gqd.qcore import (
    DensityMatrix,
    binary_entropy,
    random_bloch_vector,
    random_density_matrix,
    random_unitary,
    tensor_product,
)

ACCEPTANCE_SEED = 20240815


def random_local_unitary(n, rng):
    u = random_unitary(2, rng)
    for _ in range(n - 1):
        u = tensor_product(u, random_unitary(2, rng))
    return u


def test_criterion_01_ghz_mixture_numeric_matches_closed_form():
    """Numeric optimizer reproduces the GHZ-mixture closed form."""
    t0 = time.perf_counter()
    for n in (2, 3):
        for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
            params = WernerGhzParams(n, mu)
            got = gqd_numeric(werner_ghz_state(params), OptimizerOptions(seed=ACCEPTANCE_SEED))
            assert abs(got.value - gqd_werner_ghz(params)) <= 1e-4, (n, mu)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"grid took {elapsed:.1f}s, budget is 2 minutes"
    for n in (2, 3):
        assert abs(gqd_werner_ghz(WernerGhzParams(n, 0.0))) <= 1e-9
        assert abs(gqd_werner_ghz(WernerGhzParams(n, 1.0)) - 1.0) <= 1e-9


def test_criterion_02_correlation_diagonal_numeric_matches_closed_form():
    """Numeric optimizer reproduces the correlation-diagonal closed form."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    opts = OptimizerOptions(seed=ACCEPTANCE_SEED, starts=8)
    for n in (2, 3, 4):
        for _ in range(20):
            params = random_valid_pauli_params(n, rng)
            got = gqd_numeric(pauli_diagonal_state(params), opts)
            want = gqd_pauli_diagonal(params)
            assert abs(got.value - want) <= 1e-4, (n, params.coefficients())
    assert abs(gqd_pauli_diagonal(PauliDiagonalParams(2, 1.0, -1.0, 1.0)) - 1.0) <= 1e-9
    assert abs(gqd_pauli_diagonal(PauliDiagonalParams(2, 1.0, 0.0, 0.0))) <= 1e-9


def test_criterion_03_large_n_asymptote_deviation_bounds():
    """Closed-form values approach the identity line at the documented rates."""
    mus = np.linspace(0.0, 1.0, 101)
    for n, bound in ((10, 1e-2), (14, 1e-3), (17, 1e-4)):
        worst = max(
            abs(gqd_werner_ghz(WernerGhzParams(n, float(mu))) - float(mu)) for mu in mus
        )
        assert worst < bound, f"N={n}: max deviation {worst:.3e} >= {bound:g}"


def test_criterion_04_cross_family_agreement_two_qubits():
    """Both closed forms agree on the shared two-qubit states."""
    for mu in np.linspace(0.0, 1.0, 21):
        w = gqd_werner_ghz(WernerGhzParams(2, float(mu)))
        p = gqd_pauli_diagonal(PauliDiagonalParams(2, float(mu), -float(mu), float(mu)))
        assert abs(w - p) <= 1e-12, mu


def test_criterion_05_lemma_suite_holds():
    """Trace identities, rotation homomorphism, and majorization monotonicity."""
    results = run_checks(scope="lemmas", seed=ACCEPTANCE_SEED, trials=100)
    names = {r.name for r in results}
    assert {
        "pinch-trace-identity",
        "rotation-homomorphism",
        "majorization-monotonicity",
    } <= names
    for r in results:
        assert r.passed, f"{r.name}: margin {r.margin:.3e} above tol {r.tolerance:g}"


def test_criterion_06_objective_forms_agree_per_measurement():
    """Information-deficit and relative-entropy objectives coincide pointwise."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for n in (2, 3):
        for _ in range(100):
            rho = random_density_matrix(n, rng)
            m = LocalMeasurement(tuple(random_bloch_vector(rng) for _ in range(n)))
            a = measurement_objective(rho, m)
            b = relative_entropy_objective(rho, m)
            assert abs(a - b) <= 1e-9


def test_criterion_07_nonnegative_and_local_unitary_invariant():
    """Raw numeric minima stay above -1e-9 and shift under local rotations stays tiny."""
    # Default start counts on purpose: random 3-qubit states have competing
    # local minima, and thinner multi-starts can land in different basins
    # on the two sides of the rotation.
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    opts = OptimizerOptions(seed=ACCEPTANCE_SEED)
    for n in (2, 3):
        for _ in range(100):
            rho = random_density_matrix(n, rng)
            base = gqd_numeric(rho, opts)
            assert base.diagnostics.raw_value >= -1e-9
            u = random_local_unitary(n, rng)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            shift = abs(gqd_numeric(rotated, opts).value - base.value)
            assert shift <= 1e-4


def test_criterion_08_sudden_transition_kink_detection():
    """A kink appears within one grid step of the predicted crossing, and only then."""
    grid = np.linspace(0.0, 1.0, 101)
    step = grid[1] - grid[0]

    params = PauliDiagonalParams(2, 0.5, 0.1, 0.2)
    _, report = scan_gqd_vs_p(params, grid)
    assert report.predicted_transition_p is not None
    assert math.isclose(report.predicted_transition_p, 0.6, abs_tol=1e-12)
    assert report.kinks, "transition case must register a kink"
    assert min(abs(k - 0.6) for k in report.kinks) <= step + 1e-12

    # no longitudinal part, or longitudinal part dominant: no kink
    for c in [(0.5, 0.5, 0.0), (0.7, -0.2, 0.0), (0.3, -0.1, 0.5), (0.4, -0.4, 0.4)]:
        quiet = PauliDiagonalParams(2, *c)
        assert sudden_transition_point(quiet) is None
        _, report = scan_gqd_vs_p(quiet, grid)
        assert report.kinks == (), c


def test_criterion_09_freezing_sweep_holds_constant_then_decays():
    """The freeze family keeps its discord exactly constant until the crossing."""
    # Re-derivation of the frozen constant. For two qubits the four spectral
    # weights are [1 +/- c3 +/- (c1 - c2)] / 4. With c2 = -c1*c3 they factor
    # into the product (1 +/- c3)/2 x (1 +/- c1')/2 after dephasing, where
    # c1' = c1*(1-p). The entropy term g then splits into
    # H2((1+c3)/2) + H2((1+c1')/2), and while c1' >= c3 the dominant
    # coefficient is c1', whose H2 cancels against f. What remains is
    # D = 1 - H2((1+c3)/2), independent of p.
    c1, c2, c3 = 1.0, -0.6, 0.6
    assert math.isclose(-c2, c1 * c3, abs_tol=1e-15), "freeze condition"
    frozen_value = 1.0 - binary_entropy((1.0 + abs(c3)) / 2.0)
    assert math.isclose(frozen_value, 0.278072, abs_tol=5e-7)

    grid = np.linspace(0.0, 1.0, 101)
    records, report = scan_gqd_vs_p(PauliDiagonalParams(2, c1, c2, c3), grid)

    assert math.isclose(report.predicted_transition_p, 0.4, abs_tol=1e-12)
    assert min(abs(k - 0.4) for k in report.kinks) <= (grid[1] - grid[0]) + 1e-12

    window = [r.gqd for r in records if 0.01 <= r.p <= 0.39]
    assert window, "scan grid must cover the frozen interval"
    assert max(abs(v - frozen_value) for v in window) <= 1e-9

    tail = [r.gqd for r in records if r.p >= 0.41]
    assert all(b < a for a, b in zip(tail, tail[1:])), "decay must be strict"


def test_criterion_10_figure_curves_match_formulas(tmp_path):
    """The figure command emits monotone curves pinned to the closed forms."""
    out = tmp_path / "figure1.csv"
    code = main(["figure1", "--out", str(out)])
    assert code == 0

    series: dict[str, list[tuple[float, float]]] = {}
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "mu,n,gqd_bits"
    for line in lines[1:]:
        mu, n, val = line.split(",")
        series.setdefault(n, []).append((float(mu), float(val)))
    assert set(series) == {"2", "3", "5", "inf"}

    for label, rows in series.items():
        assert len(rows) == 101
        mus = [mu for mu, _ in rows]
        vals = [v for _, v in rows]
        assert rows[0] == (0.0, 0.0)
        assert rows[-1] == (1.0, 1.0)
        assert all(b >= a for a, b in zip(vals, vals[1:])), label
        for mu, v in rows:
            if label == "inf":
                want = gqd_werner_ghz_asymptotic(mu)
            else:
                want = gqd_werner_ghz(WernerGhzParams(int(label), mu))
            assert abs(v - want) <= 1e-9
