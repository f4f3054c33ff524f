"""Tests for the closed-form and numeric discord computations."""

import dataclasses
import functools
import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest

from gqd import checks, lbfgs, measurement
from gqd.checks import check_mixed_marginal_shortcut, random_valid_pauli_params
from gqd.discord import (
    GqdResult,
    InvalidParamsError,
    MAX_STARTS,
    OptimizerOptions,
    PauliDiagonalParams,
    QubitLimitError,
    WernerGhzParams,
    _AGREE_TOL,
    _GRAD_TOL,
    _correlation_start,
    _dense_dim,
    _found_every_minimum,
    _pauli_weights,
    _run_starts,
    _start_points,
    gqd_maximally_mixed,
    gqd_numeric,
    gqd_pauli_diagonal,
    gqd_werner_ghz,
    gqd_werner_ghz_asymptotic,
    pauli_diagonal_state,
    validate_pauli_params,
    werner_ghz_state,
)
from gqd.lbfgs import StackedResult, minimize_stacked
from gqd.measurement import (
    _AXES,
    LocalMeasurement,
    _entropy_objective,
    _pauli_coefficients,
    measurement_objective,
    relative_entropy_objective,
)
from gqd.qcore import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    DensityMatrix,
    maximally_mixed,
    mutual_information,
    partial_trace,
    pauli_string,
    random_density_matrix,
    random_unitary,
    tensor_product,
)

RNG_SEED = 20240813

# Frozen reference values, computed once with an independent projector-sum
# implementation and a brute-force measurement search.
WERNER_N2_MU_HALF = 0.26248318376373436
WERNER_N2_MU_QUARTER = 0.07419318798081709
WERNER_N3_MU_HALF = 0.33187775400669917
WERNER_N3_MU_QUARTER = 0.10955207494897745
PAULI_N2_512 = 0.07192425229193178
PAULI_N3_432 = 0.10198878140595202


class TestWernerGhzFamily:
    def test_state_matches_dense_construction(self):
        for n, mu in [(2, 0.3), (3, 0.8)]:
            params = WernerGhzParams(n, mu)
            v = np.zeros(2**n)
            v[0] = v[-1] = 1 / np.sqrt(2)
            dense = (1 - mu) * np.eye(2**n) / 2**n + mu * np.outer(v, v.conj())
            assert np.allclose(werner_ghz_state(params).matrix, dense, atol=1e-15)

    def test_state_spectrum(self):
        params = WernerGhzParams(3, 0.5)
        a = (1 - 0.5) / 8
        want = np.sort([a + 0.5] + [a] * 7)
        got = np.sort(werner_ghz_state(params).eigenvalues())
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize(
        "n,mu,expected",
        [
            (2, 0.5, WERNER_N2_MU_HALF),
            (2, 0.25, WERNER_N2_MU_QUARTER),
            (3, 0.5, WERNER_N3_MU_HALF),
            (3, 0.25, WERNER_N3_MU_QUARTER),
        ],
    )
    def test_closed_form_frozen_values(self, n, mu, expected):
        assert math.isclose(gqd_werner_ghz(WernerGhzParams(n, mu)), expected, abs_tol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_closed_form_endpoints(self, n):
        assert abs(gqd_werner_ghz(WernerGhzParams(n, 0.0))) <= 1e-9
        assert abs(gqd_werner_ghz(WernerGhzParams(n, 1.0)) - 1.0) <= 1e-9

    def test_monotone_in_mixing_weight(self):
        mus = np.linspace(0.0, 1.0, 51)
        vals = [gqd_werner_ghz(WernerGhzParams(3, m)) for m in mus]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_asymptotic_form(self):
        assert gqd_werner_ghz_asymptotic(0.37) == 0.37
        with pytest.raises(ValueError):
            gqd_werner_ghz_asymptotic(1.2)

    def test_large_n_approaches_asymptote(self):
        for mu in (0.2, 0.6, 0.9):
            dev = abs(gqd_werner_ghz(WernerGhzParams(10, mu)) - mu)
            assert dev < 1e-2

    def test_closed_form_tends_to_mu_beyond_float_range_of_2_pow_n(self):
        for mu in (0.0, 0.3, 0.75, 1.0):
            assert abs(gqd_werner_ghz(WernerGhzParams(2000, mu)) - mu) <= 1e-12

    def test_closed_form_bit_identical_to_division_by_2_pow_n(self):
        def xlog2(t):
            return 0.0 if t <= 0.0 else t * math.log2(t)

        for n in range(2, 33):
            for mu in np.linspace(0.0, 1.0, 11):
                mu = float(mu)
                a = (1.0 - mu) / 2**n
                old = xlog2(a + mu) + xlog2(a) - 2.0 * xlog2(a + mu / 2.0)
                assert gqd_werner_ghz(WernerGhzParams(n, mu)) == old, (n, mu)

    def test_qubit_count_beyond_a_c_long_underflows_to_mu(self):
        assert gqd_werner_ghz(WernerGhzParams(10**30, 0.4)) == 0.4

    def test_params_validation(self):
        with pytest.raises(InvalidParamsError):
            WernerGhzParams(1, 0.5)
        with pytest.raises(InvalidParamsError):
            WernerGhzParams(2, -0.1)
        with pytest.raises(InvalidParamsError):
            WernerGhzParams(2, 1.1)
        for mu in ("a", True, None, 0.5j):
            with pytest.raises(InvalidParamsError, match="mu must be a real number"):
                WernerGhzParams(2, mu)
            with pytest.raises(InvalidParamsError, match="mu must be a real number"):
                gqd_werner_ghz_asymptotic(mu)
        for mu in (0, 1, 0.5, np.float64(0.5), np.float32(0.5), np.int64(1)):
            assert WernerGhzParams(2, mu).mu == mu
            assert gqd_werner_ghz_asymptotic(mu) == float(mu)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3"])
    def test_qubit_count_must_be_int(self, n):
        with pytest.raises(InvalidParamsError, match="integer"):
            WernerGhzParams(n, 0.5)
        with pytest.raises(InvalidParamsError, match="integer"):
            PauliDiagonalParams(n, 0.1, 0.2, 0.3)


class TestPauliDiagonalFamily:
    def test_state_matches_dense_construction(self):
        params = PauliDiagonalParams(3, 0.4, 0.3, 0.2)
        n = 3
        dense = np.eye(2**n, dtype=complex)
        for c, axis in zip(params.coefficients(), "xyz"):
            dense += c * pauli_string(axis, n)
        dense /= 2**n
        assert np.allclose(pauli_diagonal_state(params).matrix, dense, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_spectrum_matches_eigensolver(self, n):
        # The bounds on _pauli_weights are positivity bounds because the
        # weights give the spectrum: even n has lambda_j / 2^(n-2), each
        # 2^(n-2) times; odd n has (1 +/- d) / 2^n, each 2^(n-1) times.
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            params = random_valid_pauli_params(n, rng)
            w = _pauli_weights(n, *params.coefficients())
            if n % 2:
                levels = [(1.0 + w[0]) / 2**n, (1.0 - w[0]) / 2**n]
                got = np.repeat(levels, 2 ** (n - 1))
            else:
                got = np.repeat(w / 2 ** (n - 2), 2 ** (n - 2))
            want = np.linalg.eigvalsh(pauli_diagonal_state(params).matrix)
            assert np.allclose(np.sort(got), want, atol=1e-10)

    @pytest.mark.parametrize(
        "params,expected",
        [
            (PauliDiagonalParams(2, 0.5, 0.1, 0.2), PAULI_N2_512),
            (PauliDiagonalParams(3, 0.4, 0.3, 0.2), PAULI_N3_432),
        ],
    )
    def test_closed_form_frozen_values(self, params, expected):
        assert math.isclose(gqd_pauli_diagonal(params), expected, abs_tol=1e-12)

    def test_spot_values(self):
        # perfect correlations along every axis carry exactly one bit
        assert abs(gqd_pauli_diagonal(PauliDiagonalParams(2, 1.0, -1.0, 1.0)) - 1.0) <= 1e-9
        assert abs(gqd_pauli_diagonal(PauliDiagonalParams(2, 1.0, 0.0, 0.0))) <= 1e-9

    def test_validation_even_n_reports_failing_weight(self):
        report = validate_pauli_params(PauliDiagonalParams(2, 0.8, 0.2, 0.3))
        assert not report.ok
        msg = report.failure_message()
        assert "lambda4" in msg and "-0.075" in msg

    def test_validation_even_n_weights(self):
        report = validate_pauli_params(PauliDiagonalParams(2, 0.5, 0.1, 0.2))
        assert report.ok
        got = [c.value for c in report.checks]
        assert np.allclose(got, [0.4, 0.2, 0.35, 0.05], atol=1e-12)

    def test_validation_odd_n_radius(self):
        assert validate_pauli_params(PauliDiagonalParams(3, 0.5, 0.5, 0.5)).ok
        report = validate_pauli_params(PauliDiagonalParams(3, 0.9, 0.9, 0.9))
        assert not report.ok
        assert report.checks[0].name == "d"

    @pytest.mark.parametrize("n", [2, 3])
    def test_validation_reports_coefficients_beyond_the_float_squares(self, n):
        report = validate_pauli_params(PauliDiagonalParams(n, 1e200, 1e308, -1e308))
        assert not report.ok
        with pytest.raises(InvalidParamsError):
            gqd_pauli_diagonal(PauliDiagonalParams(n, 1e200, 1e308, -1e308))

    def test_invalid_coefficients_raise(self):
        with pytest.raises(InvalidParamsError, match="lambda"):
            pauli_diagonal_state(PauliDiagonalParams(2, 0.8, 0.2, 0.3))
        with pytest.raises(InvalidParamsError):
            gqd_pauli_diagonal(PauliDiagonalParams(2, 0.8, 0.2, 0.3))

    def test_odd_n_invariant_under_signed_permutations(self):
        # the odd formula sees only max |c_i| and the radius
        rng = np.random.default_rng(RNG_SEED)
        base = random_valid_pauli_params(3, rng)
        ref = gqd_pauli_diagonal(base)
        for perm in itertools.permutations(base.coefficients()):
            for signs in itertools.product((-1, 1), repeat=3):
                c = [s * v for s, v in zip(signs, perm)]
                assert math.isclose(
                    gqd_pauli_diagonal(PauliDiagonalParams(3, *c)), ref, abs_tol=1e-12
                )

    def test_even_n_invariant_under_double_sign_flips(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 4):
            base = random_valid_pauli_params(n, rng)
            c1, c2, c3 = base.coefficients()
            ref = gqd_pauli_diagonal(base)
            lam_ref = np.sort(_pauli_weights(n, c1, c2, c3))
            for flip in [(-1, -1, 1), (-1, 1, -1), (1, -1, -1)]:
                p = PauliDiagonalParams(n, flip[0] * c1, flip[1] * c2, flip[2] * c3)
                # flipping two signs permutes the four spectral weights
                assert np.allclose(
                    np.sort(_pauli_weights(n, *p.coefficients())), lam_ref, atol=1e-12
                )
                assert math.isclose(gqd_pauli_diagonal(p), ref, abs_tol=1e-12)

    def test_even_n_invariant_under_xy_swap(self):
        rng = np.random.default_rng(RNG_SEED)
        base = random_valid_pauli_params(2, rng)
        c1, c2, c3 = base.coefficients()
        swapped = PauliDiagonalParams(2, c2, c1, c3)
        assert math.isclose(
            gqd_pauli_diagonal(swapped), gqd_pauli_diagonal(base), abs_tol=1e-12
        )

    def test_params_validation(self):
        with pytest.raises(InvalidParamsError):
            PauliDiagonalParams(1, 0.1, 0.1, 0.1)
        with pytest.raises(InvalidParamsError):
            PauliDiagonalParams(2, math.nan, 0.0, 0.0)
        for bad in ("a", True, np.bool_(False), None, 0.5j):
            for k, name in enumerate(("c1", "c2", "c3")):
                coeffs = [0.0, 0.0, 0.0]
                coeffs[k] = bad
                with pytest.raises(InvalidParamsError, match=f"{name} must be a real number"):
                    PauliDiagonalParams(2, *coeffs)
        assert PauliDiagonalParams(2, 0, np.float64(0.5), np.int64(0)).coefficients() == (0, 0.5, 0)
        # Narrow NumPy floats, checked without casting the float bound down
        # to their type, where it overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert PauliDiagonalParams(2, 0, np.float32(0.5), 0).c2 == 0.5
            assert PauliDiagonalParams(2, np.float16(-0.25), 0, 0).c1 == -0.25
            for k, name in enumerate(("c1", "c2", "c3")):
                for bad in (np.float32(np.inf), np.float16(-np.inf), np.float32(np.nan)):
                    coeffs = [0.0, 0.0, 0.0]
                    coeffs[k] = bad
                    with pytest.raises(InvalidParamsError, match=f"{name} must be finite"):
                        PauliDiagonalParams(2, *coeffs)
        with pytest.raises(InvalidParamsError, match="c3 must be finite, got a value beyond the float range"):
            PauliDiagonalParams(2, 0, 0, 10**400)

    @pytest.mark.parametrize(
        "big", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"]
    )
    def test_int_beyond_float_range_is_invalid_params(self, big):
        # math.isfinite alone overflows on such an int, and the repr of
        # 10**5000 does not print at all.
        for k in range(3):
            coeffs = [0.0, 0.0, 0.0]
            coeffs[k] = big
            with pytest.raises(InvalidParamsError, match="beyond the float range"):
                PauliDiagonalParams(2, *coeffs)
        assert PauliDiagonalParams(2, np.int64(0), np.float64(0.5), 0).c2 == 0.5


class TestDenseBuilders:
    # From N = 30 on, 4^N complex entries of 16 bytes overflow NumPy's size
    # type. The builders decide that on N alone, so N = 10**12 or 2**63
    # never builds 2**N, an integer of N bits.
    @pytest.mark.parametrize("n", [30, 10**12, 2**63])
    @pytest.mark.parametrize("build", [
        lambda n: werner_ghz_state(WernerGhzParams(n, 0.5)),
        lambda n: pauli_diagonal_state(PauliDiagonalParams(n, 0.1, 0.2, 0.3)),
    ], ids=["werner_ghz", "pauli_diagonal"])
    def test_state_too_large_to_build_is_a_qubit_limit(self, build, n):
        with pytest.raises(QubitLimitError) as info:
            build(n)
        assert str(info.value) == f"state has {n} qubits, too many to build as a dense matrix"

    def test_size_rule_is_the_byte_count_rule(self):
        # The exponent rule agrees with 16 * 4**n > sys.maxsize, the test it
        # replaces, wherever that test is cheap.
        for n in range(300):
            try:
                _dense_dim(n)
                too_large = False
            except QubitLimitError:
                too_large = True
            assert too_large == (16 * 4**n > sys.maxsize), n


class TestCrossFamilyAgreement:
    def test_two_qubit_ghz_mixture_is_pauli_diagonal(self):
        # (1-mu) I/4 + mu |GHZ_2> matches coefficients (mu, -mu, mu)
        for mu in np.linspace(0.0, 1.0, 11):
            w = gqd_werner_ghz(WernerGhzParams(2, mu))
            p = gqd_pauli_diagonal(PauliDiagonalParams(2, mu, -mu, mu))
            assert abs(w - p) <= 1e-12

    def test_two_qubit_states_match_exactly(self):
        mu = 0.45
        a = werner_ghz_state(WernerGhzParams(2, mu)).matrix
        b = pauli_diagonal_state(PauliDiagonalParams(2, mu, -mu, mu)).matrix
        assert np.allclose(a, b, atol=1e-15)


class TestNumericOptimizer:
    def test_raw_value_is_the_objective_at_the_reported_measurement(self):
        # Ginibre states have marginal Bloch vectors with x, y and z parts,
        # so every term of the per-qubit marginal entropies is exercised.
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3, 4):
            rho = random_density_matrix(n, rng)
            res = gqd_numeric(rho, OptimizerOptions(starts=4, max_evals_per_start=400))
            want = measurement_objective(rho, res.optimal_measurement)
            assert abs(res.diagnostics.raw_value - want) <= 1e-9, n

    def test_state_at_the_psd_tolerance(self):
        # DensityMatrix accepts this state, whose largest eigenvalue lies
        # above 1 + 1e-9; the solve must still give a finite value.
        rho = DensityMatrix(np.diag([1 + 1.5e-9, -5e-10, -5e-10, -5e-10]))
        res = gqd_numeric(rho, OptimizerOptions(seed=1))
        assert abs(res.value) <= 1e-8
        assert math.isfinite(res.diagnostics.raw_value)

    def test_matches_werner_closed_form(self):
        for n, mu in [(2, 0.5), (2, 0.9), (3, 0.5)]:
            got = gqd_numeric(werner_ghz_state(WernerGhzParams(n, mu)))
            want = gqd_werner_ghz(WernerGhzParams(n, mu))
            assert abs(got.value - want) <= 1e-4
            assert got.method == "numeric"

    def test_matches_pauli_closed_form(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            params = random_valid_pauli_params(n, rng)
            got = gqd_numeric(pauli_diagonal_state(params))
            assert abs(got.value - gqd_pauli_diagonal(params)) <= 1e-4

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(2, rng)
        a = gqd_numeric(rho, OptimizerOptions(seed=5))
        b = gqd_numeric(rho, OptimizerOptions(seed=5))
        assert a.value == b.value
        assert a.optimal_measurement == b.optimal_measurement
        assert a.diagnostics.evaluations == b.diagnostics.evaluations

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(2, rng)
        serial = gqd_numeric(rho, OptimizerOptions(seed=3, threads=1))
        pooled = gqd_numeric(rho, OptimizerOptions(seed=3, threads=4))
        assert serial.value == pooled.value
        assert serial.optimal_measurement == pooled.optimal_measurement

    def test_nonnegative_and_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            base = gqd_numeric(rho)
            assert base.value >= 0.0
            assert base.diagnostics.raw_value >= -1e-9
            u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert abs(gqd_numeric(rotated).value - base.value) <= 1e-4

    def test_product_state_scores_zero(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_density_matrix(1, rng)
        b = random_density_matrix(1, rng)
        rho = DensityMatrix(np.kron(a.matrix, b.matrix))
        assert gqd_numeric(rho).value <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_maximally_mixed_runs_the_solve(self, n):
        # The objective is flat at zero, so every start stops after its
        # first evaluation, agrees, and the z start wins the tie.
        res = gqd_numeric(maximally_mixed(n))
        diag = res.diagnostics
        assert res.value == 0.0 and diag.raw_value == 0.0
        assert diag.starts == diag.evaluations == diag.starts_agreeing == 8 * n
        assert diag.converged
        assert res.optimal_measurement == LocalMeasurement.along_axis("z", n)

    def test_near_maximally_mixed_reports_zero(self):
        rng = np.random.default_rng(RNG_SEED)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        h -= np.trace(h) / 4 * np.eye(4)
        rho = DensityMatrix(np.eye(4) / 4 + 1e-13 * h / np.abs(h).max())
        assert 0.0 < np.max(np.abs(rho.matrix - np.eye(4) / 4)) <= 1e-13
        res = gqd_numeric(rho)
        assert res.value == 0.0
        assert abs(res.diagnostics.raw_value) <= 1e-15
        assert res.diagnostics.starts_agreeing == res.diagnostics.starts

    def test_optimal_measurement_is_canonical(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(2, rng)
        res = gqd_numeric(rho)
        for d in res.optimal_measurement.directions:
            assert d.z >= 0.0

    def test_starts_override_recorded(self):
        rho = werner_ghz_state(WernerGhzParams(2, 0.5))
        res = gqd_numeric(rho, OptimizerOptions(starts=6))
        assert res.diagnostics.starts == 6
        assert res.diagnostics.evaluations > 0

    def test_qubit_limit_enforced(self):
        rho = maximally_mixed(3)
        with pytest.raises(QubitLimitError, match="3"):
            gqd_numeric(rho, OptimizerOptions(max_qubits=2))

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            gqd_numeric(maximally_mixed(1))

    def test_all_z_is_optimal_for_ghz_mixtures(self):
        # the closed form is derived by showing the all-z measurement
        # minimizes the objective; the optimizer should never beat it
        for n, mu in [(2, 0.6), (3, 0.4)]:
            rho = werner_ghz_state(WernerGhzParams(n, mu))
            z_obj = measurement_objective(rho, LocalMeasurement.along_axis("z", n))
            num = gqd_numeric(rho).value
            assert z_obj <= num + 1e-6
            assert abs(z_obj - gqd_werner_ghz(WernerGhzParams(n, mu))) <= 1e-9


def coefficients(rho: DensityMatrix) -> np.ndarray:
    """The real Pauli tensor of ``rho``, as a solve takes it."""
    return _pauli_coefficients(rho.matrix).real


def objective(rho: DensityMatrix):
    """The optimizer's stacked objective for ``rho``."""
    return _entropy_objective(coefficients(rho))


def single(fun):
    """A stacked ``fun(X) -> (f, G)`` as a function of one point."""

    def at(x):
        f, g = fun(np.asarray(x, dtype=float)[None])
        return f[0], g[0]

    return at


def central_difference(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    return np.array(
        [(fun(x + h * e)[0] - fun(x - h * e)[0]) / (2 * h) for e in np.eye(x.size)]
    )


class TestObjectiveGradient:
    """The analytic gradient in the stacked vectors v_j against central differences."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(RNG_SEED + n)
        rho = random_density_matrix(n, rng)
        # The correlation start, the three axis starts, the south pole on
        # every qubit, and an unnormalized random point with both signs of z.
        points = _start_points(coefficients(rho), OptimizerOptions(starts=4))
        points += [-points[1], rng.normal(size=3 * n)]
        fun = single(objective(rho))
        for x in points:
            _, grad = fun(x)
            assert np.max(np.abs(grad - central_difference(fun, x))) <= 1e-6

    def test_value_is_the_objective_less_mutual_information(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(3, rng)
        fun = single(objective(rho))
        x = rng.normal(size=9)
        v = x.reshape(3, 3) / np.linalg.norm(x.reshape(3, 3), axis=1)[:, None]
        m = LocalMeasurement(tuple(BlochVector(*map(float, row)) for row in v))
        want = relative_entropy_objective(rho, m) - mutual_information(rho)
        assert abs(fun(x)[0] - want) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_finite_on_pure_ghz_where_outcomes_vanish(self, n):
        rho = werner_ghz_state(WernerGhzParams(n, 1.0))
        rng = np.random.default_rng(RNG_SEED)
        points = _start_points(coefficients(rho), OptimizerOptions(starts=4))
        points.append(rng.normal(size=3 * n))
        fun = single(objective(rho))
        for x in points:
            value, grad = fun(x)
            assert math.isfinite(value)
            assert np.all(np.isfinite(grad))
            assert np.max(np.abs(grad - central_difference(fun, x))) <= 1e-6


class TestResultCertificate:
    def test_converged_solve_is_stationary(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            res = gqd_numeric(random_density_matrix(n, rng))
            assert res.diagnostics.converged
            assert res.diagnostics.grad_norm <= 1e-6
            assert 1 <= res.diagnostics.starts_agreeing <= res.diagnostics.starts

    def test_rotated_ghz_mixtures_converge(self):
        # Seeded draws whose winning start reaches the objective's rounding
        # floor; with a gradient tolerance below that floor it ends in a
        # failed line search and is reported as not converged.
        rng = np.random.default_rng(RNG_SEED)
        for k in range(528):
            params = WernerGhzParams(2, float(rng.uniform(0.0, 1.0)))
            u = tensor_product(random_unitary(2, rng), random_unitary(2, rng))
            if k not in (74, 319, 479, 527):
                continue
            m = u @ werner_ghz_state(params).matrix @ u.conj().T
            rho = DensityMatrix((m + m.conj().T) / 2)
            res = gqd_numeric(rho, OptimizerOptions(seed=k))
            assert res.diagnostics.converged, k
            assert res.diagnostics.grad_norm <= 1e-6, k
            assert abs(res.value - gqd_werner_ghz(params)) <= 1e-9, k

    def test_every_start_agrees_on_a_product_state(self):
        # I(rho) = 0 and every measurement keeps the product form, so the
        # objective is flat at zero.
        rng = np.random.default_rng(RNG_SEED)
        a = random_density_matrix(1, rng)
        b = random_density_matrix(1, rng)
        res = gqd_numeric(DensityMatrix(np.kron(a.matrix, b.matrix)))
        assert res.diagnostics.starts_agreeing == res.diagnostics.starts == 16

    def test_counts_starts_within_tolerance_of_the_best(self):
        # Two wells in the first coordinate, 0.2 apart at the bottom; the
        # other coordinates are quadratic.
        def fun(x):
            a, b, c = x.T
            value = (a**2 - 1.0) ** 2 + 0.1 * a + b**2 + c**2
            grad = np.stack([4.0 * a * (a**2 - 1.0) + 0.1, 2 * b, 2 * c], axis=1)
            return value, grad

        points = [np.array([s, 0.3, -0.2]) for s in (1.1, -1.2, 0.9, -0.8, -1.0)]
        res, best, diag = _run_starts(fun, points, OptimizerOptions(), offset=0.5)
        assert diag.starts_agreeing == 3
        assert res.x[best, 0] < 0.0
        assert diag.raw_value == 0.5 + res.fun[best]
        assert diag.grad_norm <= 1e-6

    def test_maximally_mixed_honours_starts(self):
        rho = maximally_mixed(2)
        opts = OptimizerOptions(starts=5)
        for res in (gqd_numeric(rho, opts), gqd_maximally_mixed(rho, opts)):
            assert res.diagnostics.starts == res.diagnostics.starts_agreeing == 5
            assert res.diagnostics.grad_norm == 0.0

    def test_unknown_option_is_rejected(self):
        with pytest.raises(TypeError):
            OptimizerOptions(x_tol=1e-5)


class TestOptimizerOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f_tol": -1.0},
            {"f_tol": math.nan},
            {"f_tol": math.inf},
            {"max_evals_per_start": 0},
            {"max_evals_per_start": -3},
            {"starts": 0},
            {"starts": -1},
            {"starts": MAX_STARTS + 1},
            {"threads": -1},
            {"threads": 0},
            {"threads": None},
            {"threads": True},
            {"seed": -1},
            {"starts": 2.5},
            {"seed": 1.5},
            {"seed": None},
            {"seed": True},
            {"max_qubits": "a"},
            {"max_evals_per_start": 10.0},
            {"threads": 1.0},
            {"f_tol": "a"},
            {"f_tol": True},
        ],
    )
    def test_rejects_out_of_range_values(self, kwargs):
        with pytest.raises(InvalidParamsError, match=next(iter(kwargs))):
            OptimizerOptions(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, rule",
        [
            ({"f_tol": np.float64(1e-8)}, "f_tol must be a plain int or float"),
            ({"f_tol": np.float32(1e-8)}, "f_tol must be a plain int or float"),
            ({"f_tol": True}, "f_tol must be a plain int or float"),
            ({"f_tol": "a"}, "f_tol must be a plain int or float"),
            ({"seed": np.int64(3)}, "seed must be a plain int"),
            ({"seed": True}, "seed must be a plain int"),
            ({"starts": np.int64(3)}, "starts must be a plain int"),
            ({"max_qubits": False}, "max_qubits must be a plain int"),
            ({"threads": 1.0}, "threads must be a plain int"),
        ],
    )
    def test_type_error_names_the_type_rule(self, kwargs, rule):
        # NumPy scalars and bools are rejected for their type, not their
        # value: np.float64(1e-8) is finite and >= 0.
        with pytest.raises(InvalidParamsError) as info:
            OptimizerOptions(**kwargs)
        assert str(info.value) == f"{rule}, got {next(iter(kwargs.values()))!r}"

    def test_accepts_the_boundaries(self):
        opts = OptimizerOptions(f_tol=0.0, max_evals_per_start=1, starts=1, threads=1)
        res = gqd_numeric(werner_ghz_state(WernerGhzParams(2, 0.5)), opts)
        assert res.diagnostics.starts == 1
        assert OptimizerOptions().threads == 1
        # Built only: a solve with this many starts is not run.
        assert OptimizerOptions(starts=MAX_STARTS).starts == MAX_STARTS


def rotated(rho: DensityMatrix, rng: np.random.Generator) -> DensityMatrix:
    """``rho`` under a random local unitary, one factor per qubit."""
    u = np.ones((1, 1))
    for _ in range(rho.n_qubits):
        u = np.kron(u, random_unitary(2, rng))
    m = u @ rho.matrix @ u.conj().T
    return DensityMatrix((m + m.conj().T) / 2)


def rotated_family_state(n: int, rng: np.random.Generator) -> DensityMatrix:
    """A GHZ-noise or Pauli-diagonal state under a random local unitary."""
    if rng.integers(2):
        rho = werner_ghz_state(WernerGhzParams(n, float(rng.uniform(0.0, 1.0))))
    else:
        rho = pauli_diagonal_state(random_valid_pauli_params(n, rng))
    return rotated(rho, rng)


FIELDS = [f.name for f in dataclasses.fields(StackedResult)]


def assert_same_starts(a, b):
    for field in FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def without_rule(fun, points, opts: OptimizerOptions) -> StackedResult:
    """Every start of ``points`` run to its own stop, as one stack."""
    return minimize_stacked(
        fun, np.array(points, dtype=float), opts.max_evals_per_start, opts.f_tol, _GRAD_TOL
    )


def counting(fun, calls: list):
    """``fun``, appending the stack height of every call to ``calls``."""

    def counted(x):
        calls.append(len(x))
        return fun(x)

    return counted


class TestStackedStarts:
    """All starts run as one stacked L-BFGS; each start stays its own run."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_start_is_independent_of_its_stack(self, n):
        # Without the stopping rule every start is bit-identical whether the
        # starts run stacked or one at a time; with it, so is every start
        # that the rule did not cut.
        rng = np.random.default_rng(RNG_SEED + 40 + n)
        rho = random_density_matrix(n, rng)
        fun = objective(rho)
        opts = OptimizerOptions(seed=11)
        points = _start_points(coefficients(rho), opts)
        stacked = without_rule(fun, points, opts)
        ruled, _, _ = _run_starts(fun, points, opts, offset=0.0)
        assert stacked.finished.all() and not ruled.finished.all()
        for k, x0 in enumerate(points):
            alone = without_rule(fun, [x0], opts)
            for field in FIELDS:
                assert np.array_equal(getattr(alone, field)[0], getattr(stacked, field)[k]), (k, field)
                if ruled.finished[k]:
                    assert np.array_equal(getattr(alone, field)[0], getattr(ruled, field)[k]), (k, field)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_objective_rows_do_not_depend_on_their_stack(self, n):
        rng = np.random.default_rng(RNG_SEED + 60 + n)
        rho = random_density_matrix(n, rng)
        x = np.concatenate([np.array(_start_points(coefficients(rho), OptimizerOptions(starts=5))),
                            rng.normal(size=(4, 3 * n))])
        fun = objective(rho)
        values, grads = fun(x)
        for k in range(len(x)):
            for part in (x[k : k + 1], x[k : k + 3]):
                v, g = fun(part)
                assert v[0] == values[k] and np.array_equal(g[0], grads[k]), (k, len(part))

    def test_memory_cut_leaves_results_unchanged(self, monkeypatch):
        # At N = 8 a default call holds one start; let one call hold all of
        # them, or two, and nothing may move.
        n = 8
        rng = np.random.default_rng(RNG_SEED + 8)
        rho = random_density_matrix(n, rng)
        opts = OptimizerOptions(seed=2, starts=5, max_evals_per_start=25)
        points = _start_points(coefficients(rho), opts)
        results = []
        for budget in (4**n, 2 * 4**n, 2**40):
            monkeypatch.setattr(measurement, "_KERNEL_ENTRIES", budget)
            fun = objective(rho)
            values, grads = fun(np.array(points))
            res, _, _ = _run_starts(fun, points, opts, offset=0.0)
            results.append((values, grads, res))
        for values, grads, res in results[1:]:
            assert np.array_equal(values, results[0][0])
            assert np.array_equal(grads, results[0][1])
            assert_same_starts(res, results[0][2])

    def test_matches_scipy_lbfgsb(self):
        # SciPy's L-BFGS-B from the same starts, with the same tolerances,
        # as a test-only reference: the same best values and about the same
        # number of evaluations.
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(RNG_SEED + 77)
        ours_evals = ref_evals = 0
        for n in range(2, 7):
            opts = OptimizerOptions(seed=n, starts=8 if n <= 3 else 4)
            for rho in (random_density_matrix(n, rng), rotated_family_state(n, rng)):
                fun = objective(rho)
                points = _start_points(coefficients(rho), opts)
                res, best, diag = _run_starts(fun, points, opts, offset=0.0)
                refs = [
                    optimize.minimize(
                        single(fun), x0, jac=True, method="L-BFGS-B",
                        options={"maxfun": opts.max_evals_per_start,
                                 "ftol": opts.f_tol, "gtol": _GRAD_TOL},
                    )
                    for x0 in points
                ]
                assert abs(res.fun[best] - min(r.fun for r in refs)) <= 1e-10, n
                ours_evals += diag.evaluations
                ref_evals += sum(r.nfev for r in refs)
        assert abs(ours_evals - ref_evals) <= 0.1 * ref_evals, (ours_evals, ref_evals)

    def test_evaluation_cap_is_not_convergence(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(3, rng)
        res = gqd_numeric(rho, OptimizerOptions(starts=4, max_evals_per_start=3))
        assert not res.diagnostics.converged
        # The cap is checked when an iteration ends, as in L-BFGS-B.
        assert 4 * 3 < res.diagnostics.evaluations <= 4 * (3 + 20)


# Two wells in the first coordinate, about 2 apart at the bottom, plus a
# Rosenbrock valley in the other two, which is slow to descend from
# (0.3, 0.09) and solved at (1, 1).
def two_wells(x):
    a, b, c = x.T
    value = 10.0 * ((a**2 - 1.0) ** 2 + 0.1 * a) + 100.0 * (c - b**2) ** 2 + (1.0 - b) ** 2
    grad = np.stack([
        10.0 * (4.0 * a * (a**2 - 1.0) + 0.1),
        -400.0 * b * (c - b**2) - 2.0 * (1.0 - b),
        200.0 * (c - b**2),
    ], axis=1)
    return value, grad


def frozen_found_every_minimum(done: np.ndarray, running: np.ndarray) -> bool:
    """A fixed copy of the stopping rule, written with NumPy reductions."""
    k = done.size
    f = np.sort(done)
    w = 1 + int(np.count_nonzero(np.diff(f) > _AGREE_TOL))
    return (
        k > w + 2
        and w * (k - 1) / (k - w - 2) < w + 0.5
        and not np.any(running < f[0] - _AGREE_TOL)
    )


class TestStoppingRule:
    """The stack stops once the finished starts have found every minimum."""

    @pytest.mark.parametrize(
        "done, running, stops",
        [
            ([0.0] * 8, [1.0], True),
            ([0.0] * 7, [1.0], False),
            ([0.0] * 8, [-2 * _AGREE_TOL], False),
            ([0.0] * 8, [-_AGREE_TOL / 2], True),
            ([0.0] * 8, [], True),
            ([0.0] * 8 + [1.0] * 8, [], False),
            ([0.0] * 9 + [1.0] * 8, [], True),
            ([0.0, 0.9 * _AGREE_TOL, 1.8 * _AGREE_TOL] * 3, [], True),
            ([], [1.0], False),
        ],
        ids=["one-minimum-8", "one-minimum-7", "guard", "guard-within-tol",
             "none-running", "two-minima-16", "two-minima-17", "chained-within-tol",
             "none-done"],
    )
    def test_rule(self, done, running, stops):
        # One minimum needs 8 finished starts, two need 17: the least k with
        # w (k - 1) / (k - w - 2) < w + 0.5.
        assert _found_every_minimum(np.array(done), np.array(running)) is stops

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_frozen_numpy_copy(self, seed):
        # Values on a grid of _AGREE_TOL / 2, so that sorted neighbours tie,
        # lie within the tolerance or exactly at it, with NaN and infinities.
        rng = np.random.default_rng(RNG_SEED + seed)
        specials = [math.nan, math.inf, -math.inf]
        for _ in range(300):
            done = (rng.integers(0, 6, rng.integers(0, 20)) * (_AGREE_TOL / 2)).tolist()
            running = (rng.integers(-3, 6, rng.integers(0, 6)) * (_AGREE_TOL / 2)).tolist()
            if rng.random() < 0.3:
                running.append(specials[rng.integers(3)])
            if rng.random() < 0.1:
                done.append(specials[rng.integers(3)])
            done, running = np.array(done), np.array(running)
            want = frozen_found_every_minimum(done, running)
            assert _found_every_minimum(done, running) is want, (done, running)

    def test_default_solve_stops_the_stack_early(self):
        rho = random_density_matrix(2, np.random.default_rng(RNG_SEED + 80))
        opts = OptimizerOptions(seed=4)
        points = _start_points(coefficients(rho), opts)
        ruled_calls, free_calls = [], []
        res, best, diag = _run_starts(counting(objective(rho), ruled_calls), points, opts, offset=0.0)
        free = without_rule(counting(objective(rho), free_calls), points, opts)
        assert diag.starts == 16 and 8 <= diag.starts_finished < 16
        assert res.finished.sum() == diag.starts_finished
        assert not res.converged[~res.finished].any()
        assert len(ruled_calls) < len(free_calls)
        assert abs(diag.raw_value - free.fun.min()) <= 1e-12
        assert diag.converged and 1 <= diag.starts_agreeing <= diag.starts_finished

    @pytest.mark.parametrize("n, starts", [(2, 7), (3, 7), (3, 4)])
    def test_fewer_than_eight_starts_run_every_start(self, n, starts):
        rho = random_density_matrix(n, np.random.default_rng(RNG_SEED + 90 + n))
        fun = objective(rho)
        opts = OptimizerOptions(seed=5, starts=starts)
        points = _start_points(coefficients(rho), opts)
        res, best, diag = _run_starts(fun, points, opts, offset=0.0)
        assert_same_starts(res, without_rule(fun, points, opts))
        assert diag.starts_finished == diag.starts == starts

    def test_a_running_start_below_the_finished_minimum_blocks_the_stop(self):
        # Nine starts in the shallow well at a = 1 converge within 8
        # evaluations. The one start in the deep well at a = -1 is still
        # descending the valley then, already below them, and finishes
        # after 25: the rule must wait for it.
        points = [np.array([s, 1.0, 1.0]) for s in (0.9, 1.1, 0.95, 1.05, 0.85, 1.15, 0.8, 1.2, 1.02)]
        points.append(np.array([-1.0, 0.3, 0.09]))
        res, best, diag = _run_starts(two_wells, points, OptimizerOptions(), offset=0.0)
        assert best == 9 and res.x[best, 0] < 0.0
        assert diag.starts_finished == 10 and diag.starts_agreeing == 1
        assert diag.raw_value == res.fun.min() < -1.0


# Whole seeded solves of random_density_matrix(n, default_rng(21)) with
# OptimizerOptions(seed=5, **options), pinned bit for bit: raw_value and
# grad_norm as hex floats, then evaluations, iterations, starts_finished,
# starts_agreeing and converged, then the measurement's directions.
PINNED_GQD = {
    2: ({}, "0x1.90e3359148f90p-3", "0x1.21539afb9a737p-24", (195, 162, 8, 8, True), [
        ("0x1.951b86a5742fbp-1", "0x1.2c6dfeda4b7e9p-4", "0x1.36d7159e3a028p-1"),
        ("-0x1.bd1424b2bcbd2p-2", "0x1.0fe9f1a211338p-1", "0x1.7466dc8fc662cp-1"),
    ]),
    3: ({}, "0x1.631a282810a06p-2", "0x1.5eb18937383d4p-25", (401, 343, 8, 8, True), [
        ("-0x1.c285677e78396p-2", "0x1.202287110d806p-1", "0x1.664d3034f4b54p-1"),
        ("0x1.3aa59795c733ep-2", "-0x1.d2dc812c71947p-1", "0x1.16cf7d422c2b2p-2"),
        ("-0x1.632b573e15f81p-2", "0x1.e9ef697d4c477p-2", "0x1.9d0929b91542bp-1"),
    ]),
    8: ({"starts": 3, "max_evals_per_start": 12}, "0x1.6f03a0216826ep-1",
        "0x1.93526cd6493bbp-13", (39, 34, 3, 1, False), [
        ("-0x1.08712adeec2fdp-1", "0x1.e5d3fb3b9ee28p-3", "0x1.a54359d72abbcp-1"),
        ("0x1.8866bc605539bp-1", "-0x1.69086a1bd76a9p-2", "0x1.12ea9939b4225p-1"),
        ("-0x1.1a647a4057497p-1", "0x1.7b16b617a3ba4p-1", "0x1.8965896bd9841p-2"),
        ("-0x1.ee3a4171cb939p-1", "0x1.0179b4b712985p-2", "0x1.21853fdb0f6bep-4"),
        ("0x1.20eb4b29d3c44p-1", "0x1.241357d9fc468p-1", "0x1.318d23a4f7983p-1"),
        ("-0x1.60e8f15fccbd4p-1", "-0x1.6be0db92076abp-1", "0x1.2032a6afbac13p-3"),
        ("0x1.cbe9862090a2dp-1", "0x1.8c3f84653d7e2p-7", "0x1.c1d41c4348e4cp-2"),
        ("0x1.92a94f9f2465fp-1", "-0x1.61a560bdbc61fp-2", "0x1.062f9710102c1p-1"),
    ]),
}


class TestPinnedSolves:
    """Whole gqd_numeric solves pinned bit for bit, so that any change to
    the starts, the stopping rule, the stack's bookkeeping or the objective's
    split into kernel calls fails here. At N = 2 and 3 the rule cuts the
    stack; at N = 8 every objective call holds one kernel part per row."""

    @pytest.mark.parametrize("n", sorted(PINNED_GQD))
    def test_solve(self, n):
        options, raw_value, grad_norm, counts, directions = PINNED_GQD[n]
        rho = random_density_matrix(n, np.random.default_rng(21))
        result = gqd_numeric(rho, OptimizerOptions(seed=5, **options))
        diag = result.diagnostics
        assert diag.raw_value.hex() == raw_value
        assert diag.grad_norm.hex() == grad_norm
        assert (diag.evaluations, diag.iterations, diag.starts_finished,
                diag.starts_agreeing, diag.converged) == counts
        assert [(d.x.hex(), d.y.hex(), d.z.hex())
                for d in result.optimal_measurement.directions] == directions


# The solves of PINNED_GQD at N = 2 and 3 with the line search cut to one
# or two trials, pinned bit for bit as there. Searches then fail (14 and 37
# with one trial, 1 and 9 with two): a row with pairs in memory forgets them
# and restarts along -g, and one without stops unconverged. The same minima
# are found, so the measurements are those of PINNED_GQD.
PINNED_SHORT_SEARCHES = {
    (2, 1): ("0x1.90e3359148f90p-3", "0x1.21539afb9a737p-24", (120, 90, 16, 8, True)),
    (2, 2): ("0x1.90e3359148f90p-3", "0x1.21539afb9a737p-24", (185, 154, 9, 8, True)),
    (3, 1): ("0x1.631a282810a06p-2", "0x1.5eb18937383d4p-25", (234, 173, 24, 7, True)),
    (3, 2): ("0x1.631a282810a06p-2", "0x1.5eb18937383d4p-25", (370, 308, 12, 8, True)),
}


class TestPinnedShortSearches:
    @pytest.mark.parametrize("n, max_trials", sorted(PINNED_SHORT_SEARCHES))
    def test_solve(self, monkeypatch, n, max_trials):
        monkeypatch.setattr(lbfgs, "_MAX_TRIALS", max_trials)
        raw_value, grad_norm, counts = PINNED_SHORT_SEARCHES[n, max_trials]
        rho = random_density_matrix(n, np.random.default_rng(21))
        result = gqd_numeric(rho, OptimizerOptions(seed=5))
        diag = result.diagnostics
        assert diag.raw_value.hex() == raw_value
        assert diag.grad_norm.hex() == grad_norm
        assert (diag.evaluations, diag.iterations, diag.starts_finished,
                diag.starts_agreeing, diag.converged) == counts
        assert [(d.x.hex(), d.y.hex(), d.z.hex())
                for d in result.optimal_measurement.directions] == PINNED_GQD[n][4]


class TestCorrelationStart:
    def test_start_order(self):
        rho = random_density_matrix(3, np.random.default_rng(RNG_SEED + 100))
        coeffs = coefficients(rho)
        corr = _correlation_start(coeffs)
        axes = [np.tile(_AXES[a], 3) for a in "zxy"]
        three = _start_points(coeffs, OptimizerOptions(starts=3))
        assert all(np.array_equal(a, b) for a, b in zip(three, [corr, *axes[:2]]))
        full = _start_points(coeffs, OptimizerOptions(seed=3))
        assert len(full) == 24
        assert all(np.array_equal(a, b) for a, b in zip(full, [corr, *axes]))
        assert len(_start_points(coeffs, OptimizerOptions(starts=1))) == 1

    def test_is_the_top_eigenvector_of_each_qubits_correlations(self):
        # G_ab = sum_P tr(rho sigma_a x P) tr(rho sigma_b x P) over the Pauli
        # strings P of the other qubits, here for qubit 1 of 3, built from
        # dense traces.
        rho = random_density_matrix(3, np.random.default_rng(RNG_SEED + 101))
        paulis = [IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z]
        g = np.zeros((3, 3))
        for p, q in itertools.product(paulis, repeat=2):
            t = [np.trace(rho.matrix @ functools.reduce(np.kron, (p, s, q))).real for s in paulis[1:]]
            g += np.outer(t, t)
        top = np.linalg.eigh(g)[1][:, -1]
        got = _correlation_start(coefficients(rho)).reshape(3, 3)[1]
        assert abs(abs(got @ top) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_is_z_on_the_maximally_mixed_state(self, n):
        assert np.array_equal(_correlation_start(coefficients(maximally_mixed(n))), np.tile(_AXES["z"], n))

    def test_reaches_a_rotated_closed_form_that_the_axis_starts_miss(self):
        # Three axis starts alone end 0.136 bits above the closed form of
        # this rotated Pauli-diagonal state; with the correlation start
        # first, three starts reach it.
        params = PauliDiagonalParams(4, -0.48, -0.4, 0.63)
        rho = rotated(pauli_diagonal_state(params), np.random.default_rng(7))
        exact = gqd_pauli_diagonal(params)
        opts = OptimizerOptions(starts=3)
        axes = [np.tile(_AXES[a], 4) for a in "zxy"]
        _, _, axis_diag = _run_starts(objective(rho), axes, opts, mutual_information(rho))
        assert axis_diag.raw_value - exact > 0.1
        assert abs(gqd_numeric(rho, opts).value - exact) <= 1e-9


def frozen_start_points(coeffs: np.ndarray, starts: int | None, seed: int) -> list[np.ndarray]:
    """A fixed copy of the package's start list, one qubit and one start at
    a time: the correlation start from one ``eigh`` per qubit, z, x and y
    tiles, then one pair of ``uniform`` draws (z, phi) per random start."""
    n = coeffs.ndim
    directions = []
    for j in range(n):
        m = np.moveaxis(coeffs, j, 0)[1:].reshape(3, -1)
        g = m @ m.T
        directions.append(np.linalg.eigh(g)[1][:, -1] if g.any() else np.array([0.0, 0.0, 1.0]))
    axes = ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    total = 8 * n if starts is None else starts
    points = ([np.concatenate(directions)] + [np.tile(a, n) for a in axes])[:total]
    rng = np.random.default_rng(seed)
    while len(points) < total:
        z = rng.uniform(-1.0, 1.0, size=n)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        s = np.sqrt(1.0 - z * z)
        points.append(np.column_stack([s * np.cos(phi), s * np.sin(phi), z]).ravel())
    return points


class TestStartPoints:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_match_a_frozen_copy_byte_for_byte(self, n):
        # A Ginibre state, and one whose first qubit is I/2 and uncorrelated,
        # so that one Gram matrix of the stack is zero.
        rng = np.random.default_rng(RNG_SEED + n)
        rest = random_density_matrix(n - 1, rng).matrix
        states = [random_density_matrix(n, rng).matrix, np.kron(np.eye(2) / 2, rest)]
        for rho in states:
            coeffs = _pauli_coefficients(rho).real
            for seed, starts in itertools.product(range(20), [1, 3, 4, 5, None]):
                got = _start_points(coeffs, OptimizerOptions(seed=seed, starts=starts))
                want = frozen_start_points(coeffs, starts, seed)
                assert isinstance(got, list) and len(got) == len(want)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (seed, starts)


class TestMixedMarginalShortcut:
    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(RNG_SEED)
        cases = [
            werner_ghz_state(WernerGhzParams(2, 0.5)),
            werner_ghz_state(WernerGhzParams(3, 0.8)),
            pauli_diagonal_state(random_valid_pauli_params(2, rng)),
            pauli_diagonal_state(random_valid_pauli_params(3, rng)),
        ]
        for rho in cases:
            fast = gqd_maximally_mixed(rho)
            full = gqd_numeric(rho)
            assert abs(fast.value - full.value) <= 1e-6

    # Qubit ``qubit`` of an n-qubit product state has the Bloch vector
    # ``bloch``, every other qubit I/2. Each deviation has four significant
    # digits, so the message's ``.3e`` figure is exact.
    @pytest.mark.parametrize("n, qubit, bloch", [
        (2, 0, (0.0, 0.0, 0.8)),
        (3, 1, (0.25, 0.0, 0.0)),
        (3, 1, (0.0, -0.25, 0.0)),
        (3, 1, (0.3, 0.4, 0.0)),
    ], ids=["z-qubit0", "x-qubit1", "y-qubit1", "xy-qubit1"])
    def test_rejects_biased_marginals_naming_qubit(self, n, qubit, bloch):
        r_sigma = bloch[0] * PAULI_X + bloch[1] * PAULI_Y + bloch[2] * PAULI_Z
        factors = [IDENTITY_2 / 2] * n
        factors[qubit] = (IDENTITY_2 + r_sigma) / 2
        biased = DensityMatrix(functools.reduce(np.kron, factors))
        with pytest.raises(ValueError, match=f"^qubit {qubit} marginal deviates") as exc:
            gqd_maximally_mixed(biased)
        want = np.max(np.abs(partial_trace(biased, {qubit}).matrix - IDENTITY_2 / 2))
        reported = float(re.search(r"by (\S+),", str(exc.value)).group(1))
        assert abs(reported - want) <= 1e-15

    def test_accepts_marginals_within_the_tolerance(self):
        # Qubit 1's marginal is off I/2 by 1e-9 in its off-diagonal entry.
        params = WernerGhzParams(3, 0.5)
        tilt = 1e-9 * np.kron(np.kron(IDENTITY_2, PAULI_X), IDENTITY_2) / 4
        rho = DensityMatrix(werner_ghz_state(params).matrix + tilt)
        dev = np.max(np.abs(partial_trace(rho, {1}).matrix - IDENTITY_2 / 2))
        assert dev == pytest.approx(1e-9, rel=1e-6)
        res = gqd_maximally_mixed(rho)
        assert abs(res.value - gqd_werner_ghz(params)) <= 1e-6

    def test_zero_on_maximally_mixed(self):
        res = gqd_maximally_mixed(maximally_mixed(2))
        assert res.value == 0.0
        assert res.method == "maximally_mixed"
        assert res.diagnostics.starts_agreeing == res.diagnostics.starts == 16

    def test_matches_closed_forms_on_acceptance_grids(self):
        # The GHZ-mixture grid of acceptance criterion 1 and two-qubit
        # (Bell-diagonal) draws of criterion 2, at their tolerance.
        seed = 20240815
        opts = OptimizerOptions(seed=seed, starts=8)
        for n in (2, 3):
            for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
                params = WernerGhzParams(n, mu)
                got = gqd_maximally_mixed(werner_ghz_state(params), opts).value
                assert abs(got - gqd_werner_ghz(params)) <= 1e-4, (n, mu)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            params = random_valid_pauli_params(2, rng)
            got = gqd_maximally_mixed(pauli_diagonal_state(params), opts).value
            assert abs(got - gqd_pauli_diagonal(params)) <= 1e-4, params

    def test_freezes_raw_value_in_diagnostics(self):
        rho = werner_ghz_state(WernerGhzParams(2, 0.5))
        res = gqd_maximally_mixed(rho)
        assert res.diagnostics.raw_value <= res.value + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_verify_check_holds_by_the_dense_route(self, seed):
        result = check_mixed_marginal_shortcut(seed, 100)
        assert result.passed and result.tolerance == 1e-9
        assert result.margin <= 1e-12

    def test_verify_check_catches_a_shifted_discord(self, monkeypatch):
        solve = checks.gqd_maximally_mixed

        def shifted(rho, opts=None):
            res = solve(rho, opts)
            diag = dataclasses.replace(res.diagnostics, raw_value=res.diagnostics.raw_value + 1e-3)
            return dataclasses.replace(res, value=res.value + 1e-3, diagnostics=diag)

        monkeypatch.setattr(checks, "gqd_maximally_mixed", shifted)
        assert not check_mixed_marginal_shortcut(0, 100).passed


class TestGqdResult:
    def test_value_never_negative(self):
        res = GqdResult(value=0.0, method="numeric")
        assert res.value == 0.0
        assert res.optimal_measurement is None
