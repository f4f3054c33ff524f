"""Tests for local projective measurements and pinching maps."""

import importlib
import itertools
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

from gqd.discord import WernerGhzParams, werner_ghz_state
from gqd.measurement import (
    LocalMeasurement,
    _bloch_vectors,
    _leg_matrices,
    _measured_distribution,
    _pauli_coefficients,
    _reverse,
    apply_local_measurement,
    canonical_direction,
    measurement_objective,
    pinch_matrix,
    projectors,
    relative_entropy_objective,
)
from gqd.qcore import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    DensityMatrix,
    partial_trace,
    random_bloch_vector,
    random_density_matrix,
    random_unitary,
)

RNG_SEED = 20240812

_SIGMA = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def maximally_mixed(n: int) -> DensityMatrix:
    """The state ``I / 2**n``."""
    return DensityMatrix(np.eye(2**n) / 2**n)


def along_z(n: int) -> LocalMeasurement:
    """The z axis on every qubit."""
    return LocalMeasurement((BlochVector(0.0, 0.0, 1.0),) * n)


def n_dot_sigma(v: BlochVector) -> np.ndarray:
    return v.x * PAULI_X + v.y * PAULI_Y + v.z * PAULI_Z


def random_measurement(n_qubits: int, rng: np.random.Generator) -> LocalMeasurement:
    return LocalMeasurement(tuple(random_bloch_vector(rng) for _ in range(n_qubits)))


def pinch_by_projector_sum(mat: np.ndarray, directions) -> np.ndarray:
    """Reference route: explicitly sum over all 2^N projector sandwiches."""
    pairs = [projectors(d) for d in directions]
    out = np.zeros_like(np.asarray(mat, dtype=complex))
    for choice in itertools.product((0, 1), repeat=len(directions)):
        p = pairs[0][choice[0]]
        for k, c in zip(pairs[1:], choice[1:]):
            p = np.kron(p, k[c])
        out += p @ mat @ p
    return out


def kron_all(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def direction_cases(n: int, rng: np.random.Generator) -> dict:
    """Per-qubit directions: random ones alternating between the upper and
    lower hemisphere, the optimizer's three axis starts, both poles, and
    equator points with x < 0 and y < 0."""
    def tiled(x, y, z):
        return (BlochVector(x, y, z),) * n

    mixed = []
    for k in range(n):
        v = random_bloch_vector(rng)
        mixed.append(v.antipode() if (v.z < 0) != (k % 2 == 1) else v)
    phi = rng.uniform(math.pi, 1.5 * math.pi, size=n)
    return {
        "random": tuple(mixed),
        "z": tiled(0.0, 0.0, 1.0),
        "x": tiled(1.0, 0.0, 0.0),
        "y": tiled(0.0, 1.0, 0.0),
        "south": tiled(0.0, 0.0, -1.0),
        "equator": tuple(BlochVector(math.cos(f), math.sin(f), 0.0) for f in phi),
        "-x,-y": tuple(
            BlochVector(-1.0, 0.0, 0.0) if k % 2 else BlochVector(0.0, -1.0, 0.0)
            for k in range(n)
        ),
    }


def measured_basis(d: BlochVector) -> np.ndarray:
    """``V`` whose rows are the eigenvectors of ``n . sigma`` for +1, then -1."""
    _, vecs = np.linalg.eigh(n_dot_sigma(d))
    return vecs[:, ::-1].conj().T


def bloch_of_basis(u: np.ndarray) -> BlochVector:
    """The direction measured in the basis of ``u``'s rows: ``u^dagger sigma_z u``."""
    a = u.conj().T @ PAULI_Z @ u
    return BlochVector(*(float(np.trace(a @ p).real) / 2 for p in (PAULI_X, PAULI_Y, PAULI_Z)))


def basis_cases(n: int, rng: np.random.Generator) -> dict:
    """Per-qubit directions with their measured bases ``V``: the direction
    cases, with V from the eigenvectors of ``n . sigma``, and two sets of
    Haar-random bases, with the directions they measure."""
    cases = {
        name: (directions, [measured_basis(d) for d in directions])
        for name, directions in direction_cases(n, rng).items()
    }
    for k in range(2):
        bases = [random_unitary(2, rng) for _ in range(n)]
        cases[f"haar{k}"] = (tuple(bloch_of_basis(u) for u in bases), bases)
    return cases


def unit_array(directions) -> np.ndarray:
    return np.array([d.as_array() for d in directions])


PAULI_BASIS = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)


class TestPauliCoefficients:
    """``T_mu = tr(mat sigma_mu) / 2^N`` by one butterfly per qubit."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_rebuilds_the_matrix(self, n):
        rng = np.random.default_rng(RNG_SEED + 400 + n)
        d = 2**n
        mats = {
            "state": random_density_matrix(n, rng).matrix,
            "non_hermitian": rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
        }
        for kind, mat in mats.items():
            t = _pauli_coefficients(mat)
            assert t.shape == (4,) * n
            rebuilt = np.zeros((d, d), dtype=complex)
            for mu in itertools.product(range(4), repeat=n):
                rebuilt += t[mu] * kron_all([PAULI_BASIS[k] for k in mu])
            assert np.max(np.abs(rebuilt - mat)) <= 1e-12 * np.max(np.abs(mat)), kind
            if kind == "state":
                assert np.max(np.abs(t.imag)) <= 1e-15
                assert t[(0,) * n].real == pytest.approx(1.0 / d, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_marginal_bloch_vectors_match_partial_trace(self, n):
        rng = np.random.default_rng(RNG_SEED + 500 + n)
        rho = random_density_matrix(n, rng)
        t = _pauli_coefficients(rho.matrix).real
        for j, got in enumerate(_bloch_vectors(t)):
            reduced = partial_trace(rho, {j}).matrix
            want = [np.trace(reduced @ p).real for p in (PAULI_X, PAULI_Y, PAULI_Z)]
            assert np.max(np.abs(got - want)) <= 1e-12, j


class TestMeasuredDistributionKernel:
    """The real Pauli-leg contraction against an explicit Kronecker V."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_kronecker_reference(self, n):
        rng = np.random.default_rng(RNG_SEED + n)
        rho = random_density_matrix(n, rng).matrix
        coeffs = _pauli_coefficients(rho).real
        for name, (directions, bases) in basis_cases(n, rng).items():
            for d, v in zip(directions, bases):
                assert np.allclose(v @ n_dot_sigma(d) @ v.conj().T, PAULI_Z, atol=1e-12)
            v = kron_all(bases)
            want = np.diag(v @ rho @ v.conj().T).real
            got, _ = _measured_distribution(coeffs, _leg_matrices(unit_array(directions))[None])
            assert got.shape == (1, 2**n)
            assert np.max(np.abs(got[0] - want)) <= 1e-12, name

    @pytest.mark.parametrize("n", range(2, 6))
    def test_reverse_pass_is_the_derivative_in_each_leg(self, n):
        # q is linear in each leg matrix, so the derivative in entry (mu, x)
        # of leg j is the contraction with that leg replaced by the unit
        # matrix E_(mu, x).
        rng = np.random.default_rng(RNG_SEED + 600 + n)
        coeffs = _pauli_coefficients(random_density_matrix(n, rng).matrix).real
        directions, _ = basis_cases(n, rng)["random"]
        legs = _leg_matrices(unit_array(directions))[None]
        q, inputs = _measured_distribution(coeffs, legs)
        adjoint = rng.normal(size=q.shape)
        got = _reverse(inputs, legs, adjoint)
        assert got.shape == legs.shape
        for j, mu, x in itertools.product(range(n), range(4), range(2)):
            unit = legs.copy()
            unit[0, j] = 0.0
            unit[0, j, mu, x] = 1.0
            want = (adjoint * _measured_distribution(coeffs, unit)[0]).sum()
            assert abs(got[0, j, mu, x] - want) <= 1e-12, (j, mu, x)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_stack_rows_match_single_calls_bit_for_bit(self, n):
        # Each stack row is contracted on its own, so a row's distribution
        # and reverse pass do not depend on the rows stacked with it.
        rng = np.random.default_rng(RNG_SEED + 300 + n)
        coeffs = _pauli_coefficients(random_density_matrix(n, rng).matrix).real
        legs = np.stack([
            _leg_matrices(unit_array(directions))
            for directions, _ in basis_cases(n, rng).values()
        ])
        q, inputs = _measured_distribution(coeffs, legs)
        adjoint = -np.log2(np.maximum(q, 1e-300))
        grads = _reverse(inputs, legs, adjoint)
        assert q.shape == (len(legs), 2**n)
        for k in range(len(legs)):
            for part in (slice(k, k + 1), slice(k, k + 3)):
                q1, inputs1 = _measured_distribution(coeffs, legs[part])
                assert np.array_equal(q1[0], q[k]), (k, part)
                g1 = _reverse(inputs1, legs[part], adjoint[part])
                assert np.array_equal(g1[0], grads[k]), (k, part)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pinch_matrix_matches_kronecker_reference(self, n):
        rng = np.random.default_rng(RNG_SEED + 100 + n)
        d = 2**n
        mats = {
            "ginibre_state": random_density_matrix(n, rng).matrix,
            "non_hermitian": (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d,
        }
        for name, (directions, bases) in basis_cases(n, rng).items():
            v = kron_all(bases)
            for kind, mat in mats.items():
                rotated = v @ mat @ v.conj().T
                want = v.conj().T @ np.diag(np.diag(rotated)) @ v
                got = pinch_matrix(mat, directions)
                assert np.max(np.abs(got - want)) <= 1e-12, (name, kind)


class TestProjectors:
    def test_complete_idempotent_orthogonal(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            p0, p1 = projectors(random_bloch_vector(rng))
            assert np.allclose(p0 + p1, np.eye(2), atol=1e-12)
            assert np.allclose(p0 @ p0, p0, atol=1e-12)
            assert np.allclose(p1 @ p1, p1, atol=1e-12)
            assert np.allclose(p0 @ p1, 0.0, atol=1e-12)

    def test_z_axis_projectors_are_basis_states(self):
        p0, p1 = projectors(BlochVector(0.0, 0.0, 1.0))
        assert np.allclose(p0, np.diag([1.0, 0.0]), atol=0)
        assert np.allclose(p1, np.diag([0.0, 1.0]), atol=0)


class TestLegMatrices:
    def test_entries_are_pauli_traces_of_the_projectors(self):
        # Entry (mu, x) is tr(sigma_mu P_x), for random directions and their
        # antipodes, both poles and the equator with x < 0 and y < 0.
        rng = np.random.default_rng(RNG_SEED)
        directions = [random_bloch_vector(rng) for _ in range(30)]
        directions += [d.antipode() for d in directions]
        for case in direction_cases(4, rng).values():
            directions += case
        legs = _leg_matrices(unit_array(directions))
        for d, leg in zip(directions, legs):
            want = [[np.trace(s @ p).real for p in projectors(d)] for s in PAULI_BASIS]
            assert np.max(np.abs(leg - want)) <= 1e-15


class TestLocalMeasurement:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LocalMeasurement(())

    def test_canonical_direction_fixes_sign(self):
        assert canonical_direction(BlochVector(0.0, 0.0, -1.0)).z == 1.0
        flipped = canonical_direction(BlochVector(0.6, -0.8, 0.0))
        assert (flipped.x, flipped.y) == (-0.6, 0.8)
        assert canonical_direction(BlochVector(-1.0, 0.0, 0.0)).x == 1.0
        kept = canonical_direction(BlochVector(0.6, 0.8, 0.0))
        assert (kept.x, kept.y) == (0.6, 0.8)


class TestPinchMatrix:
    def test_matches_projector_sum_route(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            for _ in range(10):
                m = random_measurement(n, rng)
                mat = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
                got = pinch_matrix(mat, m.directions)
                want = pinch_by_projector_sum(mat, m.directions)
                assert np.linalg.norm(got - want) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            for _ in range(10):
                m = random_measurement(n, rng)
                rho = random_density_matrix(n, rng)
                once = pinch_matrix(rho.matrix, m.directions)
                twice = pinch_matrix(once, m.directions)
                assert np.linalg.norm(twice - once) <= 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_measured_pauli_projects_onto_axis(self, axis):
        # Pinching sigma_j along n leaves the component of sigma_j along
        # the measured axis: n_j (n . sigma).
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(15):
            d = random_bloch_vector(rng)
            weight = {"x": d.x, "y": d.y, "z": d.z}[axis]
            got = pinch_matrix(_SIGMA[axis], (d,))
            assert np.linalg.norm(got - weight * n_dot_sigma(d)) <= 1e-12

    def test_sign_of_direction_is_irrelevant(self):
        rng = np.random.default_rng(RNG_SEED)
        d = random_bloch_vector(rng)
        rho = random_density_matrix(1, rng)
        a = pinch_matrix(rho.matrix, (d,))
        b = pinch_matrix(rho.matrix, (d.antipode(),))
        assert np.linalg.norm(a - b) <= 1e-12

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(RNG_SEED)
        m = random_measurement(2, rng)
        rho = random_density_matrix(2, rng)
        out = pinch_matrix(rho.matrix, m.directions)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.linalg.norm(out - out.conj().T) <= 1e-12

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(ValueError):
            pinch_matrix(np.eye(4) / 4, (random_bloch_vector(rng),))


class TestApplyLocalMeasurement:
    def test_all_z_on_ghz_mixture_spectrum(self):
        # mu = 0.5, three qubits: measuring every qubit along z halves the
        # GHZ weight across the two classical outcomes 000 and 111.
        rho = werner_ghz_state(WernerGhzParams(3, 0.5))
        measured = apply_local_measurement(rho, along_z(3))
        want = np.sort(np.array([0.3125, 0.3125] + [0.0625] * 6))
        assert np.allclose(np.sort(measured.eigenvalues()), want, atol=1e-12)

    def test_fixed_point_of_classical_state(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        measured = apply_local_measurement(rho, along_z(2))
        assert np.allclose(measured.matrix, rho.matrix, atol=1e-14)

    def test_rejects_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_local_measurement(maximally_mixed(3), along_z(2))


def measure_reduced(rho: DensityMatrix, m: LocalMeasurement, qubit: int) -> DensityMatrix:
    """Qubit ``qubit``'s reduced state, measured along its own direction."""
    reduced = partial_trace(rho, {qubit})
    return apply_local_measurement(reduced, LocalMeasurement((m.directions[qubit],)))


class TestMeasuredMarginal:
    def test_commutes_with_partial_trace(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            for _ in range(10):
                rho = random_density_matrix(n, rng)
                m = random_measurement(n, rng)
                measured = apply_local_measurement(rho, m)
                for q in range(n):
                    via_state = partial_trace(measured, {q})
                    via_marginal = measure_reduced(rho, m, q)
                    assert (
                        np.linalg.norm(via_state.matrix - via_marginal.matrix) <= 1e-10
                    )

    def test_maximally_mixed_marginal_stays_mixed(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = werner_ghz_state(WernerGhzParams(2, 0.7))
        m = random_measurement(2, rng)
        for q in range(2):
            marg = measure_reduced(rho, m, q)
            assert np.allclose(marg.matrix, np.eye(2) / 2, atol=1e-12)


class TestObjectives:
    def test_two_routes_agree(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            for _ in range(50):
                rho = random_density_matrix(n, rng)
                m = random_measurement(n, rng)
                a = measurement_objective(rho, m)
                b = relative_entropy_objective(rho, m)
                assert abs(a - b) <= 1e-9

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(RNG_SEED)
        for n in (2, 3):
            for _ in range(25):
                rho = random_density_matrix(n, rng)
                m = random_measurement(n, rng)
                assert measurement_objective(rho, m) >= -1e-9

    def test_zero_for_classical_state_in_its_basis(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        obj = measurement_objective(rho, along_z(2))
        assert abs(obj) <= 1e-12

    def test_zero_for_product_states_any_measurement(self):
        # products stay products under local pinching, so both mutual
        # informations vanish
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            a = random_density_matrix(1, rng)
            b = random_density_matrix(1, rng)
            rho = DensityMatrix(np.kron(a.matrix, b.matrix))
            m = random_measurement(2, rng)
            assert abs(measurement_objective(rho, m)) <= 1e-9

    def test_maximally_mixed_gives_zero(self):
        rng = np.random.default_rng(RNG_SEED)
        m = random_measurement(3, rng)
        assert abs(measurement_objective(maximally_mixed(3), m)) <= 1e-12


README = Path(__file__).resolve().parents[1] / "README.md"

# What the CLI, the README, the acceptance suite and the benchmark take from
# the top-level package.
PUBLIC_NAMES = {
    "BlochVector", "DensityMatrix", "StateValidationError", "binary_entropy",
    "mutual_information", "partial_trace", "shannon_entropy", "tensor_product",
    "LocalMeasurement", "measurement_objective", "pinch_matrix",
    "relative_entropy_objective",
    "GqdResult", "InvalidParamsError", "OptimizerOptions", "PauliDiagonalParams",
    "QubitLimitError", "ValidationReport", "WernerGhzParams",
    "gqd_maximally_mixed", "gqd_numeric", "gqd_pauli_diagonal", "gqd_werner_ghz",
    "gqd_werner_ghz_asymptotic", "pauli_diagonal_state", "validate_pauli_params",
    "werner_ghz_state",
    "PlateauInterval", "ScanReport", "SweepRecord", "SweepRecords",
    "scan_gqd_vs_p", "sudden_transition_point",
    "__version__",
}


class TestPublicSurface:
    def test_exports_exactly_the_public_names(self):
        import gqd

        assert set(gqd.__all__) == PUBLIC_NAMES
        assert len(gqd.__all__) == len(PUBLIC_NAMES)
        public = {name for name in vars(gqd) if not name.startswith("_")}
        # Besides the exports, only the submodules are attributes of gqd.
        assert all(isinstance(getattr(gqd, name), types.ModuleType)
                   for name in public - PUBLIC_NAMES)

    @pytest.mark.parametrize(
        "module",
        ["gqd", "gqd.qcore", "gqd.measurement", "gqd.discord", "gqd.dynamics",
         "gqd.lbfgs", "gqd.checks", "gqd.cli"],
    )
    def test_every_module_export_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_readme_quick_start_runs(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Library quick start", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert "from gqd import" in block
        exec(compile(block, str(README), "exec"), {})

    def test_readme_qualified_names_resolve(self):
        # Each `gqd.a.b` the README names is a submodule of the package, or
        # an attribute of the module or object before it.
        names = re.findall(r"`(gqd(?:\.\w+)+)`", README.read_text(encoding="utf-8"))
        assert names
        for name in names:
            obj = importlib.import_module("gqd")
            parts = name.split(".")
            for k, part in enumerate(parts[1:], start=2):
                if hasattr(obj, "__path__") and not hasattr(obj, part):
                    importlib.import_module(".".join(parts[:k]))
                assert hasattr(obj, part), name
                obj = getattr(obj, part)
