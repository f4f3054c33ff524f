"""Tests for local projective measurements and pinching maps."""

import itertools
import math

import numpy as np
import pytest

from gqd.discord import WernerGhzParams, werner_ghz_state
from gqd.measurement import (
    LocalMeasurement,
    _measured_distribution,
    apply_local_measurement,
    canonical_direction,
    measurement_objective,
    pinch_matrix,
    projectors,
    relative_entropy_objective,
    rotation_to_z,
)
from gqd.qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    DensityMatrix,
    maximally_mixed,
    partial_trace,
    random_bloch_vector,
    random_density_matrix,
    random_unitary,
)

RNG_SEED = 20240812

_SIGMA = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


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


def unitary_cases(n: int, rng: np.random.Generator) -> dict:
    """Per-qubit unitaries: the direction cases through ``rotation_to_z``,
    and two stacks of Haar-random unitaries."""
    cases = {
        name: np.stack([rotation_to_z(d) for d in directions])
        for name, directions in direction_cases(n, rng).items()
    }
    for k in range(2):
        cases[f"haar{k}"] = np.stack([random_unitary(2, rng) for _ in range(n)])
    return cases


class TestMeasuredDistributionKernel:
    """The one-qubit-at-a-time contraction against an explicit Kronecker V."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_kronecker_reference(self, n):
        rng = np.random.default_rng(RNG_SEED + n)
        rho = random_density_matrix(n, rng).matrix
        for name, unitaries in unitary_cases(n, rng).items():
            v = kron_all(list(unitaries))
            want = np.diag(v @ rho @ v.conj().T)
            got = _measured_distribution(rho, unitaries[None])
            assert got.shape == (1, 2**n)
            assert np.max(np.abs(got[0] - want)) <= 1e-12, name

    @pytest.mark.parametrize("n", range(2, 9))
    def test_coherences_match_kronecker_reference(self, n):
        # c[j, y] is the (0_j, 1_j) entry of V rho V^dagger with every other
        # outcome equal to y, read in qubit order.
        rng = np.random.default_rng(RNG_SEED + 200 + n)
        rho = random_density_matrix(n, rng).matrix
        for name, unitaries in unitary_cases(n, rng).items():
            v = kron_all(list(unitaries))
            sigma = (v @ rho @ v.conj().T).reshape((2,) * (2 * n))
            q, c = _measured_distribution(rho, unitaries[None], coherences=True)
            assert c.shape == (1, n, 2 ** (n - 1))
            assert np.max(np.abs(q[0] - np.diag(v @ rho @ v.conj().T))) <= 1e-12, name
            for j in range(n):
                want = np.array([
                    sigma[y[:j] + (0,) + y[j:] + y[:j] + (1,) + y[j:]]
                    for y in itertools.product((0, 1), repeat=n - 1)
                ])
                assert np.max(np.abs(c[0, j] - want)) <= 1e-12, (name, j)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_stack_entries_match_single_calls_bit_for_bit(self, n):
        # Each stack entry is contracted on its own, so an entry's result
        # does not depend on the entries stacked with it.
        rng = np.random.default_rng(RNG_SEED + 300 + n)
        rho = random_density_matrix(n, rng).matrix
        unitaries = np.stack(list(unitary_cases(n, rng).values()))
        q, c = _measured_distribution(rho, unitaries, coherences=True)
        assert q.shape == (len(unitaries), 2**n)
        for k, u in enumerate(unitaries):
            q1, c1 = _measured_distribution(rho, u[None], coherences=True)
            assert np.array_equal(q1[0], q[k]) and np.array_equal(c1[0], c[k]), k
            assert np.array_equal(_measured_distribution(rho, u[None])[0], q[k]), k

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pinch_matrix_matches_kronecker_reference(self, n):
        rng = np.random.default_rng(RNG_SEED + 100 + n)
        d = 2**n
        mats = {
            "ginibre_state": random_density_matrix(n, rng).matrix,
            "non_hermitian": (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d,
        }
        for name, directions in direction_cases(n, rng).items():
            v = kron_all([rotation_to_z(dd) for dd in directions])
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


class TestRotationToZ:
    def test_aligns_direction_with_z(self):
        # Random directions and their antipodes cover both hemispheres; the
        # cases add both poles and the equator with x < 0 and y < 0.
        rng = np.random.default_rng(RNG_SEED)
        directions = [random_bloch_vector(rng) for _ in range(30)]
        directions += [d.antipode() for d in directions]
        for case in direction_cases(4, rng).values():
            directions += case
        assert any(d.z < 0 for d in directions)
        for d in directions:
            v = rotation_to_z(d)
            assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-12)
            assert np.allclose(v @ n_dot_sigma(d) @ v.conj().T, PAULI_Z, atol=1e-12)

    def test_z_direction_gives_identity(self):
        v = rotation_to_z(BlochVector(0.0, 0.0, 1.0))
        assert np.allclose(v, np.eye(2), atol=1e-15)


class TestLocalMeasurement:
    def test_along_axis(self):
        m = LocalMeasurement.along_axis("x", 3)
        assert m.n_qubits == 3
        for d in m.directions:
            assert np.allclose(d.as_array(), [1.0, 0.0, 0.0], atol=0)

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

    def test_canonicalized_measurement(self):
        m = LocalMeasurement(
            (BlochVector(0.0, 0.0, -1.0), BlochVector(0.0, 0.0, 1.0))
        ).canonicalized()
        assert all(d.z == 1.0 for d in m.directions)


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
        measured = apply_local_measurement(rho, LocalMeasurement.along_axis("z", 3))
        want = np.sort(np.array([0.3125, 0.3125] + [0.0625] * 6))
        assert np.allclose(np.sort(measured.eigenvalues()), want, atol=1e-12)

    def test_fixed_point_of_classical_state(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        measured = apply_local_measurement(rho, LocalMeasurement.along_axis("z", 2))
        assert np.allclose(measured.matrix, rho.matrix, atol=1e-14)

    def test_rejects_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_local_measurement(
                maximally_mixed(3), LocalMeasurement.along_axis("z", 2)
            )


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
        obj = measurement_objective(rho, LocalMeasurement.along_axis("z", 2))
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


class TestPublicSurface:
    def test_lemma_helpers_stay_in_their_modules(self):
        import gqd
        import gqd.measurement
        import gqd.qcore

        helpers = {
            "bloch_rotation": gqd.qcore,
            "majorizes": gqd.qcore,
            "diagonal_pinch": gqd.qcore,
            "projectors": gqd.measurement,
            "rotation_to_z": gqd.measurement,
        }
        for name, module in helpers.items():
            assert name not in gqd.__all__
            assert not hasattr(gqd, name), name
            assert callable(getattr(module, name))
        for name in gqd.__all__:
            assert hasattr(gqd, name), name
