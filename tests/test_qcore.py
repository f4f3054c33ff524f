"""Tests for states, entropies, and spectral utilities."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqd.qcore import (
    _entropy_bits,
    BlochVector,
    DensityMatrix,
    StateValidationError,
    apply_single_qubit_operators,
    binary_entropy,
    bloch_rotation,
    diagonal_pinch,
    majorizes,
    maximally_mixed,
    mutual_information,
    partial_trace,
    pauli_string,
    pure_state,
    random_bloch_vector,
    random_density_matrix,
    random_unitary,
    relative_entropy,
    shannon_entropy,
    tensor_product,
    von_neumann_entropy,
)

RNG_SEED = 20240811


def bell_phi_plus() -> DensityMatrix:
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return pure_state(v)


def ghz(n: int) -> DensityMatrix:
    v = np.zeros(2**n)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return pure_state(v)


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert rho.n_qubits == 2
        assert rho.dim == 4

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(StateValidationError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(StateValidationError, match="positive semidefinite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        mat = bell_phi_plus().matrix.copy()
        mat[0, 3] = mat[3, 0] = bad
        with pytest.raises(StateValidationError, match="NaN or infinite"):
            DensityMatrix(mat)

    def test_rejects_non_power_of_two_dim(self):
        with pytest.raises(StateValidationError, match="power of two"):
            DensityMatrix(np.eye(3) / 3)

    def test_rejects_non_square(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.ones((2, 4)) / 4)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_eigenvalues_ascending(self):
        rho = DensityMatrix(np.diag([0.7, 0.3, 0.0, 0.0]))
        assert np.allclose(rho.eigenvalues(), [0.0, 0.0, 0.3, 0.7], atol=1e-12)

    def test_eigendecomposition_reconstructs_state(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            w, v = np.linalg.eigh(rho.matrix)
            rebuilt = (v * w) @ v.conj().T
            assert np.linalg.norm(rebuilt - rho.matrix) <= 1e-9


class TestBlochVector:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError, match="unit"):
            BlochVector(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_components(self, bad):
        with pytest.raises(ValueError, match="unit"):
            BlochVector(bad, 0.0, 0.0)

    @pytest.mark.parametrize("axis", range(3))
    def test_rejects_components_whose_square_overflows(self, axis):
        components = [0.0, 0.0, 0.0]
        components[axis] = 1e200
        with pytest.raises(ValueError, match="unit"):
            BlochVector(*components)

    def test_rejects_int_components_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="unit"):
            BlochVector(10**400, 0, 0)

    def test_antipode_negates(self):
        v = BlochVector(0.48, -0.6, 0.64)
        assert np.allclose(v.antipode().as_array(), -v.as_array(), atol=1e-15)


class TestPauliStrings:
    def test_tensor_product_matches_kron(self):
        rng = np.random.default_rng(RNG_SEED)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4))
        assert np.array_equal(tensor_product(a, b), np.kron(a, b))

    def test_tensor_product_rejects_non_square(self):
        with pytest.raises(ValueError):
            tensor_product(np.ones((2, 3)), np.eye(2))

    def test_yy_matrix(self):
        yy = pauli_string("y", 2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = -1
        expected[1, 2] = 1
        expected[2, 1] = 1
        expected[3, 0] = -1
        assert np.allclose(yy, expected, atol=0)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_squares_to_identity(self, axis, n):
        s = pauli_string(axis, n)
        assert np.allclose(s @ s, np.eye(2**n), atol=1e-15)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli_string("w", 2)


class TestPartialTrace:
    def test_ghz_single_qubit_marginal_is_mixed(self):
        rho = ghz(3)
        for k in range(3):
            red = partial_trace(rho, {k})
            assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_ghz_two_qubit_marginal_is_classical(self):
        red = partial_trace(ghz(3), {0, 1})
        assert np.allclose(red.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_product_state_factors(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_density_matrix(1, rng)
        b = random_density_matrix(1, rng)
        joint = DensityMatrix(np.kron(a.matrix, b.matrix))
        assert np.allclose(partial_trace(joint, {0}).matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(joint, {1}).matrix, b.matrix, atol=1e-12)

    def test_rejects_bad_subsets(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {5})

    @pytest.mark.parametrize("index", [0.5, 1.0, "0", True, np.bool_(False), None])
    def test_rejects_an_index_that_is_not_an_integer(self, index):
        with pytest.raises(ValueError, match=re.escape(f"keep index {index!r} is not an integer")):
            partial_trace(maximally_mixed(2), [index])

    def test_accepts_numpy_integer_indices(self):
        rho = random_density_matrix(2, np.random.default_rng(RNG_SEED))
        assert np.array_equal(partial_trace(rho, [np.int64(1)]).matrix, partial_trace(rho, {1}).matrix)


# Entries pass the rule up to 1e-9 outside [0, 1] and the sum up to 1e-9 off
# 1, which moves an entropy of at most 8 entries by far less than this.
_ENTROPY_SLACK = 1e-7


def _assert_in_range_or_value_error(entropy, arg, high):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            h = entropy(arg)
        except ValueError:
            return
    assert math.isfinite(h) and -_ENTROPY_SLACK <= h <= high + _ENTROPY_SLACK, (arg, h)


class TestEntropies:
    def test_shannon_entropy_uniform(self):
        assert math.isclose(shannon_entropy(np.full(8, 1 / 8)), 3.0, abs_tol=1e-12)

    def test_shannon_entropy_handles_zeros(self):
        assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_shannon_entropy_rejects_negative(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([1.1, -0.1]))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([math.inf, 0.0], "inf above"),
            ([2.0, -1e-10], "2.0 above"),
            ([1e308, 1e308], "above"),
            ([0.5, 0.5, 0.5], "sums to 1.5"),
            ([], "non-empty 1-D"),
            (np.full((2, 2), 0.25), "non-empty 1-D"),
        ],
        ids=["inf", "entry-above-one", "overflowing-sum", "sum-above-one", "empty", "2-d"],
    )
    def test_shannon_entropy_rejects_non_probability_vectors(self, weights, message):
        with pytest.raises(ValueError, match=message):
            shannon_entropy(weights)

    def test_von_neumann_entropy_of_a_state_at_the_psd_tolerance(self):
        # Trace 1 and smallest eigenvalue -5e-10, so DensityMatrix accepts it,
        # while its largest eigenvalue lies above 1 + 1e-9.
        rho = DensityMatrix(np.diag([1 + 1.5e-9, -5e-10, -5e-10, -5e-10]))
        assert abs(von_neumann_entropy(rho)) <= 1e-8
        assert abs(mutual_information(rho)) <= 1e-8
        assert abs(relative_entropy(rho, rho)) <= 1e-8

    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert math.isclose(binary_entropy(0.5), 1.0, abs_tol=1e-15)

    def test_binary_entropy_matches_shannon_entropy(self):
        # Rounding-level negatives are clipped to zero, as in shannon_entropy.
        for p in (-1e-12, 1e-300, 1e-9, 0.1, 0.3, 0.5, 0.77, 1.0 - 1e-12, 1.0 + 1e-12):
            assert math.isclose(binary_entropy(p), shannon_entropy([p, 1.0 - p]), abs_tol=1e-15)

    def test_binary_entropy_rejects_negative(self):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError, match="below"):
                binary_entropy(p)

    def test_entropies_reject_nan(self):
        with pytest.raises(ValueError, match="nan"):
            shannon_entropy([math.nan, 1.0])
        with pytest.raises(ValueError, match="nan"):
            shannon_entropy(np.array([0.5, 0.5, math.nan]))
        with pytest.raises(ValueError, match="nan"):
            binary_entropy(math.nan)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(), max_size=8)
        | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)
        .filter(lambda v: sum(v) > 0.0)
        .map(lambda v: [x / math.fsum(v) for x in v])
    )
    def test_shannon_entropy_is_in_range_or_raises(self, weights):
        """NaN, +-inf and magnitudes up to 1e308 end in ValueError, never in
        a warning or a value out of range."""
        high = math.log2(len(weights)) if weights else 0.0
        _assert_in_range_or_value_error(shannon_entropy, weights, high)

    @settings(max_examples=300, deadline=None)
    @given(st.floats() | st.floats(-1e-8, 1.0 + 1e-8))
    def test_binary_entropy_is_in_range_or_raises(self, p):
        _assert_in_range_or_value_error(binary_entropy, p, 1.0)

    def test_entropy_bits_reduces_each_row_on_its_own(self):
        rng = np.random.default_rng(RNG_SEED)
        rows = rng.dirichlet(np.ones(16), size=7)
        rows[2, :5] = 0.0
        rows[2] /= rows[2].sum()
        stacked = _entropy_bits(rows)
        assert stacked.shape == (7,)
        for k, row in enumerate(rows):
            assert stacked[k] == _entropy_bits(row) == _entropy_bits(rows[k : k + 1])[0]
            assert math.isclose(stacked[k], shannon_entropy(row), abs_tol=0.0)
            want = -sum(p * math.log2(p) for p in row if p > 0.0)
            assert math.isclose(stacked[k], want, abs_tol=1e-14)

    def test_von_neumann_pure_state_zero(self):
        assert von_neumann_entropy(bell_phi_plus()) <= 1e-12

    def test_von_neumann_maximally_mixed(self):
        for n in (1, 2, 3):
            s = von_neumann_entropy(maximally_mixed(n))
            assert math.isclose(s, float(n), abs_tol=1e-12)

    def test_von_neumann_frozen_value(self):
        # Equal mixture of identity/4 and the GHZ projector on two qubits.
        m = 0.5 * np.eye(4) / 4 + 0.5 * ghz(2).matrix
        assert math.isclose(
            von_neumann_entropy(DensityMatrix(m)), 1.5487949406953985, abs_tol=1e-12
        )

    def test_entropy_invariant_under_unitaries(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            rho = random_density_matrix(2, rng)
            u = random_unitary(4, rng)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert abs(
                von_neumann_entropy(rotated) - von_neumann_entropy(rho)
            ) <= 1e-9

    def test_entropy_additive_on_products(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            a = random_density_matrix(1, rng)
            b = random_density_matrix(2, rng)
            joint = DensityMatrix(np.kron(a.matrix, b.matrix))
            total = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert abs(von_neumann_entropy(joint) - total) <= 1e-9


class TestRelativeEntropy:
    def test_zero_on_identical_states(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(2, rng)
        assert abs(relative_entropy(rho, rho)) <= 1e-9

    def test_infinite_outside_support(self):
        zero = pure_state(np.array([1.0, 0.0]))
        one = pure_state(np.array([0.0, 1.0]))
        assert relative_entropy(zero, one) == math.inf

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            rho = random_density_matrix(2, rng)
            sigma = random_density_matrix(2, rng)
            assert relative_entropy(rho, sigma) >= -1e-9

    def test_distance_to_own_diagonal_is_entropy_gap(self):
        # S(rho || pinch(rho)) collapses to the entropy difference because
        # the diagonal part shares rho's diagonal matrix elements.
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            sigma = DensityMatrix(np.diag(np.diag(rho.matrix)).real.astype(complex))
            gap = von_neumann_entropy(sigma) - von_neumann_entropy(rho)
            assert abs(relative_entropy(rho, sigma) - gap) <= 1e-9


class TestMutualInformation:
    def test_zero_on_product_states(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_density_matrix(1, rng)
        b = random_density_matrix(1, rng)
        joint = DensityMatrix(np.kron(a.matrix, b.matrix))
        assert abs(mutual_information(joint)) <= 1e-9

    def test_bell_state_two_bits(self):
        assert math.isclose(mutual_information(bell_phi_plus()), 2.0, abs_tol=1e-12)

    def test_ghz_three_qubits(self):
        # pure joint state, three maximally mixed marginals: 3 + 0 bits
        assert math.isclose(mutual_information(ghz(3)), 3.0, abs_tol=1e-12)

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            mutual_information(maximally_mixed(1))


class TestBlochRotation:
    def test_identity_maps_to_identity(self):
        r = bloch_rotation(np.eye(2, dtype=complex))
        assert np.allclose(r, np.eye(3), atol=1e-12)

    def test_rows_orthonormal_and_proper(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(15):
            u = random_unitary(2, rng)
            r = bloch_rotation(u)
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
            assert math.isclose(np.linalg.det(r), 1.0, abs_tol=1e-9)

    def test_composition_is_homomorphic(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(15):
            u = random_unitary(2, rng)
            v = random_unitary(2, rng)
            lhs = bloch_rotation(u @ v)
            rhs = bloch_rotation(u) @ bloch_rotation(v)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            bloch_rotation(np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex))


class TestMajorization:
    def test_uniform_is_majorized_by_everything(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            q = rng.dirichlet(np.ones(6))
            assert majorizes(np.full(6, 1 / 6), q)

    def test_point_mass_majorizes_everything(self):
        assert majorizes(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert not majorizes(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_pads_unequal_lengths(self):
        # q = (0.6, 0.4, 0) dominates p = (0.5, 0.3, 0.2) partial-sum-wise
        assert majorizes(np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4]))
        assert not majorizes(np.array([0.6, 0.4]), np.array([0.5, 0.3, 0.2]))

    def test_rejects_invalid_distributions(self):
        with pytest.raises(ValueError):
            majorizes(np.array([0.7, 0.4]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            majorizes(np.array([1.1, -0.1]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "p, q",
        [
            ([math.nan, 1.0], [1.0]),
            ([1.0], [math.nan, 1.0]),
            ([math.inf, math.nan], [1.0]),
            ([1e308, 1e308], [1.0]),
            ([1.0], [math.inf, 0.0]),
        ],
        ids=["nan-in-p", "nan-in-q", "inf-and-nan", "overflowing-sum", "inf"],
    )
    def test_rejects_nan_inf_and_overflowing_entries(self, p, q):
        with pytest.raises(ValueError):
            majorizes(p, q)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6), st.integers(0, 10**6))
    def test_mixing_permutations_raises_entropy(self, raw, seed):
        """Averaging a distribution with a permuted copy flattens it."""
        p = np.array(raw) / np.sum(raw)
        rng = np.random.default_rng(seed)
        mixed = 0.5 * p + 0.5 * rng.permutation(p)
        assert majorizes(mixed, p)
        assert shannon_entropy(mixed) >= shannon_entropy(p) - 1e-12


class TestPinchAndChannels:
    def test_diagonal_pinch_keeps_diagonal(self):
        rng = np.random.default_rng(RNG_SEED)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pinched = diagonal_pinch(m)
        assert np.allclose(np.diag(pinched), np.diag(m), atol=0)
        assert np.count_nonzero(pinched - np.diag(np.diag(m))) == 0

    def test_pinch_trace_pairing(self):
        # tr(A . pinch(B)) only sees the diagonal of A, so pinching either
        # factor (or both) leaves the pairing unchanged.
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            t1 = np.trace(a @ diagonal_pinch(b))
            t2 = np.trace(diagonal_pinch(a) @ b)
            t3 = np.trace(diagonal_pinch(a) @ diagonal_pinch(b))
            assert abs(t1 - t2) <= 1e-9
            assert abs(t1 - t3) <= 1e-9

    def test_apply_single_qubit_operators_matches_kron(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(3, rng)
        u = random_unitary(2, rng)
        got = apply_single_qubit_operators(rho.matrix, [u], qubit=1, n_qubits=3)
        full = np.kron(np.eye(2), np.kron(u, np.eye(2)))
        want = full @ rho.matrix @ full.conj().T
        assert np.allclose(got, want, atol=1e-12)

    def test_apply_single_qubit_operators_sums_kraus_terms(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(2, rng)
        z = pauli_string("z", 1)
        ops = [np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * z]
        got = apply_single_qubit_operators(rho.matrix, ops, qubit=0, n_qubits=2)
        assert np.isclose(np.trace(got).real, 1.0, atol=1e-12)
        # full dephasing of qubit 0 kills coherences between its two levels
        reshaped = got.reshape(2, 2, 2, 2)
        assert np.allclose(reshaped[0, :, 1, :], 0.0, atol=1e-12)


class TestRandomGenerators:
    def test_random_density_matrix_is_valid(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_density_matrix(3, rng)
        assert rho.n_qubits == 3  # constructor already enforced the rest

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(RNG_SEED)
        u = random_unitary(8, rng)
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)

    def test_random_bloch_vector_is_unit(self):
        rng = np.random.default_rng(RNG_SEED)
        v = random_bloch_vector(rng)
        assert math.isclose(np.linalg.norm(v.as_array()), 1.0, abs_tol=1e-12)

    def test_seeded_generators_reproduce(self):
        a = random_density_matrix(2, np.random.default_rng(7))
        b = random_density_matrix(2, np.random.default_rng(7))
        assert np.array_equal(a.matrix, b.matrix)
