"""Core linear algebra and entropy primitives for N-qubit density matrices.

Conventions used throughout the package:

* qubit 0 is the slowest-varying tensor factor, i.e. the most significant
  bit of a computational-basis index;
* all logarithms are base 2, so entropies are reported in bits and
  ``0 * log2(0) = 0``;
* physical invariants (hermiticity, unit trace, positivity) are checked
  eagerly at construction time so that invalid states fail fast instead of
  surfacing as NaNs deep inside an optimization loop.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "UNIT_NORM_TOL",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "StateValidationError",
    "QubitLimitError",
    "DensityMatrix",
    "BlochVector",
    "tensor_product",
    "pauli_string",
    "partial_trace",
    "shannon_entropy",
    "binary_entropy",
    "von_neumann_entropy",
    "relative_entropy",
    "mutual_information",
    "bloch_rotation",
    "majorizes",
    "diagonal_pinch",
    "random_density_matrix",
    "random_unitary",
    "random_bloch_vector",
]

# Validation tolerances. Fixed here, on purpose: every DensityMatrix in the
# package is checked against the same bars.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
UNIT_NORM_TOL = 1e-12
# Slack on each partial-sum comparison of majorizes, for summation rounding.
_PARTIAL_SUM_TOL = 1e-12
# Floor on weights inside log2, far below any weight that moves an entropy.
_TINY = 1e-300

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)

_PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


class StateValidationError(ValueError):
    """A matrix failed one of the density-matrix invariants."""


class QubitLimitError(ValueError):
    """A dense state has too many qubits: more than a numeric route's
    ``max_qubits``, or more than a 2^N x 2^N matrix may have, whose size
    overflows NumPy's size type (from N = 30) or cannot be allocated."""


@contextlib.contextmanager
def _dense(n_qubits):
    """Guard a block that builds an n-qubit dense matrix; yields its side ``2**n``.

    ``n_qubits`` must be an integer of at least 1 (NumPy's too, not a bool),
    else ValueError. A :class:`QubitLimitError` when the 4^n complex entries
    of 16 bytes overflow NumPy's size type, ``16 * 4**n > sys.maxsize``
    (decided on the exponent, so a huge n never builds 2**n), or when the
    block raises MemoryError.
    """
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, numbers.Integral):
        raise ValueError(f"n_qubits must be an integer, got {n_qubits!r}")
    n = int(n_qubits)
    if n < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n}")
    message = f"state has {n} qubits, too many to build as a dense matrix"
    if 2 * n + 4 >= sys.maxsize.bit_length():
        raise QubitLimitError(message)
    try:
        yield 2**n
    except MemoryError:
        raise QubitLimitError(message) from None


def _as_square_complex(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """A validated N-qubit density matrix.

    Parameters
    ----------
    matrix : array_like
        Square ``2**n x 2**n`` complex matrix with finite entries. It must
        be Hermitian within 1e-10, have unit trace within 1e-10, and have
        eigenvalues no lower than -1e-9.

    Raises
    ------
    StateValidationError
        If any invariant fails. The message names the failed invariant.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise StateValidationError(
                f"density matrix must be square, got shape {arr.shape}"
            )
        dim = arr.shape[0]
        n = dim.bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise StateValidationError(
                f"dimension {dim} is not a power of two >= 2"
            )
        if not np.isfinite(arr).all():
            raise StateValidationError("density matrix has NaN or infinite entries")
        herm = np.max(np.abs(arr - arr.conj().T))
        if herm > HERMITICITY_TOL:
            raise StateValidationError(
                f"not Hermitian: max |rho - rho^dagger| = {herm:.3e} "
                f"exceeds {HERMITICITY_TOL:.1e}"
            )
        tr = arr.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(
                f"trace {tr:.12g} differs from 1 by more than {TRACE_TOL:.1e}"
            )
        eigs = np.linalg.eigvalsh(arr)
        if eigs[0] < -PSD_TOL:
            raise StateValidationError(
                f"not positive semidefinite: min eigenvalue {eigs[0]:.3e} "
                f"below -{PSD_TOL:.1e}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "_eigs_ascending", eigs)

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order, as cached at validation time."""
        return self._eigs_ascending.copy()


@dataclass(frozen=True)
class BlochVector:
    """A unit vector on the Bloch sphere, the axis of a qubit measurement."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        try:  # hypot, not a sum of squares: a huge float must not overflow
            norm = math.hypot(self.x, self.y, self.z)
        except OverflowError:  # an int component beyond the float range
            norm = math.inf
        # Written as "not <=" so that a NaN component fails too.
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            raise ValueError(
                f"Bloch vector must have unit norm within {UNIT_NORM_TOL:.1e}, "
                f"got norm {norm!r}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def antipode(self) -> "BlochVector":
        return BlochVector(-self.x, -self.y, -self.z)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two square matrices, ``a``'s index slower-varying."""
    return np.kron(_as_square_complex(a, "a"), _as_square_complex(b, "b"))


def pauli_string(axis: str, n_qubits: int) -> np.ndarray:
    """The n-fold tensor power of a single Pauli matrix.

    Parameters
    ----------
    axis : str
        One of ``"x"``, ``"y"``, ``"z"``.
    n_qubits : int
        Number of factors, at least 1.
    """
    if axis not in _PAULIS:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    with _dense(n_qubits):
        out = _PAULIS[axis]
        for _ in range(n_qubits - 1):
            out = np.kron(out, _PAULIS[axis])
        return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on a subset of qubits.

    Parameters
    ----------
    rho : DensityMatrix
    keep : iterable of int
        Qubit indices to retain, as ints or NumPy integers; any other index
        (a bool included) is a ValueError. The result orders them ascending.

    Returns
    -------
    DensityMatrix
        State on ``len(keep)`` qubits.
    """
    n = rho.n_qubits
    keep = list(keep)
    for q in keep:
        if isinstance(q, bool) or not isinstance(q, numbers.Integral):
            raise ValueError(f"keep index {q!r} is not an integer")
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise ValueError("keep set must not be empty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} out of range for {n} qubits")
    if len(kept) == n:
        return rho
    return DensityMatrix(_reduced_matrix(rho.matrix, kept))


def _reduced_matrix(matrix: np.ndarray, kept: list[int]) -> np.ndarray:
    """The partial trace of an N-qubit matrix onto the qubits ``kept``, a
    sorted proper subset of ``range(N)``."""
    n = matrix.shape[0].bit_length() - 1
    tensor = matrix.reshape((2,) * (2 * n))
    # Trace out the complement, highest index first so axis positions of the
    # not-yet-traced qubits stay valid.
    remaining = n
    for q in sorted(set(range(n)) - set(kept), reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + remaining)
        remaining -= 1
    d = 2 ** len(kept)
    return tensor.reshape(d, d)


def _probabilities(weights, name: str = "probability vector") -> np.ndarray:
    """``weights`` as a float array, if it passes :func:`shannon_entropy`'s
    probability-vector rule; else ValueError naming ``name``."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector, got shape {w.shape}")
    # NaN propagates through min() and max() and fails "not >=" and "not <=".
    low, high = float(w.min()), float(w.max())
    if not low >= -PSD_TOL:
        raise ValueError(f"{name} has entry {low!r} below -{PSD_TOL:.1e}")
    if not high <= 1.0 + PSD_TOL:
        raise ValueError(f"{name} has entry {high!r} above 1 + {PSD_TOL:.1e}")
    # Tested after the bounds: a sum of bounded entries cannot overflow.
    total = float(w.sum())
    if not abs(total - 1.0) <= PSD_TOL:
        raise ValueError(f"{name} sums to {total!r}, not 1 within {PSD_TOL:.1e}")
    return w


def shannon_entropy(weights) -> float:
    """Entropy in bits of a probability vector, with ``0 log2 0 = 0``.

    The vector must be 1-D and non-empty, with entries in
    ``[-1e-9, 1 + 1e-9]`` that sum to 1 within 1e-9; anything else, NaN and
    inf included, raises ValueError. Entries in ``[-1e-9, 0)`` count as zero.
    """
    return float(_entropy_bits(_probabilities(weights)))


def _entropy_and_log2(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy in bits along the last axis of nonnegative weights, and the
    ``log2`` of each weight that it takes.

    Rounding-level negatives count as 0, and ``0 log2 0 = 0``: a weight is
    floored at ``_TINY`` inside the log. Rows are reduced one by one, as the
    stacked objective needs.
    """
    w = np.maximum(weights, 0.0)
    log_w = np.log2(np.maximum(w, _TINY))
    # A zero weight meets a finite log and contributes 0; 0.0 - sum keeps an
    # entropy of zero from printing as -0.0.
    return 0.0 - (w * log_w).sum(axis=-1), log_w


def _entropy_bits(weights: np.ndarray) -> np.ndarray:
    """The entropy of :func:`_entropy_and_log2` alone."""
    return _entropy_and_log2(weights)[0]


def _binary_entropy_bits(p):
    """:func:`_entropy_bits` of ``(p, 1 - p)`` for a scalar or a 1-D array ``p``."""
    # np.array(...).T puts the pair on the last axis, as np.stack(..., axis=-1)
    # would, at a fraction of its cost on scalars.
    return _entropy_bits(np.array([p, 1.0 - p]).T)


def binary_entropy(p: float) -> float:
    """Entropy in bits of the distribution ``(p, 1 - p)``.

    ``(p, 1 - p)`` must pass :func:`shannon_entropy`'s rule, so ``p`` lies in
    ``[-1e-9, 1 + 1e-9]``; anything else, NaN included, raises ValueError.
    """
    return float(_entropy_bits(_probabilities([p, 1.0 - p])))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits of the spectrum ``rho`` validated on construction."""
    return float(_entropy_bits(rho.eigenvalues()))


# Eigenvalues of sigma below this are treated as zero when testing whether
# rho's support fits inside sigma's.
_SUPPORT_EIG_TOL = 1e-12
_SUPPORT_OVERLAP_TOL = 1e-10


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy ``S(rho || sigma)`` in bits.

    Returns ``math.inf`` when the support of ``rho`` is not contained in the
    support of ``sigma``. The infinity comes from this explicit support test,
    never from floating-point overflow.
    """
    if rho.dim != sigma.dim:
        raise ValueError(
            f"dimension mismatch: {rho.dim} vs {sigma.dim}"
        )
    evals_s, evecs_s = np.linalg.eigh(sigma.matrix)
    # <v_j| rho |v_j> for each eigenvector of sigma
    overlaps = np.real(np.einsum("ij,ik,kj->j", evecs_s.conj(), rho.matrix, evecs_s))
    overlaps = np.clip(overlaps, 0.0, None)
    null = evals_s <= _SUPPORT_EIG_TOL
    if float(overlaps[null].sum()) > _SUPPORT_OVERLAP_TOL:
        return math.inf
    tr_rho_log_rho = -von_neumann_entropy(rho)
    tr_rho_log_sigma = float(
        np.sum(overlaps[~null] * np.log2(evals_s[~null]))
    )
    return tr_rho_log_rho - tr_rho_log_sigma


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlations ``sum_i S(rho_i) - S(rho)`` in bits.

    Requires at least two qubits.
    """
    n = rho.n_qubits
    if n < 2:
        raise ValueError(f"mutual information needs >= 2 qubits, got {n}")
    total = -von_neumann_entropy(rho)
    # The spectra of the one-qubit marginals of partial_trace, in one call.
    marginals = np.stack([_reduced_matrix(rho.matrix, [q]) for q in range(n)])
    for entropy in _entropy_bits(np.linalg.eigvalsh(marginals)).tolist():
        total += entropy
    return total


def bloch_rotation(u) -> np.ndarray:
    """SO(3) rotation acting on Bloch vectors induced by a 2x2 unitary.

    Satisfies ``u (r . sigma) u^dagger = (R r) . sigma`` with
    ``R[j, k] = Re tr(sigma_j u sigma_k u^dagger) / 2`` and ``det R = 1``.
    """
    mat = _as_square_complex(u, "u")
    if mat.shape != (2, 2):
        raise ValueError(f"u must be 2x2, got shape {mat.shape}")
    dev = np.max(np.abs(mat @ mat.conj().T - IDENTITY_2))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"u is not unitary: |u u^dagger - I| = {dev:.3e}")
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    r = np.empty((3, 3))
    for k, sk in enumerate(paulis):
        conj = mat @ sk @ mat.conj().T
        for j, sj in enumerate(paulis):
            r[j, k] = 0.5 * np.real(np.trace(sj @ conj))
    return r


def majorizes(p, q) -> bool:
    """True if ``q`` majorizes ``p``.

    Both arguments must pass :func:`shannon_entropy`'s probability-vector
    rule, or ValueError is raised; shorter input is zero-padded.
    After sorting in descending order, every partial sum of ``q`` must be at
    least the matching partial sum of ``p``.
    """
    pv, qv = _probabilities(p, "p"), _probabilities(q, "q")
    size = max(pv.size, qv.size)
    pv = np.pad(np.sort(pv)[::-1], (0, size - pv.size))
    qv = np.pad(np.sort(qv)[::-1], (0, size - qv.size))
    return bool(np.all(np.cumsum(qv) - np.cumsum(pv) >= -_PARTIAL_SUM_TOL))


def diagonal_pinch(a) -> np.ndarray:
    """Zero every off-diagonal element of a square matrix."""
    arr = _as_square_complex(a)
    return np.diag(np.diag(arr))


def random_density_matrix(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank mixed state from a complex Ginibre matrix."""
    with _dense(n_qubits) as d:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        return DensityMatrix(m / np.trace(m))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity of QR so the distribution is Haar.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_bloch_vector(rng: np.random.Generator) -> BlochVector:
    """Uniformly random direction on the unit sphere."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(max(0.0, 1.0 - z * z))
    v = np.array([s * math.cos(phi), s * math.sin(phi), z])
    v /= np.linalg.norm(v)
    return BlochVector(float(v[0]), float(v[1]), float(v[2]))
