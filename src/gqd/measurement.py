"""Local projective measurements and the discord objective they induce.

A local measurement assigns one Bloch direction ``n_j`` per qubit. Measuring
without reading the outcome acts as a pinching map: it kills every coherence
between the rank-1 outcome projectors ``(I +- n_j . sigma) / 2``, so the
pinched state is diagonal in the measured product basis.

One kernel computes that diagonal, the measured distribution, for every
route. In the Pauli basis it is a real contraction,
``q_x = sum_mu T_mu prod_j m_j[mu_j, x_j]``: ``T`` holds the state's 4^N
Pauli coefficients, taken once per state in O(N 4^N), and ``m_j`` is qubit
j's 4x2 matrix ``[[1, 1], [n_j, -n_j]]``. One contraction costs O(4^N) real
work per measurement. The optimizer's objective takes its exact gradient
from a reverse pass through the same contraction, and :func:`pinch_matrix`
rebuilds the pinched matrix from ``q`` and the projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    DensityMatrix,
    _TINY,
    _entropy_bits,
    mutual_information,
    partial_trace,
    relative_entropy,
)

__all__ = [
    "LocalMeasurement",
    "projectors",
    "pinch_matrix",
    "apply_local_measurement",
    "measurement_objective",
    "relative_entropy_objective",
    "canonical_direction",
]


def canonical_direction(v: BlochVector) -> BlochVector:
    """Pick one representative of the pair {v, -v}, which pinch identically.

    Keeps z >= 0; on the equator keeps y >= 0, and on the x axis keeps x >= 0.
    """
    if v.z < 0:
        return v.antipode()
    if v.z == 0:
        if v.y < 0:
            return v.antipode()
        if v.y == 0 and v.x < 0:
            return v.antipode()
    return v


# Unit vector of each coordinate axis, also the optimizer's axis starts.
_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


@dataclass(frozen=True)
class LocalMeasurement:
    """One projective measurement direction per qubit."""

    directions: tuple[BlochVector, ...]

    def __post_init__(self):
        dirs = tuple(self.directions)
        if not dirs:
            raise ValueError("measurement needs at least one direction")
        for d in dirs:
            if not isinstance(d, BlochVector):
                raise TypeError(f"directions must be BlochVector, got {type(d)}")
        object.__setattr__(self, "directions", dirs)

    @property
    def n_qubits(self) -> int:
        return len(self.directions)

    @classmethod
    def along_axis(cls, axis: str, n_qubits: int) -> "LocalMeasurement":
        """Same coordinate axis on every qubit."""
        if axis not in _AXES:
            raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
        return cls((BlochVector(*_AXES[axis]),) * n_qubits)

    def canonicalized(self) -> "LocalMeasurement":
        return LocalMeasurement(tuple(canonical_direction(d) for d in self.directions))


def projectors(direction: BlochVector) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors ``(I +/- n . sigma) / 2`` onto a Bloch direction."""
    n_dot_sigma = direction.x * PAULI_X + direction.y * PAULI_Y + direction.z * PAULI_Z
    return (IDENTITY_2 + n_dot_sigma) / 2.0, (IDENTITY_2 - n_dot_sigma) / 2.0


# Column mu is sigma_mu^T flattened and halved, so that a flattened 2x2 block
# a times it gives tr(sigma_mu a) / 2 for mu = I, x, y, z.
_PAULI_BASIS = np.stack(
    [p.T.ravel() for p in (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)], axis=1
) / 2.0


def _pauli_coefficients(mat: np.ndarray) -> np.ndarray:
    """The 4^N tensor ``T`` with ``mat = sum_mu T_mu sigma_mu_0 x ... x sigma_mu_(N-1)``.

    ``T_mu = tr(mat sigma_mu_0 x ... x sigma_mu_(N-1)) / 2^N``, indexed
    ``T[mu_0, ..., mu_(N-1)]`` with ``mu = 0, 1, 2, 3`` for ``I, x, y, z``.
    Each qubit's row leg is paired with its column leg; one 2x2 -> 4
    butterfly per qubit then transforms the leading pair and appends its
    Pauli index, so the legs end in qubit order. O(N 4^N). Complex; real up
    to rounding when ``mat`` is Hermitian.
    """
    n = int(mat.shape[0]).bit_length() - 1
    pairs = np.arange(2 * n).reshape(2, n).T.ravel()
    t = np.asarray(mat, dtype=np.complex128).reshape((2,) * (2 * n)).transpose(pairs)
    for _ in range(n):
        t = t.reshape(4, -1).T @ _PAULI_BASIS
    return t.reshape((4,) * n)


def _leg_matrices(unit: np.ndarray) -> np.ndarray:
    """``[[1, 1], [n, -n]]``, a 4x2 matrix, for each unit direction of ``unit[..., 3]``.

    Entry ``(mu, x)`` is ``tr(sigma_mu P_x)`` for the outcome projectors
    ``P_0, P_1 = (I +- n . sigma) / 2``.
    """
    legs = np.empty(unit.shape[:-1] + (4, 2))
    legs[..., 0, :] = 1.0
    legs[..., 1:, 0] = unit
    legs[..., 1:, 1] = -unit
    return legs


def _measured_distribution(coeffs: np.ndarray, legs: np.ndarray):
    """Outcome distributions ``q[s, x] = sum_mu T_mu prod_j legs[s, j][mu_j, x_j]``.

    ``coeffs`` is the tensor of :func:`_pauli_coefficients` and
    ``legs[s, j]`` qubit j's leg matrix in stack row s; q has one row per
    stack row, with qubit 0's outcome the most significant. It is the
    diagonal, in the measured product basis, of the matrix with these
    coefficients: the outcome probabilities of a density matrix. Contracts
    one Pauli leg per qubit with one batched matmul, whose product appends
    the outcome axis, so the next leg leads and stays contiguous: O(4^N)
    real work per row, and no unitary is built. Every product is taken per
    stack row, so a row's result does not depend on the others.

    Also returns each leg's input, ``(rows, 4, r)``, for :func:`_reverse`.
    """
    t = coeffs.reshape(1, -1)
    inputs = []
    for j in range(legs.shape[1]):
        a = t.reshape(len(t), 4, -1)
        inputs.append(a)
        t = a.swapaxes(-1, -2) @ legs[:, j]
    return t.reshape(len(legs), -1), inputs


def _reverse(inputs, legs: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """Gradient of ``sum_x adjoint[s, x] q[s, x]`` in each ``legs[s, j]``.

    The reverse pass of :func:`_measured_distribution` through the same
    legs, last qubit first; the result has the shape of ``legs``.
    """
    out = np.empty(legs.shape)
    g = adjoint
    for j in reversed(range(legs.shape[1])):
        a = inputs[j]
        g = g.reshape(len(legs), a.shape[-1], 2)
        out[:, j] = a @ g
        if j:
            g = legs[:, j] @ g.swapaxes(-1, -2)
    return out


# A kernel call takes at most _KERNEL_ENTRIES >> 2N rows, so that memory is
# bounded by N alone; a row holds about 2 4^N floats, so a call about 1 MiB.
# Per row of a stack of three on one core, budgets 2^14 ... 2^18 took 160,
# 140, 88, 118, 146 us at N = 7 and 436, 440, 448, 423, 989 us at N = 8.
_KERNEL_ENTRIES = 2**16


def _bloch_vectors(coeffs: np.ndarray) -> np.ndarray:
    """Row j is qubit j's marginal Bloch vector ``r_j = 2^N T[0, .., a_j, .., 0]``."""
    n = coeffs.ndim
    at = [(0,) * j + (slice(1, None),) + (0,) * (n - j - 1) for j in range(n)]
    return 2.0**n * np.array([coeffs[index] for index in at])


def _entropy_objective(coeffs: np.ndarray):
    """Values and gradients of ``H(q) - sum_j H(q_j)`` over a stack of points.

    ``coeffs`` is the state's real Pauli tensor T, taken once per state. Each
    row ``x = [v_0, v_1, ...]`` measures qubit j along ``n_j = v_j / |v_j|``;
    q is the measured distribution and q_j qubit j's measured marginal.

    q is linear in each leg matrix, and ``sum_x q_x`` does not depend on the
    directions, so the gradient of H(q) in the legs is the reverse pass with
    adjoint ``-log2 q``. The marginal is read off T: ``q_j = (1 +- n_j . r_j) / 2``
    with ``r_j`` from :func:`_bloch_vectors`. The gradient in ``n_j`` is
    projected onto the tangent plane and divided by ``|v_j|``.

    The stack is cut into calls of at most ``_KERNEL_ENTRIES >> 2N`` rows,
    which bounds memory by N alone; every operation is row-wise, so the cut
    does not change a row's result.
    """
    n = coeffs.ndim
    bloch = _bloch_vectors(coeffs)

    def value_and_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = x.reshape(len(x), n, 3)
        norm = np.sqrt((v * v).sum(axis=-1))[..., None]
        unit = v / norm
        legs = _leg_matrices(unit)
        q, inputs = _measured_distribution(coeffs, legs)
        value = _entropy_bits(q)
        d_legs = _reverse(inputs, legs, -np.log2(np.maximum(q, _TINY)))
        grad = d_legs[..., 1:, 0] - d_legs[..., 1:, 1]
        s = (unit * bloch).sum(axis=-1)
        # p[:, j] and p[:, n + j] are the two outcomes of qubit j.
        p = np.concatenate([1.0 + s, 1.0 - s], axis=1) / 2.0
        value -= _entropy_bits(p)
        log_p = np.log2(np.maximum(p, _TINY))
        grad += (log_p[:, :n] - log_p[:, n:])[..., None] * bloch / 2.0
        grad -= unit * (unit * grad).sum(axis=-1)[..., None]
        return value, (grad / norm).reshape(len(x), 3 * n)

    rows_per_call = max(1, _KERNEL_ENTRIES >> (2 * n))

    def fun(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        parts = [
            value_and_grad(x[i : i + rows_per_call])
            for i in range(0, len(x), rows_per_call)
        ]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    return fun


def pinch_matrix(mat, directions) -> np.ndarray:
    """Pinching of an arbitrary square matrix along per-qubit directions.

    Takes the diagonal ``q`` of ``mat`` in the measured product basis, then
    rebuilds ``sum_x q_x P_0(x_0) x ... x P_{n-1}(x_{n-1})`` one qubit at a
    time from the rank-1 projectors ``P_j(0), P_j(1) = (I +- n_j . sigma) / 2``.
    Linear in ``mat``; does not require or preserve density-matrix
    normalization.
    """
    a = np.asarray(mat, dtype=np.complex128)
    n = len(directions)
    d = 2**n
    if a.shape != (d, d):
        raise ValueError(
            f"matrix shape {a.shape} does not match {n} measurement directions"
        )
    unit = np.array([dd.as_array() for dd in directions])
    unit /= np.sqrt((unit * unit).sum(axis=1))[:, None]
    q, _ = _measured_distribution(_pauli_coefficients(a), _leg_matrices(unit)[None])
    t = q.reshape(d, 1, 1)
    for nvec in unit[::-1]:
        b, r = t.shape[0] // 2, t.shape[1]
        proj = np.stack(projectors(BlochVector(*nvec)))
        t = np.einsum("bxrs,xac->barcs", t.reshape(b, 2, r, r), proj)
        t = t.reshape(b, 2 * r, 2 * r)
    return t.reshape(d, d)


def _check_covers(rho: DensityMatrix, m: LocalMeasurement) -> None:
    if m.n_qubits != rho.n_qubits:
        raise ValueError(
            f"measurement covers {m.n_qubits} qubits, state has {rho.n_qubits}"
        )


def apply_local_measurement(rho: DensityMatrix, m: LocalMeasurement) -> DensityMatrix:
    """State after an unread local projective measurement on every qubit."""
    _check_covers(rho, m)
    out = pinch_matrix(rho.matrix, m.directions)
    # The exact result is Hermitian; discard the rounding-level skew part so
    # validation never trips on it.
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(out)


def measurement_objective(rho: DensityMatrix, m: LocalMeasurement) -> float:
    """Mutual-information loss ``I(rho) - I(Phi(rho))`` of the measurement.

    Nonnegative for every measurement; its minimum over all local
    measurements is the global quantum discord. ``Phi(rho)`` is diagonal in
    the rotated product basis, so ``I(Phi(rho)) = sum_j H(q_j) - H(q)``;
    this is ``I(rho)`` plus the numeric optimizer's own objective
    (:func:`_entropy_objective`) at the stacked directions.
    """
    _check_covers(rho, m)
    x = np.array([d.as_array() for d in m.directions]).reshape(1, -1)
    value, _ = _entropy_objective(_pauli_coefficients(rho.matrix).real)(x)
    return mutual_information(rho) + float(value[0])


def relative_entropy_objective(rho: DensityMatrix, m: LocalMeasurement) -> float:
    """The same objective evaluated through relative entropies.

    Computes ``S(rho || Phi(rho)) - sum_j S(rho_j || Phi_j(rho_j))`` where
    ``rho_j`` are the single-qubit marginals and ``Phi_j`` measures qubit j
    alone. Agrees with
    :func:`measurement_objective` to high precision; the package's checks
    assert both routes match within 1e-9.
    """
    phi_rho = apply_local_measurement(rho, m)
    total = relative_entropy(rho, phi_rho)
    for j, direction in enumerate(m.directions):
        reduced = partial_trace(rho, {j})
        measured = apply_local_measurement(reduced, LocalMeasurement((direction,)))
        total -= relative_entropy(reduced, measured)
    return total
