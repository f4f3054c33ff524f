"""Local projective measurements and the discord objective they induce.

A local measurement assigns one Bloch direction per qubit. Measuring without
reading the outcome acts as a pinching map: it kills every coherence between
the rank-1 outcome projectors. Because the projectors are rank 1, the pinched
state is exactly diagonal in the rotated product basis, which is how
:func:`pinch_matrix` computes it.
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
    "rotation_to_z",
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
        vec = {
            "x": BlochVector(1.0, 0.0, 0.0),
            "y": BlochVector(0.0, 1.0, 0.0),
            "z": BlochVector(0.0, 0.0, 1.0),
        }.get(axis)
        if vec is None:
            raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
        return cls(tuple(vec for _ in range(n_qubits)))

    def canonicalized(self) -> "LocalMeasurement":
        return LocalMeasurement(tuple(canonical_direction(d) for d in self.directions))


def projectors(direction: BlochVector) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors ``(I +/- n . sigma) / 2`` onto a Bloch direction."""
    n_dot_sigma = direction.x * PAULI_X + direction.y * PAULI_Y + direction.z * PAULI_Z
    return (IDENTITY_2 + n_dot_sigma) / 2.0, (IDENTITY_2 - n_dot_sigma) / 2.0


def rotation_to_z(direction: BlochVector) -> np.ndarray:
    """2x2 unitary ``V`` with ``V (n . sigma) V^dagger = sigma_z``.

    For ``z < 0`` the unitary of ``-n`` sends ``n . sigma`` to ``-sigma_z``;
    swapping its rows gives ``X u (n . sigma) u^dagger X = sigma_z``.
    """
    u, scale = _unitaries(direction.as_array())
    return PAULI_X @ u if scale < 0.0 else u


def _unitaries(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measurement unitaries of vectors ``v`` of shape ``(..., 3)``, and their scale.

    ``n`` and ``-n`` are one measurement with its outcomes swapped, so each
    vector is scaled by ``scale = +-1 / |v|`` to the unit axis with
    ``z >= 0``. Its unitary is ``[[c, e], [-conj(e), c]]`` with
    ``c = cos(theta / 2)`` and ``e = exp(-i phi) sin(theta / 2)``, built
    without trigonometry: ``c = sqrt((1 + z) / 2)``, which is at least
    ``1 / sqrt(2)`` on the upper hemisphere, and ``e = (x - i y) / (2 c)``.
    """
    scale = np.where(v[..., 2] < 0.0, -1.0, 1.0) / np.sqrt((v * v).sum(axis=-1))
    axes = v * scale[..., None]
    c = np.sqrt((1.0 + axes[..., 2]) / 2.0)
    e = (axes[..., 0] - 1j * axes[..., 1]) / (2.0 * c)
    u = np.empty(c.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 0, 1] = e
    u[..., 1, 0] = -e.conj()
    return u, scale


def _measured_distribution(
    mat: np.ndarray, unitaries: np.ndarray, coherences: bool = False
):
    """Diagonal of ``V mat V^dagger`` for a stack of ``V = u_0 x ... x u_{n-1}``.

    ``unitaries[s, j]`` is qubit j's ``u_j`` in stack entry s; the result has
    one row per entry. Contracts one qubit at a time: ``u_j`` acts on row leg
    j, ``conj(u_j)`` on column leg j, and only that leg's diagonal is kept.
    The outcome axis doubles while both remaining legs halve, so the work is
    O(4^N) per entry and no 2^N x 2^N unitary is built. Entries are complex;
    they are the outcome probabilities ``q`` when ``mat`` is a density
    matrix. Every product is taken per stack entry, so an entry's result
    does not depend on the others.

    With ``coherences``, returns ``(q, c)``. ``c[s, j, y]`` is the entry of
    ``V mat V^dagger`` between outcome 0 and outcome 1 of qubit j, with the
    other qubits' outcomes ``y`` (in qubit order) equal on both sides: the
    first-order change of ``q`` when qubit j's direction turns. At leg j
    that entry is split off the rows of the distribution and rides along
    as extra outcome rows through the remaining legs, which about doubles
    the work.
    """
    n_stack, n = unitaries.shape[:2]
    # t[stack, outcome rows, remaining row legs, remaining column legs]; the
    # first `main` outcome rows are the distribution, the rest coherences.
    t = mat.reshape(1, 1, *mat.shape)
    main = 1
    # w[s, x] is row x of conj(u_j) as a 2x1 column, so the second matmul
    # contracts column leg j of outcome x with conj(u_j)[x] only.
    conj_rows = unitaries.conj()[:, :, None, :, None, :, None]
    for j in range(n):
        w = conj_rows[:, j]
        b, r = t.shape[1], t.shape[2] // 2
        k = 2 * r * r
        if b > r:
            # Many outcome rows over short legs: move row leg j in front of
            # the outcome rows, so one matmul per stack entry replaces one
            # per outcome row.
            legs = t.reshape(-1, b, 2, k).transpose(0, 2, 1, 3).reshape(-1, 2, b * k)
            rows = (unitaries[:, j] @ legs).reshape(n_stack, 2, b, k).transpose(0, 2, 1, 3)
        else:
            rows = unitaries[:, j, None] @ t.reshape(-1, b, 2, k)
        rows = rows.reshape(n_stack, b, 2, r, 2, r).transpose(0, 1, 2, 3, 5, 4)
        extra = main if coherences else 0
        t = np.empty((n_stack, 2 * b + extra, r, r), dtype=rows.dtype)
        np.matmul(rows, w, out=t[:, : 2 * b].reshape(n_stack, b, 2, r, r, 1))
        if coherences:
            # Row 0 of qubit j against column 1, for the distribution's rows.
            np.matmul(
                rows[:, :main, 0],
                w[:, :, 1],
                out=t[:, 2 * b :].reshape(n_stack, main, r, r, 1),
            )
            main *= 2
    out = t.reshape(n_stack, -1)
    if not coherences:
        return out
    return out[:, :main], out[:, main:].reshape(n_stack, n, main // 2)


# Most density-matrix entries one kernel call may hold across its stack, so
# that memory is bounded by N alone. 2^15 complex entries (512 KiB) keep a
# call's working set in a 2 MiB L2 cache; larger stacks spill it. Per start,
# a stack of four cost 1.3x a single start at N = 7, and a stack of three
# 1.4x at N = 8, while stacks at N <= 6 cost less per start than one.
_KERNEL_ENTRIES = 2**15
# Column b is sigma_b^T flattened, so that a.ravel() @ _PAULI_TRACE gives
# tr(sigma_b a) for b = x, y, z.
_PAULI_TRACE = np.stack([p.T.ravel() for p in (PAULI_X, PAULI_Y, PAULI_Z)], axis=1)


def _entropy_objective(rho_mat: np.ndarray, marginal: bool):
    """Values and gradients of ``H(q) - sum_j H(q_j)`` over a stack of points.

    Each row ``x = [v_0, v_1, ...]`` measures qubit j along
    ``n_j = v_j / |v_j|``; q is the measured distribution and q_j qubit j's
    measured marginal. With ``marginal=False`` the marginal term is left out.

    Turning n_j along the tangent frame vector ``t_x`` (``t_y``) of its
    unitary moves ``q_(y,0_j)`` by ``Re c_j(y)`` (``-Im c_j(y)``) and
    ``q_(y,1_j)`` by the opposite, where c_j are the kernel's coherences. So
    with ``L_j(y) = log2(q_(y,0_j) / q_(y,1_j))`` and
    ``s_j = sum_y L_j(y) c_j(y)`` the tangent gradient of H(q) is
    ``-Re s_j t_x + Im s_j t_y = -Re(s_j (t_x + i t_y))``. The marginal term
    subtracts ``log2(q_j0 / q_j1)`` from every ``L_j(y)``. The gradient in
    ``v_j`` is the tangent gradient divided by ``|v_j|``.

    The stack is cut into calls of at most ``_KERNEL_ENTRIES`` matrix
    entries, which bounds memory by N alone; every operation is row-wise,
    so the cut does not change a row's result.
    """
    n = int(rho_mat.shape[0]).bit_length() - 1
    # idx[x, j, y]: position in q of the outcome with qubit j at x and the
    # other qubits at y, in the order of the kernel's c_j(y).
    cube = np.arange(2**n).reshape((2,) * n)
    idx = np.array([[np.take(cube, x, j).ravel() for j in range(n)] for x in (0, 1)])

    def value_and_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # scale = +-1 / |v_j| takes v_j to the measured axis, the one of
        # +-n_j with z >= 0; the tangent gradient there is scaled back by it.
        unitaries, scale = _unitaries(x.reshape(len(x), n, 3))
        q, c = _measured_distribution(rho_mat, unitaries, coherences=True)
        q = q.real
        value = _entropy_bits(q)
        # np.take keeps each row contiguous, and so each row's sums in one
        # order whatever the stack; q[:, idx] does not.
        log_q = np.take(np.log2(np.maximum(q, _TINY)), idx, axis=1)
        ratio = log_q[:, 0] - log_q[:, 1]
        if marginal:
            p = np.take(q, idx, axis=1).sum(axis=-1)
            value -= _entropy_bits(p.reshape(len(x), 2 * n))
            log_p = np.log2(np.maximum(p, _TINY))
            ratio -= (log_p[:, 0] - log_p[:, 1])[..., None]
        s = (ratio * c).sum(axis=-1)
        # t_x + i t_y is the Bloch vector of a = u_j^dagger |0><1| u_j, whose
        # entries are a_kl = conj(u_0k) u_1l.
        a = unitaries[..., 0, :, None].conj() * unitaries[..., 1, None, :]
        grad = (s[..., None] * (a.reshape(len(x), n, 4) @ _PAULI_TRACE)).real
        return value, (grad * -scale[..., None]).reshape(len(x), 3 * n)

    rows_per_call = max(1, _KERNEL_ENTRIES >> (2 * n))

    def fun(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(x) <= rows_per_call:
            return value_and_grad(x)
        parts = [
            value_and_grad(x[i : i + rows_per_call])
            for i in range(0, len(x), rows_per_call)
        ]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    return fun


def pinch_matrix(mat, directions) -> np.ndarray:
    """Pinching of an arbitrary square matrix along per-qubit directions.

    Takes the diagonal ``q`` of ``mat`` in the rotated product basis, then
    rebuilds ``sum_x q_x P_0(x_0) x ... x P_{n-1}(x_{n-1})`` one qubit at a
    time from the rank-1 projectors ``P_j(x) = u_j^dagger |x><x| u_j``.
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
    unitaries, _ = _unitaries(np.array([d.as_array() for d in directions]))
    t = _measured_distribution(a, unitaries[None])[0].reshape(d, 1, 1)
    for u in unitaries[::-1]:
        b, r = t.shape[0] // 2, t.shape[1]
        proj = u.conj()[:, :, None] * u[:, None, :]
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
    value, _ = _entropy_objective(rho.matrix, marginal=True)(x)
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
