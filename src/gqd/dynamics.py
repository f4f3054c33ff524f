"""Discord dynamics under single-qubit phase damping.

Dephasing one qubit of a Pauli-string mixture with strength ``p`` rescales
the transverse coefficients, ``(c1, c2, c3) -> (c1 (1-p), c2 (1-p), c3)``.
Because the closed-form discord switches between the transverse and the
longitudinal coefficient at ``c = max |c_i|``, the curve ``D(p)`` can show a
sudden slope change at

    p* = 1 - |c3| / max(|c1|, |c2|)      (when 0 < |c3| < max(|c1|, |c2|))

and, for even qubit numbers, an exactly frozen plateau before it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .discord import PauliDiagonalParams, _checked_weights, _pauli_diagonal_bits
from .qcore import DensityMatrix, PAULI_Z, apply_single_qubit_operators

__all__ = [
    "phase_damping",
    "dephase_pauli_params",
    "sudden_transition_point",
    "SweepRecord",
    "SweepRecords",
    "PlateauInterval",
    "ScanReport",
    "scan_gqd_vs_p",
]


def phase_damping(rho: DensityMatrix, qubit: int, p: float) -> DensityMatrix:
    """Apply the phase-damping channel with strength ``p`` to one qubit.

    Kraus operators ``sqrt(1 - p/2) I`` and ``sqrt(p/2) Z``; off-diagonal
    single-qubit terms shrink by ``1 - p``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    ops = (
        math.sqrt(1.0 - p / 2.0) * np.eye(2, dtype=np.complex128),
        math.sqrt(p / 2.0) * PAULI_Z,
    )
    out = apply_single_qubit_operators(rho.matrix, ops, qubit, rho.n_qubits)
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(out)


def dephase_pauli_params(params: PauliDiagonalParams, p: float) -> PauliDiagonalParams:
    """Coefficient map of phase damping on one qubit of a Pauli-string mixture.

    The transverse coefficients ``c1`` and ``c2`` shrink by ``1 - p``;
    ``c3`` is untouched. Which qubit is dephased does not matter, since the
    Pauli strings act alike on every qubit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    _checked_weights(params.n_qubits, *params.coefficients())
    factor = 1.0 - p
    return PauliDiagonalParams(
        params.n_qubits, params.c1 * factor, params.c2 * factor, params.c3
    )


def sudden_transition_point(params: PauliDiagonalParams) -> float | None:
    """Dephasing strength where the dominant coefficient switches to ``c3``.

    Exists only when ``0 < |c3| < max(|c1|, |c2|)`` strictly; returns None
    otherwise (including ties, where the curve has no interior kink).
    """
    _checked_weights(params.n_qubits, *params.coefficients())
    transverse = max(abs(params.c1), abs(params.c2))
    longitudinal = abs(params.c3)
    if 0.0 < longitudinal < transverse:
        return 1.0 - longitudinal / transverse
    return None


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a dephasing scan."""

    p: float
    c1_p: float
    c2_p: float
    c3_p: float
    gqd: float
    active_branch: str


# Branch codes, indices into SweepRecords.BRANCHES.
_X, _Y, _Z = range(3)


class SweepRecords(Sequence):
    """The grid points of a dephasing scan, held as columns.

    ``p``, ``c1_p``, ``c2_p``, ``c3_p`` and ``gqd`` are float arrays, and
    ``branch`` is an ``int8`` array of indices into ``BRANCHES``. An integer
    index (negative ones included) and iteration build one
    :class:`SweepRecord` per point asked for; a slice gives the
    ``SweepRecords`` of those points.
    """

    BRANCHES = ("x_dominant", "y_dominant", "z_dominant")
    __slots__ = ("p", "c1_p", "c2_p", "c3_p", "gqd", "branch")

    def __init__(self, p, c1_p, c2_p, c3_p, gqd, branch):
        self.p, self.c1_p, self.c2_p, self.c3_p = p, c1_p, c2_p, c3_p
        self.gqd, self.branch = gqd, branch

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, i):
        columns = [getattr(self, name) for name in self.__slots__]
        if isinstance(i, slice):
            return SweepRecords(*(c[i] for c in columns))
        i = range(len(self.p))[operator.index(i)]
        *values, code = (c[i] for c in columns)
        return SweepRecord(*map(float, values), self.BRANCHES[code])

    def __iter__(self):
        *values, code = (getattr(self, name) for name in self.__slots__)
        labels = np.array(self.BRANCHES, dtype=object)[code]
        return map(SweepRecord, *(c.tolist() for c in values), labels.tolist())


@dataclass(frozen=True)
class PlateauInterval:
    """Maximal grid window where the discord stays flat within tolerance."""

    p_start: float
    p_end: float
    value: float
    max_deviation: float


@dataclass(frozen=True)
class ScanReport:
    predicted_transition_p: float | None
    kinks: tuple[float, ...]
    plateaus: tuple[PlateauInterval, ...]


def _active_branches(params: PauliDiagonalParams, factor: np.ndarray) -> np.ndarray:
    """Code of the coefficient magnitude that attains ``c`` at each ``1 - p``.

    Ties go to the longitudinal branch, except in the fully-dephased corner
    of a ``c3 = 0`` state, where the branch follows the initially dominant
    transverse axis so that a scan without a transition keeps one label.
    """
    vz = abs(params.c3)
    code = np.full(factor.size, _X if abs(params.c1) >= abs(params.c2) else _Y, np.int8)
    if vz > 0.0 or (params.c1 == 0.0 and params.c2 == 0.0):
        code[(vz >= abs(params.c1) * factor) & (vz >= abs(params.c2) * factor)] = _Z
    return code


# A second difference counts as a spike above this many times the scan
# median.
_KINK_FACTOR = 10.0
# Absolute floor under the kink threshold; keeps float dust on analytically
# flat scans from registering as curvature.
_KINK_FLOOR = 1e-9
# Largest spread of the discord across a plateau.
_PLATEAU_TOL = 1e-7


def _detect_kinks(p_grid: np.ndarray, gqd: np.ndarray, code: np.ndarray):
    """Slope-discontinuity points, as corroborated detector agreement.

    A branch change marks where the dominant coefficient switches, which is
    the only mechanism that produces a kink on these scans; the discrete
    second difference (spike above ``_KINK_FACTOR`` times the scan median) then
    pins the location inside the change's one-step neighborhood. Curvature
    spikes without a branch change are boundary effects of the entropy near
    a vanishing spectral weight, not kinks, and stay unreported.
    """
    second = np.abs(gqd[:-2] - 2.0 * gqd[1:-1] + gqd[2:])
    threshold = max(_KINK_FACTOR * float(np.median(second)), _KINK_FLOOR)
    kinks = []
    for i in (np.flatnonzero(code[1:] != code[:-1]) + 1).tolist():
        window = [j for j in (i - 1, i, i + 1) if 1 <= j <= second.size]
        spiked = [j for j in window if second[j - 1] > threshold]
        at = max(spiked, key=lambda j: second[j - 1]) if spiked else i
        p = float(p_grid[at])
        if not kinks or p != kinks[-1]:
            kinks.append(p)
    return tuple(kinks)


def _detect_plateaus(p_grid: np.ndarray, gqd: np.ndarray):
    """Greedy maximal windows of at least three points spanning ``_PLATEAU_TOL``.

    A greedy window never crosses a step larger than the tolerance, so the
    grid is first split into the runs where every ``|dg|`` is within it; the
    greedy scan runs only inside the runs of three points or more.
    """
    flat = np.abs(np.diff(gqd)) <= _PLATEAU_TOL
    edges = np.flatnonzero(np.diff(flat, prepend=False, append=False))
    plateaus = []
    # Run k holds the points edges[2k] ... edges[2k + 1].
    for first, last in edges.reshape(-1, 2).tolist():
        if last - first < 2:
            continue
        values = gqd[first : last + 1].tolist()
        i, m = 0, len(values)
        while i < m:
            j = i
            lo = hi = values[i]
            while j + 1 < m:
                lo2, hi2 = min(lo, values[j + 1]), max(hi, values[j + 1])
                if hi2 - lo2 > _PLATEAU_TOL:
                    break
                lo, hi = lo2, hi2
                j += 1
            if j - i >= 2:  # at least three grid points
                plateaus.append(
                    PlateauInterval(
                        p_start=float(p_grid[first + i]),
                        p_end=float(p_grid[first + j]),
                        value=float(np.mean(gqd[first + i : first + j + 1])),
                        max_deviation=float(hi - lo),
                    )
                )
            i = j + 1
    return tuple(plateaus)


def scan_gqd_vs_p(
    params: PauliDiagonalParams, p_grid
) -> tuple[SweepRecords, ScanReport]:
    """Closed-form discord along a dephasing grid, with structure detection.

    Returns the scan as :class:`SweepRecords` (one column per field, one
    :class:`SweepRecord` per point on iteration or indexing) plus a report
    listing the predicted transition strength, detected kinks (a branch
    change, placed at the second difference above 10 times the scan
    median), and flat plateaus (windows of at least three points spanning at
    most 1e-7). The grid is evaluated as one array. Raises ValueError unless
    it is 1-D with at least three finite, strictly increasing points in
    [0, 1]. Dephased coefficients that are not a positive state raise the
    error of :func:`gqd.pauli_diagonal_state`, naming the first such ``p``.
    """
    grid = np.array(p_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("p_grid must be a 1-D grid with at least 3 points")
    if not np.isfinite(grid).all():
        raise ValueError("p_grid entries must be finite")
    if grid[0] < 0.0 or grid[-1] > 1.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("p_grid must increase strictly within [0, 1]")
    predicted = sudden_transition_point(params)

    factor = 1.0 - grid
    c1_p, c2_p = params.c1 * factor, params.c2 * factor
    c3_p = np.full_like(grid, params.c3)
    gqd_vals = np.maximum(_pauli_diagonal_bits(params.n_qubits, c1_p, c2_p, c3_p, grid), 0.0)
    code = _active_branches(params, factor)
    report = ScanReport(
        predicted_transition_p=predicted,
        kinks=_detect_kinks(grid, gqd_vals, code),
        plateaus=_detect_plateaus(grid, gqd_vals),
    )
    return SweepRecords(grid, c1_p, c2_p, c3_p, gqd_vals, code), report
