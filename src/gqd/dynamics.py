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
from dataclasses import dataclass

import numpy as np

from .discord import (
    PauliDiagonalParams,
    gqd_pauli_diagonal,
    require_valid_pauli_params,
)
from .qcore import DensityMatrix, PAULI_Z, apply_single_qubit_operators

__all__ = [
    "phase_damping",
    "dephase_pauli_params",
    "sudden_transition_point",
    "SweepRecord",
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
    require_valid_pauli_params(params)
    factor = 1.0 - p
    return PauliDiagonalParams(
        params.n_qubits, params.c1 * factor, params.c2 * factor, params.c3
    )


def sudden_transition_point(params: PauliDiagonalParams) -> float | None:
    """Dephasing strength where the dominant coefficient switches to ``c3``.

    Exists only when ``0 < |c3| < max(|c1|, |c2|)`` strictly; returns None
    otherwise (including ties, where the curve has no interior kink).
    """
    require_valid_pauli_params(params)
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


def _active_branch(params: PauliDiagonalParams, p: float) -> str:
    """Which coefficient magnitude attains ``c`` at dephasing strength ``p``.

    Ties go to the longitudinal branch, except in the fully-dephased corner
    of a ``c3 = 0`` state, where the branch follows the initially dominant
    transverse axis so that a scan without a transition keeps one label.
    """
    vx = abs(params.c1) * (1.0 - p)
    vy = abs(params.c2) * (1.0 - p)
    vz = abs(params.c3)
    if vz >= vx and vz >= vy:
        if vz > 0.0 or (params.c1 == 0.0 and params.c2 == 0.0):
            return "z_dominant"
    return "x_dominant" if abs(params.c1) >= abs(params.c2) else "y_dominant"


# A second difference counts as a spike above this many times the scan
# median.
_KINK_FACTOR = 10.0
# Absolute floor under the kink threshold; keeps float dust on analytically
# flat scans from registering as curvature.
_KINK_FLOOR = 1e-9
# Largest spread of the discord across a plateau.
_PLATEAU_TOL = 1e-7


def _detect_kinks(p_grid: np.ndarray, gqd: np.ndarray, branches):
    """Slope-discontinuity points, as corroborated detector agreement.

    A branch change marks where the dominant coefficient switches, which is
    the only mechanism that produces a kink on these scans; the discrete
    second difference (spike above ``_KINK_FACTOR`` times the scan median) then
    pins the location inside the change's one-step neighborhood. Curvature
    spikes without a branch change are boundary effects of the entropy near
    a vanishing spectral weight, not kinks, and stay unreported.
    """
    second = np.abs(gqd[:-2] - 2.0 * gqd[1:-1] + gqd[2:])
    threshold = (
        max(_KINK_FACTOR * float(np.median(second)), _KINK_FLOOR)
        if second.size
        else math.inf
    )

    def sharpness(i: int) -> float:
        return float(second[i - 1]) if 1 <= i <= second.size else 0.0

    kinks = []
    for i in range(1, len(branches)):
        if branches[i] == branches[i - 1]:
            continue
        window = [j for j in (i - 1, i, i + 1) if 1 <= j <= second.size]
        spiked = [j for j in window if sharpness(j) > threshold]
        at = max(spiked, key=sharpness) if spiked else i
        p = float(p_grid[at])
        if not kinks or p != kinks[-1]:
            kinks.append(p)
    return tuple(kinks)


def _detect_plateaus(p_grid: np.ndarray, gqd: np.ndarray):
    plateaus = []
    i = 0
    m = len(p_grid)
    while i < m:
        j = i
        lo = hi = gqd[i]
        while j + 1 < m:
            lo2, hi2 = min(lo, gqd[j + 1]), max(hi, gqd[j + 1])
            if hi2 - lo2 > _PLATEAU_TOL:
                break
            lo, hi = lo2, hi2
            j += 1
        if j - i >= 2:  # at least three grid points
            plateaus.append(
                PlateauInterval(
                    p_start=float(p_grid[i]),
                    p_end=float(p_grid[j]),
                    value=float(np.mean(gqd[i : j + 1])),
                    max_deviation=float(hi - lo),
                )
            )
        i = j + 1
    return tuple(plateaus)


def scan_gqd_vs_p(
    params: PauliDiagonalParams, p_grid
) -> tuple[list[SweepRecord], ScanReport]:
    """Closed-form discord along a dephasing grid, with structure detection.

    Returns one record per grid point plus a report listing the predicted
    transition strength, detected kinks (a branch change, placed at the
    second difference above 10 times the scan median), and flat plateaus
    (windows of at least three points spanning at most 1e-7).
    """
    grid = np.asarray(p_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("p_grid must be a 1-D grid with at least 3 points")
    if grid[0] < 0.0 or grid[-1] > 1.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("p_grid must increase strictly within [0, 1]")
    require_valid_pauli_params(params)

    records = []
    for p in grid:
        evolved = dephase_pauli_params(params, float(p))
        records.append(
            SweepRecord(
                p=float(p),
                c1_p=evolved.c1,
                c2_p=evolved.c2,
                c3_p=evolved.c3,
                gqd=max(gqd_pauli_diagonal(evolved), 0.0),
                active_branch=_active_branch(params, float(p)),
            )
        )
    gqd_vals = np.array([r.gqd for r in records])
    branches = [r.active_branch for r in records]
    report = ScanReport(
        predicted_transition_p=sudden_transition_point(params),
        kinks=_detect_kinks(grid, gqd_vals, branches),
        plateaus=_detect_plateaus(grid, gqd_vals),
    )
    return records, report
