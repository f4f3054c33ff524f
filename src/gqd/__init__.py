"""Global quantum discord of multi-qubit density matrices.

Numeric minimization over local projective measurements, closed forms for
GHZ-plus-noise and Pauli-string mixtures, and phase-damping scans that
detect sudden transitions and frozen plateaus.

This namespace exports what the CLI, the README and the acceptance suite
use. Reference routes that only cross-check these, such as
``measurement.apply_local_measurement``, ``qcore.relative_entropy``,
``dynamics.phase_damping`` and ``dynamics.dephase_pauli_params``, live in
their modules.
"""

from .qcore import (
    BlochVector,
    DensityMatrix,
    StateValidationError,
    binary_entropy,
    mutual_information,
    partial_trace,
    shannon_entropy,
    tensor_product,
)
from .measurement import (
    LocalMeasurement,
    measurement_objective,
    pinch_matrix,
    relative_entropy_objective,
)
from .discord import (
    GqdResult,
    InvalidParamsError,
    OptimizerOptions,
    PauliDiagonalParams,
    QubitLimitError,
    ValidationReport,
    WernerGhzParams,
    gqd_maximally_mixed,
    gqd_numeric,
    gqd_pauli_diagonal,
    gqd_werner_ghz,
    gqd_werner_ghz_asymptotic,
    pauli_diagonal_state,
    validate_pauli_params,
    werner_ghz_state,
)
from .dynamics import (
    PlateauInterval,
    ScanReport,
    SweepRecord,
    SweepRecords,
    scan_gqd_vs_p,
    sudden_transition_point,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "DensityMatrix",
    "StateValidationError",
    "binary_entropy",
    "mutual_information",
    "partial_trace",
    "shannon_entropy",
    "tensor_product",
    "LocalMeasurement",
    "measurement_objective",
    "pinch_matrix",
    "relative_entropy_objective",
    "GqdResult",
    "InvalidParamsError",
    "OptimizerOptions",
    "PauliDiagonalParams",
    "QubitLimitError",
    "ValidationReport",
    "WernerGhzParams",
    "gqd_maximally_mixed",
    "gqd_numeric",
    "gqd_pauli_diagonal",
    "gqd_werner_ghz",
    "gqd_werner_ghz_asymptotic",
    "pauli_diagonal_state",
    "validate_pauli_params",
    "werner_ghz_state",
    "PlateauInterval",
    "ScanReport",
    "SweepRecord",
    "SweepRecords",
    "scan_gqd_vs_p",
    "sudden_transition_point",
    "__version__",
]
