"""Global quantum discord: numerical minimization and closed-form families.

The global quantum discord of an N-qubit state is the smallest
mutual-information loss achievable by an unread local projective measurement,

    D(rho) = min_Phi [ I(rho) - I(Phi(rho)) ],

minimized over one Bloch direction per qubit. Two families admit closed
forms, implemented here next to the generic optimizer:

* ``werner_ghz``: an N-qubit GHZ projector mixed with white noise;
* ``pauli_diagonal``: states of the form
  ``(I + c1 X...X + c2 Y...Y + c3 Z...Z) / 2**n``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .lbfgs import minimize_stacked
from .measurement import (
    LocalMeasurement,
    _bloch_vectors,
    _entropy_objective,
    _pauli_coefficients,
    canonical_direction,
)
from .qcore import (
    BlochVector,
    DensityMatrix,
    QubitLimitError,
    _binary_entropy_bits,
    _dense,
    _entropy_bits,
    mutual_information,
    pauli_string,
)

__all__ = [
    "InvalidParamsError",
    "QubitLimitError",
    "WernerGhzParams",
    "PauliDiagonalParams",
    "ConstraintCheck",
    "ValidationReport",
    "validate_pauli_params",
    "MAX_STARTS",
    "OptimizerOptions",
    "OptimizerDiagnostics",
    "GqdResult",
    "werner_ghz_state",
    "gqd_werner_ghz",
    "gqd_werner_ghz_asymptotic",
    "pauli_diagonal_state",
    "gqd_pauli_diagonal",
    "gqd_numeric",
    "gqd_maximally_mixed",
]

# Most starts one solve may ask for, about 100 times the largest default (8
# per qubit at the default limit of 12 qubits); all are built before a solve.
MAX_STARTS = 10_000

# Slack accepted on the closed-form validity bounds, so that states sitting
# exactly on the boundary (pure GHZ, Bell mixtures with a zero weight) are
# not rejected over float rounding.
_PARAM_TOL = 1e-12


class InvalidParamsError(ValueError):
    """Family parameters or optimizer options violate their constraints."""


def _check_n_qubits(n) -> None:
    # A plain type test: bool is an int subclass, and this runs once per
    # grid point of a dephasing scan.
    if type(n) is not int:
        raise InvalidParamsError(f"n_qubits must be an integer, got {n!r}")
    if n < 2:
        raise InvalidParamsError(f"n_qubits must be >= 2, got {n}")


def _check_real(name: str, v) -> None:
    # numbers.Real admits NumPy's real scalars, and bool as an int subclass.
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise InvalidParamsError(f"{name} must be a real number, got {v!r}")


def _check_mu(mu) -> None:
    _check_real("mu", mu)
    if not 0.0 <= mu <= 1.0:
        raise InvalidParamsError(f"mu must lie in [0, 1], got {mu!r}")


@dataclass(frozen=True)
class WernerGhzParams:
    """White noise mixed with an N-qubit GHZ projector, weight ``mu``."""

    n_qubits: int
    mu: float

    def __post_init__(self):
        _check_n_qubits(self.n_qubits)
        _check_mu(self.mu)


@dataclass(frozen=True)
class PauliDiagonalParams:
    """Coefficients of ``(I + c1 X...X + c2 Y...Y + c3 Z...Z) / 2**n``.

    Construction only checks types and ranges; whether the coefficients give
    a positive state depends on the parity of ``n_qubits`` and is reported by
    :func:`validate_pauli_params`.
    """

    n_qubits: int
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        _check_n_qubits(self.n_qubits)
        for name in ("c1", "c2", "c3"):
            v = getattr(self, name)
            _check_real(name, v)
            # No comparison with the float bound: NumPy casts it down to a
            # float32 or float16 v, where it overflows.
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an int beyond the float range
                raise InvalidParamsError(
                    f"{name} must be finite, got a value beyond the float range"
                ) from None
            if not finite:
                raise InvalidParamsError(f"{name} must be finite, got {v!r}")

    def coefficients(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    value: float


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail record for each positivity constraint of a parameter set."""

    ok: bool
    checks: tuple[ConstraintCheck, ...]

    def failure_message(self) -> str | None:
        for c in self.checks:
            if not c.passed:
                return f"{c.name} = {c.value:.12g} out of range [0, 1]"
        return None


def _pauli_weights(n_qubits: int, c1, c2, c3) -> np.ndarray:
    """The quantities that decide positivity, stacked on a new last axis.

    Odd ``n_qubits``: ``d = sqrt(c1^2 + c2^2 + c3^2)``, which must be at most
    1. Even ``n_qubits``: the four spectral weights ``lambda_j``, each of
    total mass 1/4, which must lie in ``[0, 1]``. The coefficients are
    scalars or 1-D arrays of one length.
    """
    # Coefficients far outside the valid range overflow to inf or NaN, which
    # fail the bounds.
    with np.errstate(over="ignore", invalid="ignore"):
        if n_qubits % 2:
            return np.sqrt(np.square(c1) + np.square(c2) + np.square(c3))[..., None]
        s2 = -c2 if (n_qubits // 2) % 2 else c2
        return np.array(
            [
                (1.0 + c3 + c1 + s2) / 4.0,
                (1.0 + c3 - c1 - s2) / 4.0,
                (1.0 - c3 + c1 - s2) / 4.0,
                (1.0 - c3 - c1 + s2) / 4.0,
            ]
        ).T


def _in_bounds(weights: np.ndarray) -> np.ndarray:
    """Elementwise: whether each :func:`_pauli_weights` entry lies in ``[0, 1]``.

    One rule for both parities, since ``d`` is a square root and so never
    negative; NaN and inf fail it.
    """
    return (weights >= -_PARAM_TOL) & (weights <= 1.0 + _PARAM_TOL)


def _checked_weights(n_qubits: int, c1, c2, c3, p=None) -> np.ndarray:
    """:func:`_pauli_weights` of scalar or 1-D coefficients.

    Raises :class:`InvalidParamsError` for the first point whose state is not
    positive. ``p``, the dephasing grid that 1-D coefficients follow, names
    that point in the message.
    """
    w = _pauli_weights(n_qubits, c1, c2, c3)
    if not _in_bounds(w).all():
        rows = np.atleast_2d(w)
        i = int(np.argmin(_in_bounds(rows).all(axis=1)))
        at = "" if p is None else f" at p = {float(p[i])!r}"
        raise InvalidParamsError(
            f"pauli-diagonal coefficients invalid{at}: "
            f"{_report(n_qubits, rows[i]).failure_message()}"
        )
    return w


def _report(n_qubits: int, weights: np.ndarray) -> ValidationReport:
    names = ["d"] if n_qubits % 2 else [f"lambda{j}" for j in range(1, 5)]
    checks = tuple(
        ConstraintCheck(name, passed, value)
        for name, passed, value in zip(names, _in_bounds(weights).tolist(), weights.tolist())
    )
    return ValidationReport(all(c.passed for c in checks), checks)


def validate_pauli_params(params: PauliDiagonalParams) -> ValidationReport:
    """Report whether the coefficients define a positive state.

    For odd ``n_qubits`` the single constraint is
    ``d = sqrt(c1^2 + c2^2 + c3^2) <= 1``. For even ``n_qubits`` the four
    spectral weights ``lambda_j`` must each lie in ``[0, 1]``.
    """
    return _report(params.n_qubits, _pauli_weights(params.n_qubits, *params.coefficients()))


def werner_ghz_state(params: WernerGhzParams) -> DensityMatrix:
    """Dense matrix of the GHZ-plus-white-noise mixture."""
    mu = params.mu
    with _dense(params.n_qubits) as d:
        mat = np.eye(d, dtype=np.complex128) * ((1.0 - mu) / d)
        half = mu / 2.0
        mat[0, 0] += half
        mat[-1, -1] += half
        mat[0, -1] += half
        mat[-1, 0] += half
        return DensityMatrix(mat)


# Past this many qubits 2**-n times any weight underflows to 0, so larger
# qubit counts are clamped to it: np.ldexp rejects an exponent beyond a C long.
_UNDERFLOW_QUBITS = 2000


def _werner_ghz_bits(n_qubits: int, mu):
    """Closed-form discord of GHZ-noise mixtures at one or many ``mu``.

    With ``a = (1 - mu) / 2**n`` the z-measured state has the weights
    ``a + mu/2`` (twice) on the GHZ pair and ``a`` elsewhere, so

        D = H(a + mu/2, a + mu/2) - H(a + mu, a)

    in terms of the unnormalised entropy ``H(w) = -sum w log2 w``. ``a`` is
    scaled by ``ldexp``, so it underflows to 0 and ``D`` tends to ``mu`` for
    large N instead of overflowing.
    """
    a = np.ldexp(1.0 - np.asarray(mu, dtype=float), -min(n_qubits, _UNDERFLOW_QUBITS))
    half = a + mu / 2.0
    return _entropy_bits(np.array([half, half]).T) - _entropy_bits(np.array([a + mu, a]).T)


def gqd_werner_ghz(params: WernerGhzParams) -> float:
    """Closed-form global quantum discord of the GHZ-noise mixture, in bits.

    With ``a = (1 - mu) / 2**n``,

        D = (a + mu) log2(a + mu) + a log2(a) - 2 (a + mu/2) log2(a + mu/2).

    The optimal measurement is along z on every qubit.
    """
    return float(_werner_ghz_bits(params.n_qubits, params.mu))


def gqd_werner_ghz_asymptotic(mu: float) -> float:
    """Large-N limit of the GHZ-noise discord: exactly ``mu`` bits."""
    _check_mu(mu)
    return float(mu)


def pauli_diagonal_state(params: PauliDiagonalParams) -> DensityMatrix:
    """Dense matrix ``(I + c1 X...X + c2 Y...Y + c3 Z...Z) / 2**n``."""
    _checked_weights(params.n_qubits, *params.coefficients())
    n = params.n_qubits
    with _dense(n) as d:
        mat = np.eye(d, dtype=np.complex128)
        for c, axis in zip(params.coefficients(), ("x", "y", "z")):
            if c != 0.0:
                mat += c * pauli_string(axis, n)
        return DensityMatrix(mat / d)


def _pauli_diagonal_bits(n_qubits: int, c1, c2, c3, p=None):
    """Closed-form discord of Pauli-diagonal states, over scalars or 1-D arrays.

    Raises as :func:`_checked_weights` does, with ``p`` passed on to it.
    """
    weights = _checked_weights(n_qubits, c1, c2, c3, p)
    c = np.maximum(np.maximum(np.abs(c1), np.abs(c2)), np.abs(c3))
    f = _binary_entropy_bits((1.0 + c) / 2.0)
    if n_qubits % 2:
        g = _binary_entropy_bits((1.0 + np.minimum(weights[..., 0], 1.0)) / 2.0)
    else:
        g = -1.0 + _entropy_bits(weights)
    return f - g


def gqd_pauli_diagonal(params: PauliDiagonalParams) -> float:
    """Closed-form global quantum discord of a Pauli-string mixture, in bits.

    ``D = f - g`` where ``f`` is the binary entropy of
    ``(1 + c) / 2`` with ``c = max(|c1|, |c2|, |c3|)``, and ``g`` is the
    same expression with ``d = sqrt(c1^2 + c2^2 + c3^2)`` for odd ``n`` or
    ``-1 + H(lambda)`` built from the four spectral weights for even ``n``.
    The optimal measurement aligns every qubit with the axis whose
    coefficient has the largest magnitude.
    """
    return float(_pauli_diagonal_bits(params.n_qubits, *params.coefficients()))


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the numeric minimization.

    All starts are refined by stacked L-BFGS (:mod:`gqd.lbfgs`) on one
    unconstrained 3-vector per qubit; each start keeps its own memory, line
    search and stopping tests. ``starts`` (1 to :data:`MAX_STARTS`) defaults
    to ``8 * n_qubits``: the correlation-tensor start, the three fixed axis
    starts (z, x, y on every qubit), then seeded random directions. It is a
    cap: the stack stops early once the finished starts pass the stopping
    rule of :func:`_found_every_minimum`, which needs at least 8 of them.
    ``max_evals_per_start`` (at least 1) caps the value-and-gradient
    evaluations of one start (L-BFGS-B ``maxfun``: checked when an iteration
    ends), and ``f_tol`` (finite and at least 0) is its relative-decrease
    stopping tolerance (L-BFGS-B ``ftol``). ``threads`` (at least 1) is
    validated but starts no pool: the starts run as one stack, so that the
    stopping rule sees all of them, and a pool over the objective's parts
    lost to the serial loop where it could start (N >= 8). The field stays
    while ``bench/probes.py`` passes it; the result does not depend on it.
    ``seed`` (at least 0) seeds the random starts. Every field but
    ``f_tol`` is a plain ``int``. Construction raises
    :class:`InvalidParamsError` for a value of another type or out of these
    ranges.
    """

    seed: int = 0
    starts: int | None = None
    max_evals_per_start: int = 2000
    f_tol: float = 1e-10
    max_qubits: int = 12
    threads: int = 1

    def __post_init__(self):
        # Plain type tests, as for n_qubits: bool is an int subclass, and
        # np.float64 a float subclass.
        if type(self.f_tol) not in (int, float):
            raise InvalidParamsError(f"f_tol must be a plain int or float, got {self.f_tol!r}")
        if not (math.isfinite(self.f_tol) and self.f_tol >= 0.0):
            raise InvalidParamsError(f"f_tol must be finite and >= 0, got {self.f_tol!r}")
        # Each integer field with its least and greatest value.
        for name, low, high in (
            ("seed", 0, None),
            ("starts", 1, MAX_STARTS),
            ("max_evals_per_start", 1, None),
            ("max_qubits", None, None),
            ("threads", 1, None),
        ):
            v = getattr(self, name)
            if v is None and name == "starts":
                continue
            if type(v) is not int:
                raise InvalidParamsError(f"{name} must be a plain int, got {v!r}")
            if low is not None and v < low:
                raise InvalidParamsError(f"{name} must be >= {low}, got {v}")
            if high is not None and v > high:
                raise InvalidParamsError(f"{name} must be <= {high}, got {v}")


@dataclass(frozen=True)
class OptimizerDiagnostics:
    """Totals over the starts, and a certificate for the reported optimum.

    ``starts_finished`` counts the starts that ran to their own stop; the
    others were ended by the stopping rule. The best value is taken over
    the finished starts, and ``starts_agreeing`` counts those whose final
    value lies within 1e-6 of it. ``grad_norm`` is the largest per-qubit
    norm of the tangent (Riemannian) gradient at the optimum; ``converged``
    is the winning start's stopping flag. Every numeric result, ``I / d``
    included, comes from a solve, so
    ``1 <= starts_agreeing <= starts_finished <= starts <= evaluations``.
    """

    starts: int
    starts_finished: int
    iterations: int
    evaluations: int
    starts_agreeing: int
    grad_norm: float
    seed: int
    raw_value: float
    converged: bool


@dataclass(frozen=True)
class GqdResult:
    """Outcome of a discord computation.

    ``value`` is clipped at zero; the raw minimum survives in
    ``diagnostics.raw_value`` when the numeric route produced it.
    """

    value: float
    method: str
    optimal_measurement: LocalMeasurement | None = None
    diagnostics: OptimizerDiagnostics | None = None


# A start also stops once every gradient component is below this. Much
# lower is not attainable: near a minimum a gradient g buys a decrease of
# about g^2 / curvature, which drops under the objective's rounding below
# g ~ 1e-8, and the line search then fails instead of converging.
_GRAD_TOL = 1e-7
# Starts whose final values lie this close to the best count as agreeing.
_AGREE_TOL = 1e-6
# Unit vector of each coordinate axis, the optimizer's axis starts.
_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def _correlation_start(coeffs: np.ndarray) -> np.ndarray:
    """Per qubit j, the top eigenvector of ``G_j = M_j M_j^T``, where ``M_j``
    is rows 1-3 of the Pauli tensor T with axis j moved first, reshaped to
    3 x 4^(N-1): the direction that carries most of qubit j's correlations
    and Bloch vector. z where ``G_j`` is zero, as at ``I / 2^N``."""
    n = coeffs.ndim
    grams = np.empty((n, 3, 3))
    for j in range(n):
        # One M_j at a time, as each copies three quarters of the tensor.
        m = coeffs.transpose([j, *range(j), *range(j + 1, n)])[1:].reshape(3, -1)
        np.matmul(m, m.T, out=grams[j])
    top = np.linalg.eigh(grams)[1][..., -1]
    top[~grams.any(axis=(1, 2))] = _AXES["z"]
    return top.ravel()


def _start_points(coeffs: np.ndarray, opts: OptimizerOptions) -> list[np.ndarray]:
    """Stacked direction vectors ``[v_0, v_1, ...]`` of every start: the
    correlation start, z, x and y on every qubit, then seeded random
    directions."""
    n = coeffs.ndim
    total = opts.starts if opts.starts is not None else 8 * n
    fixed = [_correlation_start(coeffs)] + [np.array(_AXES[axis] * n) for axis in "zxy"]
    points = fixed[:total]
    # One draw for every random start, n values of z, then n of phi, per
    # start, mapped as Generator.uniform maps them onto [-1, 1) and [0, 2 pi).
    u = np.random.default_rng(opts.seed).random((total - len(points), 2, n))
    z = -1.0 + 2.0 * u[:, 0]
    phi = 2.0 * math.pi * u[:, 1]
    s = np.sqrt(1.0 - z * z)
    drawn = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
    return points + list(drawn.reshape(len(drawn), 3 * n))


def _measurement_from(x: np.ndarray) -> LocalMeasurement:
    v = x.reshape(-1, 3)
    v = v / np.sqrt((v * v).sum(axis=1))[:, None]
    return LocalMeasurement(tuple(canonical_direction(BlochVector(*row)) for row in v.tolist()))


def _found_every_minimum(done: np.ndarray, running: np.ndarray) -> bool:
    """The Bayesian stopping rule of Boender & Rinnooy Kan (Math. Program. 37
    (1987) 59) over the final values ``done`` of the converged starts.

    With k of them and w distinct minima among them (sorted values more
    than ``_AGREE_TOL`` apart), the posterior estimate of the number of
    minima, ``w (k - 1) / (k - w - 2)``, must lie below ``w + 0.5``. A
    running start whose current value ``running`` lies more than
    ``_AGREE_TOL`` below the best finished value is headed for a minimum
    not yet found, so it blocks the stop.

    The rule's posterior assumes k uniformly random starts, but k also
    counts the fixed starts of :func:`_start_points`, which mostly land in
    a basin already found; so the rule may fire on as few as k - 4 random
    ones (4 of 8 at the default N = 2). Counting them is kept because no
    miss was seen: default solves of the 512 ``dense-small`` inputs of
    bench seeds 1-8 (491 cut) stay within 1e-13 of the rule-free stack,
    and those of 500 locally rotated Pauli-diagonal states at N = 2-4
    within 3e-15 of the closed form.
    """
    # Sorted by NumPy, which puts NaN last; then the few values as floats.
    f = np.sort(done).tolist()
    k = len(f)
    w = 1 + sum(b - a > _AGREE_TOL for a, b in zip(f, f[1:]))
    return (
        k > w + 2
        and w * (k - 1) / (k - w - 2) < w + 0.5
        and not any(r < f[0] - _AGREE_TOL for r in running.tolist())
    )


def _run_starts(fun, points, opts: OptimizerOptions, offset: float):
    """Minimize from every start as one stacked L-BFGS, stopped early by
    :func:`_found_every_minimum`; reduce deterministically by (value, index)
    over the finished starts.

    Returns the per-start result, the index of the best start and the
    diagnostics, whose ``raw_value`` is ``offset`` plus the best value.
    """
    res = minimize_stacked(
        fun, points, opts.max_evals_per_start, opts.f_tol, _GRAD_TOL, _found_every_minimum
    )
    best = int(np.argmin(np.where(res.finished, res.fun, np.inf)))
    # The tangent gradient is |v_j| times the gradient in v_j.
    v, jac = res.x[best].reshape(-1, 3), res.jac[best].reshape(-1, 3)
    grad_norm = np.sqrt((v * v).sum(axis=1) * (jac * jac).sum(axis=1)).max()
    agreeing = res.finished & (res.fun <= res.fun[best] + _AGREE_TOL)
    diag = OptimizerDiagnostics(
        starts=len(points),
        starts_finished=int(np.count_nonzero(res.finished)),
        iterations=int(res.nit.sum()),
        evaluations=int(res.nfev.sum()),
        starts_agreeing=int(np.count_nonzero(agreeing)),
        grad_norm=float(grad_norm),
        seed=opts.seed,
        raw_value=offset + float(res.fun[best]),
        converged=bool(res.converged[best]),
    )
    return res, best, diag


def _check_numeric_size(n: int, opts: OptimizerOptions) -> None:
    """The one entry rule of the numeric routes, on the qubit count alone so
    that a caller can apply it before building the dense state. The limit
    comes first: a count above it is a :class:`QubitLimitError` (CLI exit
    3) even when it is also below 2."""
    if n > opts.max_qubits:
        raise QubitLimitError(
            f"state has {n} qubits, above the dense limit of {opts.max_qubits}"
        )
    if n < 2:
        raise ValueError(f"discord needs >= 2 qubits, got {n}")


def gqd_numeric(rho: DensityMatrix, opts: OptimizerOptions | None = None) -> GqdResult:
    """Global quantum discord by multi-start minimization over measurements.

    Parameterizes qubit j's direction by an unconstrained 3-vector ``v_j``
    (measured along ``v_j / |v_j|``, which has no poles) and refines all
    starts with one stacked L-BFGS. Each evaluation returns the objective
    and its exact gradient from one O(4^N) contraction. The raw value is
    ``I(rho)`` plus the best start's ``H(q) - sum_j H(q_j)``, for every
    state, ``I / d`` included. Deterministic for a fixed ``opts.seed``.
    """
    opts = opts or OptimizerOptions()
    _check_numeric_size(rho.n_qubits, opts)
    coeffs = _pauli_coefficients(rho.matrix).real
    fun, points = _entropy_objective(coeffs), _start_points(coeffs, opts)
    res, best, diag = _run_starts(fun, points, opts, mutual_information(rho))
    return GqdResult(max(diag.raw_value, 0.0), "numeric", _measurement_from(res.x[best]), diag)


def gqd_maximally_mixed(rho: DensityMatrix, opts: OptimizerOptions | None = None) -> GqdResult:
    """:func:`gqd_numeric` for states whose one-qubit marginals are all ``I/2``,
    where ``D = min_Phi S(Phi(rho)) - S(rho)``. Raises ValueError if a
    marginal deviates from ``I/2`` by more than 1e-8, naming the first such
    qubit."""
    opts = opts or OptimizerOptions()
    _check_numeric_size(rho.n_qubits, opts)
    r = _bloch_vectors(_pauli_coefficients(rho.matrix).real)
    # The largest entry of rho_j - I/2 = r_j . sigma / 2.
    dev = np.maximum(np.abs(r[:, 2]), np.hypot(r[:, 0], r[:, 1])) / 2.0
    for j in range(rho.n_qubits):
        if dev[j] > 1e-8:
            raise ValueError(
                f"qubit {j} marginal deviates from I/2 by {dev[j]:.3e}, "
                "shortcut requires maximally mixed marginals"
            )
    return replace(gqd_numeric(rho, opts), method="maximally_mixed")
