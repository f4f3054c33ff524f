"""Command-line interface.

Subcommands:

* ``compute``: discord of a single state document (JSON), numeric or closed
  form, result printed as one JSON record on stdout;
* ``figure1``: CSV of the GHZ-mixture discord versus noise weight for a list
  of qubit counts, ``inf`` selecting the asymptotic line;
* ``dephase-scan``: CSV of the closed-form discord along a phase-damping
  grid plus a structure report (transition, kinks, plateaus) on stdout;
* ``verify``: run the self-check suites and report margins.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 qubit limit exceeded. The grids of ``figure1`` and ``dephase-scan`` hold
at most ``MAX_GRID_STEPS`` points.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np
import orjson

from .checks import MAX_TRIALS, SCOPES, run_checks
from .discord import (
    MAX_STARTS,
    GqdResult,
    OptimizerOptions,
    PauliDiagonalParams,
    QubitLimitError,
    WernerGhzParams,
    _check_numeric_size,
    _dense_dim,
    _too_large,
    _werner_ghz_bits,
    gqd_numeric,
    gqd_pauli_diagonal,
    gqd_werner_ghz,
    pauli_diagonal_state,
    werner_ghz_state,
)
from .dynamics import scan_gqd_vs_p
from .qcore import DensityMatrix

__all__ = [
    "DocumentError",
    "StateDocument",
    "load_state_document",
    "save_state_document",
    "main",
]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_QUBIT_LIMIT = 3

# Most points a figure1 or dephase-scan grid may hold; a larger request is
# invalid input, rejected before the grid is allocated.
MAX_GRID_STEPS = 10**6


class DocumentError(ValueError):
    """A state document is malformed or used with the wrong method."""


@dataclass(frozen=True)
class StateDocument:
    """Parsed state description: a dense matrix or family parameters."""

    kind: str
    n_qubits: int
    mu: float | None = None
    coefficients: tuple[float, float, float] | None = None
    matrix: np.ndarray | None = None

    def to_density_matrix(self) -> DensityMatrix:
        if self.kind == "dense":
            return DensityMatrix(self.matrix)
        if self.kind == "werner_ghz":
            return werner_ghz_state(WernerGhzParams(self.n_qubits, self.mu))
        params = PauliDiagonalParams(self.n_qubits, *self.coefficients)
        return pauli_diagonal_state(params)

    def closed_form(self) -> tuple[float, str]:
        if self.kind == "werner_ghz":
            return gqd_werner_ghz(WernerGhzParams(self.n_qubits, self.mu)), "werner_ghz"
        if self.kind == "pauli_diagonal":
            params = PauliDiagonalParams(self.n_qubits, *self.coefficients)
            return gqd_pauli_diagonal(params), "pauli_diagonal"
        raise DocumentError("closed form unavailable for dense state documents")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _parse_matrix(raw, n_qubits: int) -> np.ndarray:
    grid = np.asarray(raw, dtype=object)
    # No array has 2^64 rows, so a larger n_qubits is never raised to 2**n.
    d = 2 ** min(n_qubits, 64)
    _require(
        grid.shape == (d, d, 2),
        f"dense matrix must be a 2^{n_qubits} x 2^{n_qubits} grid of [re, im] "
        f"pairs, got shape {grid.shape}",
    )
    # float() would take strings and booleans too. The entry types are
    # collected in one pass at C speed, as documents may be large.
    others = {
        t for t in set(map(type, grid.flat)) if t is bool or not issubclass(t, (int, float))
    }
    _require(
        not others,
        "dense matrix entries must be JSON numbers, got "
        + ", ".join(sorted(t.__name__ for t in others)),
    )
    try:
        # A view, not re + 1j * im, which turns an imaginary -0.0 into +0.0.
        return grid.astype(float).view(np.complex128)[..., 0]
    except OverflowError as exc:
        raise DocumentError(f"dense matrix entry beyond the float range: {exc}") from None


def _number(data: dict, key: str) -> float:
    """Field ``key`` as a float; a bool or a number beyond float range is rejected."""
    v = data.get(key)
    _require(
        isinstance(v, (int, float)) and not isinstance(v, bool),
        f"{data['kind']} document needs numeric {key!r}",
    )
    try:
        return float(v)
    except OverflowError:
        raise DocumentError(f"{key!r} lies beyond the float range") from None


def state_document_from_dict(data: dict) -> StateDocument:
    _require(isinstance(data, dict), "state document must be a JSON object")
    kind = data.get("kind")
    _require(
        kind in ("dense", "werner_ghz", "pauli_diagonal"),
        f"unknown document kind {kind!r}",
    )
    n = data.get("n_qubits")
    _require(
        type(n) is int and n >= 1, f"n_qubits must be a positive integer, got {n!r}"
    )
    if kind == "dense":
        _require("matrix" in data, "dense document needs a 'matrix' field")
        return StateDocument(kind, n, matrix=_parse_matrix(data["matrix"], n))
    if kind == "werner_ghz":
        return StateDocument(kind, n, mu=_number(data, "mu"))
    coeffs = tuple(_number(data, key) for key in ("c1", "c2", "c3"))
    return StateDocument(kind, n, coefficients=coeffs)


def _fast_dense_document(raw: bytes) -> StateDocument | None:
    """The dense document in ``raw`` as ``orjson`` reads it, or None when
    ``json`` must read it so that the outcome is exactly ``json``'s.

    ``orjson`` parses a dense document several times faster than ``json``,
    to the same values, but the two differ in three ways. ``orjson`` rejects
    what ``json`` accepts: the NaN and Infinity literals, numbers beyond the
    float range, lone surrogates and a UTF-8 BOM. It reads integers beyond
    64 bits as floats. And it accepts nesting far deeper than ``json``'s
    recursion limit. So its result is kept only when the document loads and
    the text holds no list or object but the document and the matrix's
    ``1 + d + d*d`` lists, so that no value hides in a field that a
    duplicate key overwrote. A loaded matrix is a grid of numbers three
    lists deep, and an integer beyond 64 bits in it is the same float64
    either way; ``n_qubits`` loads only as an ``int``, which is then exact.
    """
    # Counted first, so that the mask is freed before the parse allocates.
    lists = np.count_nonzero(np.frombuffer(raw, dtype=np.uint8) == ord("["))
    try:
        data = orjson.loads(raw)
    except orjson.JSONDecodeError:
        return None
    if type(data) is not dict or data.get("kind") != "dense":
        return None
    try:
        doc = state_document_from_dict(data)
    except ValueError:
        return None
    d = len(doc.matrix)
    if lists != 1 + d + d * d or raw.find(b"{", raw.find(b"{") + 1) != -1:
        return None
    return doc


def load_state_document(path: str) -> StateDocument:
    """The state document in file ``path``, read once, so that a pipe will
    do. A dense document is parsed by ``orjson`` where
    :func:`_fast_dense_document` allows; every other document, and every
    error, comes from ``json`` on the same bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read state document: {exc}") from exc
    doc = _fast_dense_document(raw)
    if doc is not None:
        return doc
    try:
        # The text that open(path, encoding="utf-8") reads: one decode of
        # the whole file and newlines translated, so every message is
        # unchanged.
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bytes that are not UTF-8 and
        # integers beyond Python's digit limit; RecursionError deep nesting.
        raise DocumentError(f"state document is not valid JSON: {exc}") from exc
    return state_document_from_dict(data)


def save_state_document(path: str, doc: StateDocument) -> None:
    """Write a document as one line of JSON; floats keep their exact repr
    round-trip.

    The bytes are those of ``json.dumps`` of the whole document. Every piece
    comes from ``json.dumps``, whose C encoder ``json.dump`` never uses, and
    a dense matrix is written one row at a time, so that no text of the
    whole document is held in memory.
    """
    data: dict = {"kind": doc.kind, "n_qubits": doc.n_qubits}
    if doc.kind == "dense":
        mat = np.asarray(doc.matrix, dtype=np.complex128)
        pairs = np.stack([mat.real, mat.imag], axis=-1)
        data["matrix"] = []
    elif doc.kind == "werner_ghz":
        data["mu"] = float(doc.mu)
    else:
        data["c1"], data["c2"], data["c3"] = (float(c) for c in doc.coefficients)
    text = json.dumps(data)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if doc.kind == "dense":
            # The rows go between the brackets of the empty "matrix" list,
            # which closes the text.
            fh.write(text[:-2])
            sep = ""
            for row in pairs:
                fh.write(sep + json.dumps(row.tolist()))
                sep = ", "
            text = text[-2:]
        fh.write(text + "\n")


def _fmt(x: float) -> str:
    """Fixed CSV float format: 12 significant digits, '.' decimal separator."""
    return f"{x:.12g}"


# Each optional optimizer flag of `compute` with its OptimizerOptions field.
_OPTIMIZER_FLAGS = {"seed": "seed", "starts": "starts", "tol": "f_tol", "max_n": "max_qubits"}


def _optimizer_options(args) -> OptimizerOptions:
    return OptimizerOptions(**{
        field: getattr(args, flag)
        for flag, field in _OPTIMIZER_FLAGS.items()
        if getattr(args, flag) is not None
    })


def _result_record(result: GqdResult, seed: int, wall_time: float) -> dict:
    measurement = None
    if result.optimal_measurement is not None:
        measurement = [
            [d.x, d.y, d.z] for d in result.optimal_measurement.directions
        ]
    return {
        "value": result.value,
        "method": result.method,
        "optimal_measurement": measurement,
        "seed": seed,
        "wall_time_s": wall_time,
        "diagnostics": asdict(result.diagnostics) if result.diagnostics else None,
    }


def _dense_state(doc: StateDocument) -> DensityMatrix:
    """The document's dense state; a :class:`QubitLimitError` when its 4^N
    complex entries overflow NumPy's size type or cannot be allocated."""
    # Before the family's weights are checked, so that a state too large to
    # build is a qubit limit whatever its coefficients.
    _dense_dim(doc.n_qubits)
    try:
        return doc.to_density_matrix()
    except MemoryError:
        raise _too_large(doc.n_qubits) from None


def cmd_compute(args) -> int:
    # Built first so that out-of-range flags fail on the closed route too.
    opts = _optimizer_options(args)
    doc = load_state_document(args.input)
    method = args.method
    if method == "auto":
        method = "numeric" if doc.kind == "dense" else "closed"
    t0 = time.perf_counter()
    if method == "closed":
        for flag in _OPTIMIZER_FLAGS:
            _require(
                getattr(args, flag) is None,
                f"--{flag.replace('_', '-')} applies only to the numeric method",
            )
        value, tag = doc.closed_form()
        result = GqdResult(value=max(value, 0.0), method=tag)
    else:
        # Before the dense state is built, whose size is exponential in N.
        _check_numeric_size(doc.n_qubits, opts)
        result = gqd_numeric(_dense_state(doc), opts)
    record = _result_record(result, opts.seed, time.perf_counter() - t0)
    print(json.dumps(record))
    return EXIT_OK


def _parse_n_list(text: str) -> list[object]:
    out: list[object] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "inf":
            out.append("inf")
            continue
        try:
            n = int(token)
        except ValueError:
            raise DocumentError(f"n list entries must be integers or 'inf', got {token!r}")
        if n < 2:
            raise DocumentError(f"qubit counts must be >= 2, got {n}")
        out.append(n)
    if not out:
        raise DocumentError("n list must not be empty")
    return out


def _check_steps(flag: str, steps: int, low: int) -> None:
    _require(
        low <= steps <= MAX_GRID_STEPS,
        f"{flag} must lie in [{low}, {MAX_GRID_STEPS}], got {steps}",
    )


def cmd_figure1(args) -> int:
    n_list = _parse_n_list(args.n_list)
    _check_steps("mu-steps", args.mu_steps, 2)
    mus = np.linspace(0.0, 1.0, args.mu_steps)
    mu_texts = "".join(_csv_chunks("%.12g\n", mus)).split("\n")[:-1]

    def rows():
        for n in n_list:
            # The asymptote of the GHZ-noise discord is mu itself.
            values = mus if n == "inf" else _werner_ghz_bits(n, mus)
            yield from _csv_chunks(f"%s,{n},%.12g\n", mu_texts, values)

    _write_csv(args.out, "mu,n,gqd_bits", rows())
    return EXIT_OK


# Rows formatted and written at a time, so that no CSV is held in memory
# whole.
_CSV_CHUNK = 2**14


def _csv_chunks(template: str, *columns):
    """Yield ``template % row`` for the rows of ``columns``, joined per chunk.

    One ``%`` formats a whole chunk in C; ``%.12g`` gives the text of
    :func:`_fmt`.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        parts = [c[start : start + _CSV_CHUNK] for c in columns]
        args = [None] * (len(parts[0]) * width)
        for j, part in enumerate(parts):
            args[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        yield template * len(parts[0]) % tuple(args)


def _write_csv(path: str, header: str, chunks) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            fh.writelines(chunks)
    except OSError as exc:
        raise DocumentError(f"cannot write output file: {exc}") from exc


def cmd_dephase_scan(args) -> int:
    _check_steps("p-steps", args.p_steps, 3)
    params = PauliDiagonalParams(args.n, args.c1, args.c2, args.c3)
    grid = np.linspace(0.0, 1.0, args.p_steps)
    records, report = scan_gqd_vs_p(params, grid)
    labels = np.array(records.BRANCHES, dtype=object)[records.branch]
    # c3 is not dephased, so its text is part of the row template.
    template = f"%.12g,%.12g,%.12g,{_fmt(params.c3)},%.12g,%s\n"
    _write_csv(
        args.out,
        "p,c1_p,c2_p,c3_p,gqd_bits,active_branch",
        _csv_chunks(template, records.p, records.c1_p, records.c2_p, records.gqd, labels),
    )
    if report.predicted_transition_p is None:
        print("predicted transition: none")
    else:
        print(f"predicted transition: p* = {_fmt(report.predicted_transition_p)}")
    if report.kinks:
        print("detected kinks: " + ", ".join(f"p = {_fmt(k)}" for k in report.kinks))
    else:
        print("detected kinks: none")
    if report.plateaus:
        for pl in report.plateaus:
            print(
                f"plateau: p in [{_fmt(pl.p_start)}, {_fmt(pl.p_end)}], "
                f"value {_fmt(pl.value)}, spread {pl.max_deviation:.3e}"
            )
    else:
        print("plateaus: none")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(scope=args.scope, seed=args.seed, trials=args.trials)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name:<28s} margin {r.margin:.12g}  tol {r.tolerance:g}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print(f"first failing check: {failed[0].name}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqd",
        description="Global quantum discord of multi-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="discord of one state document")
    p_compute.add_argument("--input", required=True, help="state document (JSON)")
    p_compute.add_argument(
        "--method", choices=("auto", "numeric", "closed"), default="auto"
    )
    p_compute.add_argument(
        "--seed", type=int, default=None, help="optimizer RNG seed (default 0)"
    )
    p_compute.add_argument("--starts", type=int, default=None, help=f"optimizer starts, at most {MAX_STARTS}")
    p_compute.add_argument(
        "--tol", type=float, default=None, help="optimizer objective tolerance"
    )
    p_compute.add_argument(
        "--max-n", type=int, default=None,
        help="dense qubit limit of the numeric method (default 12)",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_fig = sub.add_parser("figure1", help="GHZ-mixture discord vs noise weight")
    p_fig.add_argument(
        "--n-list", default="2,3,5,inf",
        help="comma list of qubit counts, 'inf' for the asymptote",
    )
    p_fig.add_argument(
        "--mu-steps", type=int, default=101,
        help=f"grid points on [0, 1], at most {MAX_GRID_STEPS} (default 101)",
    )
    p_fig.add_argument("--out", required=True, help="output CSV path")
    p_fig.set_defaults(func=cmd_figure1)

    p_scan = sub.add_parser("dephase-scan", help="discord along a phase-damping grid")
    p_scan.add_argument("--n", type=int, required=True, help="number of qubits")
    p_scan.add_argument("--c1", type=float, required=True)
    p_scan.add_argument("--c2", type=float, required=True)
    p_scan.add_argument("--c3", type=float, required=True)
    p_scan.add_argument(
        "--p-steps", type=int, default=101,
        help=f"grid points on [0, 1], at most {MAX_GRID_STEPS} (default 101)",
    )
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=cmd_dephase_scan)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("--scope", choices=SCOPES, default="all")
    p_verify.add_argument(
        "--trials", type=int, default=100,
        help=f"trials per check, at most {MAX_TRIALS} (default 100)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building one costs about 15 parses with it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except QubitLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUBIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
