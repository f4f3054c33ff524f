"""Tests for the command-line interface and its state documents."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import gqd
from gqd.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_QUBIT_LIMIT,
    EXIT_VERIFY_FAILED,
    MAX_GRID_STEPS,
    DocumentError,
    StateDocument,
    load_state_document,
    main,
    save_state_document,
    state_document_from_dict,
)
from gqd.checks import MAX_TRIALS, CheckResult, run_checks
from gqd.cli import _CSV_CHUNK, _csv_chunks, _fmt
from gqd.discord import (
    MAX_STARTS,
    PauliDiagonalParams,
    WernerGhzParams,
    _werner_ghz_bits,
    gqd_werner_ghz,
    gqd_werner_ghz_asymptotic,
    werner_ghz_state,
)
from gqd.dynamics import scan_gqd_vs_p
from gqd.qcore import random_density_matrix


def write_doc(path, payload) -> str:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid_grids(monkeypatch):
    """Make any grid allocation fail the test."""
    def linspace(*args, **kwargs):
        raise AssertionError("grid allocated before its size was checked")

    monkeypatch.setattr(np, "linspace", linspace)


def whole_document_text(doc: StateDocument) -> str:
    """A document as ``json.dumps`` writes it whole: the bytes that
    ``save_state_document`` must give."""
    data: dict = {"kind": doc.kind, "n_qubits": doc.n_qubits}
    if doc.kind == "dense":
        mat = np.asarray(doc.matrix, dtype=np.complex128)
        data["matrix"] = np.stack([mat.real, mat.imag], axis=-1).tolist()
    elif doc.kind == "werner_ghz":
        data["mu"] = float(doc.mu)
    else:
        data["c1"], data["c2"], data["c3"] = (float(c) for c in doc.coefficients)
    return json.dumps(data) + "\n"


def complex_matrix(re, im) -> np.ndarray:
    """``re + i im`` entry by entry; ``re + 1j * im`` turns an infinite
    ``im`` into a NaN real part."""
    m = np.empty(np.shape(re), dtype=np.complex128)
    m.real, m.imag = re, im
    return m


# Signed zeros, the smallest subnormal, the largest float, 1/3, NaN and
# both infinities, in both parts; a 1-D and an empty matrix as well as
# square ones.
_EDGES = np.resize([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1.0 / 3.0, math.nan, math.inf, -math.inf], 16)
WRITER_DOCS = [
    StateDocument("werner_ghz", 3, mu=0.1),
    StateDocument("pauli_diagonal", 4, coefficients=(0.1, -0.2, 1.0 / 3.0)),
    StateDocument("dense", 3, matrix=random_density_matrix(3, np.random.default_rng(98)).matrix),
    StateDocument("dense", 1, matrix=complex_matrix(_EDGES[:4].reshape(2, 2), _EDGES[4:8].reshape(2, 2))),
    StateDocument("dense", 2, matrix=complex_matrix(_EDGES.reshape(4, 4), np.roll(_EDGES, 5).reshape(4, 4))),
    StateDocument("dense", 1, matrix=complex_matrix(_EDGES[:9], _EDGES[8::-1])),
    StateDocument("dense", 1, matrix=np.zeros((0, 0), dtype=np.complex128)),
]
WRITER_IDS = ["werner_ghz", "pauli_diagonal", "dense", "dense-n1-edges", "dense-edges", "dense-1d", "dense-empty"]


class TestStateDocuments:
    @pytest.mark.parametrize(
        "doc",
        [
            StateDocument("dense", 2, matrix=random_density_matrix(2, np.random.default_rng(99)).matrix),
            StateDocument("werner_ghz", 3, mu=0.1),
            StateDocument("pauli_diagonal", 4, coefficients=(0.1, -0.2, 1.0 / 3.0)),
            # Signed zeros in both parts, the imaginary -0.0 included.
            StateDocument("dense", 1, matrix=np.array([[0.5, -0j], [-0.0, 0.5]])),
        ],
        ids=["dense", "werner_ghz", "pauli_diagonal", "dense-signed-zeros"],
    )
    def test_round_trip_gives_back_every_field(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        save_state_document(str(path), doc)
        back = load_state_document(str(path))
        for field in dataclasses.fields(StateDocument):
            got, want = getattr(back, field.name), getattr(doc, field.name)
            if isinstance(want, np.ndarray):
                # Bit for bit, the dtype and shape included.
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want, field.name

    @pytest.mark.parametrize("doc", WRITER_DOCS, ids=WRITER_IDS)
    def test_file_is_json_dumps_of_the_whole_document(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        save_state_document(str(path), doc)
        assert path.read_bytes() == whole_document_text(doc).encode()

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
    @pytest.mark.parametrize("doc", WRITER_DOCS, ids=WRITER_IDS)
    def test_writer_never_takes_the_pure_python_encoder(self, tmp_path, monkeypatch, doc):
        want = whole_document_text(doc).encode()

        def python_encoder(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        path = tmp_path / "doc.json"
        save_state_document(str(path), doc)
        assert path.read_bytes() == want

    def test_writer_holds_no_whole_document(self, tmp_path):
        # The complex matrix is 1 MiB at N = 8; the text is about 3 MiB.
        doc = StateDocument("dense", 8, matrix=random_density_matrix(8, np.random.default_rng(8)).matrix)
        tracemalloc.start()
        try:
            save_state_document(str(tmp_path / "doc.json"), doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * doc.matrix.nbytes

    def test_rejects_unknown_kind(self):
        with pytest.raises(DocumentError, match="kind"):
            state_document_from_dict({"kind": "bell", "n_qubits": 2})

    def test_rejects_missing_fields(self):
        with pytest.raises(DocumentError, match="mu"):
            state_document_from_dict({"kind": "werner_ghz", "n_qubits": 2})
        with pytest.raises(DocumentError, match="c2"):
            state_document_from_dict({"kind": "pauli_diagonal", "n_qubits": 2, "c1": 0.1, "c3": 0.0})
        with pytest.raises(DocumentError, match="matrix"):
            state_document_from_dict({"kind": "dense", "n_qubits": 2})

    def test_rejects_bad_matrix_shape(self):
        with pytest.raises(DocumentError, match="re, im"):
            state_document_from_dict(
                {"kind": "dense", "n_qubits": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]]}
            )

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(DocumentError, match="n_qubits"):
            state_document_from_dict({"kind": "werner_ghz", "n_qubits": "two", "mu": 0.5})

    @pytest.mark.parametrize("n", [True, 2.0, 2.5])
    def test_rejects_non_integer_qubit_count(self, n):
        with pytest.raises(DocumentError, match="n_qubits"):
            state_document_from_dict({"kind": "werner_ghz", "n_qubits": n, "mu": 0.5})

    def test_rejects_strings_and_booleans_as_matrix_entries(self, tmp_path, capsys):
        # float() reads "0.5" as 0.5 and true as 1.0, so this document would
        # parse to diag(0.5, 1).
        matrix = [[["0.5", 0], [0, 0]], [[0, False], [True, 0]]]
        path = write_doc(tmp_path / "d.json", {"kind": "dense", "n_qubits": 1, "matrix": matrix})
        with pytest.raises(DocumentError, match="JSON numbers, got bool, str"):
            load_state_document(path)
        code, out, err = run_cli(capsys, "compute", "--input", path)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "JSON numbers" in err


    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(
                '{"kind": "dense", "n_qubits": 1, "matrix": [{"a": 1}, {"b": 2}]}',
                id="dict-entries",
            ),
            pytest.param(
                '{"kind": "dense", "n_qubits": 2, "matrix": [[1, [2, 3]]]}',
                id="ragged-matrix",
            ),
            pytest.param(
                '{"kind": "dense", "n_qubits": %s, "matrix": [[[1, 0]]]}' % ("9" * 401),
                id="huge-n-qubits",
            ),
            pytest.param(
                '{"kind": "werner_ghz", "n_qubits": 2, "mu": %s}' % ("1" * 401),
                id="mu-huge",
            ),
            pytest.param(
                '{"kind": "werner_ghz", "n_qubits": 2, "mu": true}', id="mu-true"
            ),
            *(
                pytest.param(
                    '{"kind": "pauli_diagonal", "n_qubits": 2, %s}'
                    % ", ".join(f'"c{k}": {value if k == j else 0}' for k in (1, 2, 3)),
                    id=f"c{j}-{name}",
                )
                for j in (1, 2, 3)
                for name, value in (("huge", "-" + "1" * 401), ("true", "true"))
            ),
            pytest.param("[" * 100000 + "]" * 100000, id="deep-nesting"),
        ],
    )
    def test_malformed_values_exit_2_without_traceback(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DocumentError):
            load_state_document(str(path))
        code, out, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:")


class TestCompute:
    def test_closed_form_route(self, tmp_path, capsys):
        doc = write_doc(tmp_path / "w.json", {"kind": "werner_ghz", "n_qubits": 3, "mu": 0.5})
        code, out, _ = run_cli(capsys, "compute", "--input", doc)
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["method"] == "werner_ghz"
        want = gqd_werner_ghz(WernerGhzParams(3, 0.5))
        assert math.isclose(record["value"], want, abs_tol=1e-12)
        assert record["optimal_measurement"] is None
        assert record["seed"] == 0

    def test_pauli_auto_routes_to_closed_form(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path / "p.json",
            {"kind": "pauli_diagonal", "n_qubits": 2, "c1": 0.5, "c2": 0.1, "c3": 0.2},
        )
        code, out, _ = run_cli(capsys, "compute", "--input", doc)
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["method"] == "pauli_diagonal"
        assert math.isclose(record["value"], 0.07192425229193178, abs_tol=1e-12)

    # mu = 0 is I/4, which runs the same solve as any other state.
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_numeric_route_on_family_document(self, tmp_path, capsys, mu):
        doc = write_doc(tmp_path / "w.json", {"kind": "werner_ghz", "n_qubits": 2, "mu": mu})
        code, out, _ = run_cli(capsys, "compute", "--input", doc, "--method", "numeric")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["method"] == "numeric"
        assert abs(record["value"] - gqd_werner_ghz(WernerGhzParams(2, mu))) <= 1e-4
        assert len(record["optimal_measurement"]) == 2
        assert record["diagnostics"]["evaluations"] > 0
        diag = record["diagnostics"]
        assert 1 <= diag["starts_agreeing"] <= diag["starts_finished"] <= diag["starts"] <= diag["evaluations"]
        assert 0.0 <= diag["grad_norm"] <= 1e-6
        assert "best_objective_history_length" not in diag
        assert record["wall_time_s"] >= 0.0

    def test_dense_document_defaults_to_numeric(self, tmp_path, capsys):
        bell = werner_ghz_state(WernerGhzParams(2, 1.0)).matrix
        grid = [[[v.real, v.imag] for v in row] for row in bell]
        doc = write_doc(tmp_path / "bell.json", {"kind": "dense", "n_qubits": 2, "matrix": grid})
        code, out, _ = run_cli(capsys, "compute", "--input", doc)
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["method"] == "numeric"
        assert abs(record["value"] - 1.0) <= 1e-5

    def test_closed_method_on_dense_is_invalid(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path / "d.json",
            {"kind": "dense", "n_qubits": 2, "matrix": [[[0.25, 0.0]] * 4 for _ in range(4)]},
        )
        code, _, err = run_cli(capsys, "compute", "--input", doc, "--method", "closed")
        assert code == EXIT_INVALID_INPUT
        assert "closed form unavailable" in err

    def test_invalid_coefficients_rejected(self, tmp_path, capsys):
        doc = write_doc(
            tmp_path / "bad.json",
            {"kind": "pauli_diagonal", "n_qubits": 2, "c1": 0.8, "c2": 0.2, "c3": 0.3},
        )
        code, _, err = run_cli(capsys, "compute", "--input", doc)
        assert code == EXIT_INVALID_INPUT
        assert "lambda4" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_INVALID_INPUT
        assert "JSON" in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_dense_entry_rejected(self, tmp_path, capsys, bad):
        mat = werner_ghz_state(WernerGhzParams(2, 0.5)).matrix.copy()
        mat[1, 1] = bad
        path = tmp_path / "bad.json"
        save_state_document(str(path), StateDocument("dense", 2, matrix=mat))
        code, out, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "NaN or infinite" in err

    def test_missing_file_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--input", "/nonexistent/state.json")
        assert code == EXIT_INVALID_INPUT
        assert "cannot read" in err

    def test_qubit_limit_on_numeric_route(self, tmp_path, capsys):
        doc = write_doc(tmp_path / "w4.json", {"kind": "werner_ghz", "n_qubits": 4, "mu": 0.5})
        code, _, err = run_cli(
            capsys, "compute", "--input", doc, "--method", "numeric", "--max-n", "3"
        )
        assert code == EXIT_QUBIT_LIMIT
        assert "4 qubits" in err

    @pytest.mark.parametrize("n", [13, 20])
    def test_numeric_route_keeps_the_default_qubit_limit(self, tmp_path, capsys, monkeypatch, n):
        def build(doc):
            raise AssertionError("dense state built before the qubit limit was checked")

        monkeypatch.setattr(StateDocument, "to_density_matrix", build)
        doc = write_doc(tmp_path / "w.json", {"kind": "werner_ghz", "n_qubits": n, "mu": 0.5})
        code, out, err = run_cli(capsys, "compute", "--input", doc, "--method", "numeric")
        assert code == EXIT_QUBIT_LIMIT and out == ""
        assert f"{n} qubits, above the dense limit of 12" in err

    # 4^N complex entries cannot be allocated at N = 25 (2^54 bytes, past any
    # address space) and overflow NumPy's size type at N = 40. N = 13-16
    # is never tried here: that allocation may succeed.
    @pytest.mark.parametrize("n", [25, 40])
    @pytest.mark.parametrize("family", [
        {"kind": "werner_ghz", "mu": 0.5},
        {"kind": "pauli_diagonal", "c1": 0.1, "c2": 0.2, "c3": 0.3},
    ], ids=["werner_ghz", "pauli_diagonal"])
    def test_state_too_large_to_build_is_a_qubit_limit(self, tmp_path, capsys, family, n):
        doc = write_doc(tmp_path / "big.json", {**family, "n_qubits": n})
        code, out, err = run_cli(
            capsys, "compute", "--input", doc, "--method", "numeric", "--max-n", str(n)
        )
        assert code == EXIT_QUBIT_LIMIT and out == ""
        assert err == f"error: state has {n} qubits, too many to build as a dense matrix\n"

    def test_closed_form_bypasses_qubit_limit(self, tmp_path, capsys):
        doc = write_doc(tmp_path / "w20.json", {"kind": "werner_ghz", "n_qubits": 20, "mu": 0.5})
        code, out, _ = run_cli(capsys, "compute", "--input", doc)
        assert code == EXIT_OK
        assert json.loads(out)["method"] == "werner_ghz"

    @pytest.mark.parametrize("method", ["numeric", "closed"])
    @pytest.mark.parametrize(
        "flag, value", [("--tol", "-1"), ("--tol", "nan"), ("--starts", "0")]
    )
    def test_rejects_out_of_range_optimizer_options(
        self, tmp_path, capsys, method, flag, value
    ):
        doc = write_doc(tmp_path / "w.json", {"kind": "werner_ghz", "n_qubits": 3, "mu": 0.5})
        code, out, err = run_cli(
            capsys, "compute", "--input", doc, "--method", method, flag, value
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:")

    def test_rejects_starts_above_the_cap_before_reading_the_document(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, "compute", "--input", missing, "--starts", str(MAX_STARTS + 1))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == f"error: starts must be <= {MAX_STARTS}, got {MAX_STARTS + 1}\n"

    @pytest.mark.parametrize("method", ["auto", "closed"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "werner_ghz", "n_qubits": 3, "mu": 0.5},
            {"kind": "pauli_diagonal", "n_qubits": 2, "c1": 0.5, "c2": 0.1, "c3": 0.2},
        ],
    )
    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "3"), ("--starts", "5"), ("--tol", "1e-3"), ("--max-n", "2")],
    )
    def test_closed_route_rejects_optimizer_flags(
        self, tmp_path, capsys, method, doc, flag, value
    ):
        path = write_doc(tmp_path / "doc.json", doc)
        code, out, err = run_cli(
            capsys, "compute", "--input", path, "--method", method, flag, value
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("method", ["numeric", "closed"])
    def test_rejects_negative_seed(self, tmp_path, capsys, method):
        doc = write_doc(tmp_path / "w.json", {"kind": "werner_ghz", "n_qubits": 2, "mu": 0.5})
        code, out, err = run_cli(
            capsys, "compute", "--input", doc, "--method", method, "--seed", "-1"
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "seed" in err

    def test_seed_changes_are_recorded(self, tmp_path, capsys):
        doc = write_doc(tmp_path / "w.json", {"kind": "werner_ghz", "n_qubits": 2, "mu": 0.3})
        code, out, _ = run_cli(
            capsys, "compute", "--input", doc, "--method", "numeric", "--seed", "7"
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["seed"] == 7
        assert record["diagnostics"]["seed"] == 7


class TestFigure1:
    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "fig.csv"
        code, out, err = run_cli(capsys, "figure1", "--out", str(out_path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error: cannot write output file:")
        assert not out_path.parent.exists()

    def test_grid_layout_and_endpoints(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(
            capsys, "figure1", "--n-list", "2,3,inf", "--mu-steps", "11",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mu,n,gqd_bits"
        assert len(lines) == 1 + 3 * 11
        by_n = {}
        for line in lines[1:]:
            mu, n, val = line.split(",")
            by_n.setdefault(n, []).append((float(mu), float(val)))
        assert set(by_n) == {"2", "3", "inf"}
        for series in by_n.values():
            assert series[0] == (0.0, 0.0)
            assert series[-1] == (1.0, 1.0)
            vals = [v for _, v in series]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_output_is_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "figure1", "--mu-steps", "26", "--out", str(path)
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_qubit_count_beyond_float_range_of_2_pow_n(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(
            capsys, "figure1", "--n-list", "2000", "--mu-steps", "3",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert [(float(mu), float(v)) for mu, _, v in rows] == [
            (0.0, 0.0), (0.5, 0.5), (1.0, 1.0)
        ]

    def test_qubit_count_beyond_a_c_long(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code, _, err = run_cli(
            capsys, "figure1", "--n-list", "2,100000000000000000000", "--mu-steps", "3",
            "--out", str(out_path),
        )
        assert code == EXIT_OK and err == ""
        rows = out_path.read_text().splitlines()[4:]
        assert rows == ["0,100000000000000000000,0", "0.5,100000000000000000000,0.5",
                        "1,100000000000000000000,1"]

    def test_rows_are_the_scalar_closed_form(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(
            capsys, "figure1", "--n-list", "2,3,5,17,64,inf", "--mu-steps", "101",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        expected = ["mu,n,gqd_bits"]
        for n in (2, 3, 5, 17, 64, "inf"):
            for mu in np.linspace(0.0, 1.0, 101).tolist():
                value = (gqd_werner_ghz_asymptotic(mu) if n == "inf"
                         else gqd_werner_ghz(WernerGhzParams(n, mu)))
                expected.append(f"{_fmt(mu)},{n},{_fmt(value)}")
        assert out_path.read_text(encoding="utf-8").splitlines() == expected

    def test_rejects_optimizer_flags(self, tmp_path, capsys):
        for flag in ("--seed", "--starts", "--tol", "--max-n"):
            with pytest.raises(SystemExit) as exc:
                main(["figure1", flag, "3", "--out", str(tmp_path / "x.csv")])
            assert exc.value.code == EXIT_INVALID_INPUT, flag
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_tiny_grid(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "figure1", "--mu-steps", "1", "--out", str(tmp_path / "x.csv")
        )
        assert code == EXIT_INVALID_INPUT
        assert "mu-steps" in err

    def test_rejects_grid_above_cap(self, tmp_path, capsys, monkeypatch):
        forbid_grids(monkeypatch)
        code, _, err = run_cli(
            capsys, "figure1", "--mu-steps", str(MAX_GRID_STEPS + 1),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_INVALID_INPUT
        assert err.startswith("error:") and "mu-steps" in err
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_bad_n_list(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "figure1", "--n-list", "2,one", "--out", str(tmp_path / "x.csv")
        )
        assert code == EXIT_INVALID_INPUT
        assert "'one'" in err


class TestDephaseScan:
    def test_freezing_sweep_report(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "dephase-scan", "--n", "2", "--c1", "1.0", "--c2", "-0.6",
            "--c3", "0.6", "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert "predicted transition: p* = 0.4" in out
        assert "p = 0.4" in out
        assert "plateau: p in [0, 0.4" in out
        assert "value 0.278071905113" in out

        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p,c1_p,c2_p,c3_p,gqd_bits,active_branch"
        assert len(lines) == 1 + 101
        branches = {line.split(",")[5] for line in lines[1:]}
        assert branches == {"x_dominant", "z_dominant"}

    def test_readme_example_prints_its_report(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "dephase-scan", "--n", "2", "--c1", "1.0", "--c2", "-0.6",
            "--c3", "0.6", "--out", str(tmp_path / "scan.csv"),
        )
        assert code == EXIT_OK and err == ""
        assert out.splitlines() == [
            "predicted transition: p* = 0.4",
            "detected kinks: p = 0.4",
            "plateau: p in [0, 0.4], value 0.278071905113, spread 1.776e-15",
        ]

    def test_rejects_coefficients_beyond_the_float_squares(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "dephase-scan", "--n", "3", "--c1", "1e200", "--c2", "0",
            "--c3", "0", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_INVALID_INPUT and out == ""
        assert err.startswith("error:") and "d = inf" in err

    def test_smooth_sweep_reports_nothing(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "dephase-scan", "--n", "2", "--c1", "0.5", "--c2", "0.5",
            "--c3", "0.0", "--p-steps", "51", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_OK
        assert "predicted transition: none" in out
        assert "detected kinks: none" in out

    def test_rejects_invalid_coefficients(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "dephase-scan", "--n", "2", "--c1", "0.8", "--c2", "0.2",
            "--c3", "0.3", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_INVALID_INPUT
        assert "lambda" in err

    def test_rejects_optimizer_flags(self, tmp_path, capsys):
        for flag in ("--seed", "--starts", "--tol", "--max-n"):
            with pytest.raises(SystemExit) as exc:
                main([
                    "dephase-scan", "--n", "2", "--c1", "1.0", "--c2", "-0.6",
                    "--c3", "0.6", flag, "3", "--out", str(tmp_path / "x.csv"),
                ])
            assert exc.value.code == EXIT_INVALID_INPUT, flag
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_tiny_grid(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "dephase-scan", "--n", "2", "--c1", "0.5", "--c2", "0.1",
            "--c3", "0.2", "--p-steps", "2", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_INVALID_INPUT
        assert "p-steps" in err

    def test_rejects_grid_above_cap(self, tmp_path, capsys, monkeypatch):
        forbid_grids(monkeypatch)
        code, _, err = run_cli(
            capsys, "dephase-scan", "--n", "2", "--c1", "0.5", "--c2", "0.1",
            "--c3", "0.2", "--p-steps", str(MAX_GRID_STEPS + 1),
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_INVALID_INPUT
        assert err.startswith("error:") and "p-steps" in err
        assert not (tmp_path / "s.csv").exists()


def per_line_csv(header, rows):
    """The CSV writers' reference: one f-string per line, each value ``.12g``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


class TestCsvWritersMatchPerLineFormatting:
    """The chunked writers give the bytes of a per-line ``f"{x:.12g}"`` writer."""

    STEPS = [_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1]

    @pytest.mark.parametrize("steps", STEPS)
    def test_figure1(self, tmp_path, capsys, steps):
        # Repeated entries, a qubit count past float range and the inf line.
        n_list = [2, 3, 2, "inf", 1100, "inf"]
        out_path = tmp_path / "fig.csv"
        code, out, err = run_cli(
            capsys, "figure1", "--n-list", ",".join(map(str, n_list)),
            "--mu-steps", str(steps), "--out", str(out_path),
        )
        assert (code, out, err) == (EXIT_OK, "", "")
        mus = np.linspace(0.0, 1.0, steps)
        rows = []
        for n in n_list:
            values = mus if n == "inf" else _werner_ghz_bits(n, mus)
            rows += [(mu, n, v) for mu, v in zip(mus.tolist(), values.tolist())]
        assert out_path.read_bytes() == per_line_csv("mu,n,gqd_bits", rows).encode()

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize(
        "n, c",
        [
            # Rounding dust on the zero curve; c1 * (1 - 1) = -0.
            (2, (-0.6, 0.0, 0.0)),
            # c3 = -0 in every row.
            (4, (0.5, -0.3, -0.0)),
            (2, (1.0, -0.6, 0.6)),
            (5, (0.2, -0.7, 0.3)),
        ],
    )
    def test_dephase_scan(self, tmp_path, capsys, steps, n, c):
        out_path = tmp_path / "scan.csv"
        code, _, err = run_cli(
            capsys, "dephase-scan", "--n", str(n), "--c1", repr(c[0]), "--c2", repr(c[1]),
            "--c3", repr(c[2]), "--p-steps", str(steps), "--out", str(out_path),
        )
        assert (code, err) == (EXIT_OK, "")
        records, _ = scan_gqd_vs_p(
            PauliDiagonalParams(n, *c), np.linspace(0.0, 1.0, steps)
        )
        rows = [(r.p, r.c1_p, r.c2_p, r.c3_p, r.gqd, r.active_branch) for r in records]
        expected = per_line_csv("p,c1_p,c2_p,c3_p,gqd_bits,active_branch", rows)
        assert out_path.read_bytes() == expected.encode()

    def test_template_formats_edge_values_as_the_f_string(self):
        edge = [1e-17, 5.78442615864e-17, -1e-17, 2.220446049250313e-16, -0.0, 0.0,
                math.inf, -math.inf, math.nan, 0.1 + 0.2, 1e300, 5e-324, 123456789012.5]
        values = np.resize(np.array(edge), _CSV_CHUNK + 1)
        labels = np.resize(np.array(["x_dominant", "z_dominant"], dtype=object), values.size)
        text = "".join(_csv_chunks("%.12g,%s\n", values, labels))
        expected = per_line_csv("h", zip(values.tolist(), labels.tolist()))
        assert "h\n" + text == expected
        assert "\n-0,x_dominant\n" in text and "\n1e-17," in text and "\ninf," in text


class TestGridEdgesLeaveStderrEmpty:
    """Zero weights at the grid edges must not reach log2 or a division."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("figure1", "--n-list", "2,3,5,1100,inf", "--mu-steps", "11"),
            ("dephase-scan", "--n", "2", "--c1", "1", "--c2", "0", "--c3", "0"),
            ("dephase-scan", "--n", "3", "--c1", "1", "--c2", "0", "--c3", "0"),
            ("dephase-scan", "--n", "4", "--c1", "0", "--c2", "-1", "--c3", "0"),
            ("dephase-scan", "--n", "2", "--c1", "1.0", "--c2", "-0.6", "--c3", "0.6"),
            ("dephase-scan", "--n", "5", "--c1", "0.6", "--c2", "0", "--c3", "0.8"),
        ],
    )
    def test_no_warning(self, tmp_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_OK
        assert err == "" and [str(w.message) for w in caught] == []


class TestVerify:
    def test_lemma_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "lemmas", "--trials", "20")
        assert code == EXIT_OK
        assert "[PASS]" in out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_rejects_optimizer_flags(self, capsys):
        for flag in ("--starts", "--tol", "--max-n"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--scope", "lemmas", "--trials", "1", flag, "3"])
            assert exc.value.code == EXIT_INVALID_INPUT, flag
        assert capsys.readouterr().out == ""

    def test_rejects_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scope", "lemmas", "--seed", "-1")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("trials", [0, MAX_TRIALS + 1, 10**30])
    def test_rejects_trials_outside_the_cap_before_any_check(
        self, capsys, monkeypatch, trials
    ):
        from gqd import checks

        def forbidden(*args):
            raise AssertionError("a check ran before --trials was checked")

        for name in dir(checks):
            if name.startswith("check_"):
                monkeypatch.setattr(checks, name, forbidden)
        code, out, err = run_cli(capsys, "verify", "--trials", str(trials))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == f"error: trials must lie in [1, {MAX_TRIALS}], got {trials}\n"

    def test_failing_check_exits_1_and_names_it(self, capsys, monkeypatch):
        from gqd import checks

        def failing(seed, trials):
            return CheckResult("pinch-trace-identity", "lemmas", False, 0.5, 1e-9, "forced")

        monkeypatch.setattr(checks, "check_pinch_trace", failing)
        code, out, err = run_cli(capsys, "verify", "--scope", "lemmas", "--trials", "1")
        assert code == EXIT_VERIFY_FAILED
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == f"[FAIL] {'pinch-trace-identity':<28s} margin 0.5  tol 1e-09  (forced)"
        assert lines[1:-2] and all(line.startswith("[PASS]") for line in lines[1:-2])
        assert lines[-2:] == ["3/4 checks passed", "first failing check: pinch-trace-identity"]

    @pytest.fixture
    def no_check_runs(self, monkeypatch):
        from gqd import checks

        def forbidden(*args):
            raise AssertionError("a check ran before the arguments were checked")

        for name in dir(checks):
            if name.startswith("check_"):
                monkeypatch.setattr(checks, name, forbidden)

    def test_run_checks_rejects_an_unknown_scope_before_any_check(self, no_check_runs):
        with pytest.raises(ValueError, match=r"scope must be one of .*, got 'everything'"):
            run_checks(scope="everything")

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("trials", 2.0), ("trials", True),
    ])
    def test_run_checks_rejects_a_non_int_before_any_check(self, no_check_runs, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            run_checks("lemmas", **{name: value})

    def test_every_check_has_a_declared_benchmark_metric(self):
        # The traced benchmark times each check_* function as
        # checks.<name>_s and exits with an error on a metric it does not
        # declare, so a new check function needs a benchmark change too.
        from gqd import checks

        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        declared = {
            m["name"] for m in spec["per_layer"]
            if m["name"].startswith("checks.") and m["name"].endswith("_s")
        }
        timed = {f"checks.{n[len('check_'):]}_s" for n in dir(checks) if n.startswith("check_")}
        assert declared and timed == declared

    def test_theorem_scope_passes(self, capsys):
        # reduced trial count: the full default is exercised manually, this
        # keeps the agreement checks (optimizer vs closed forms) in the loop
        code, out, _ = run_cli(capsys, "verify", "--scope", "theorems", "--trials", "40")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "objective-two-routes" in out
        assert "werner-ghz-closed-form" in out
        assert "mixed-marginal-shortcut" in out


class TestParserCache:
    """``main`` parses with one parser per process; ``build_parser`` still
    builds a new one."""

    @staticmethod
    def run_sequence(capsys, tmp_path) -> list:
        tmp_path.mkdir()
        rng = np.random.default_rng(5)
        dense = write_doc(tmp_path / "dense.json", {
            "kind": "dense", "n_qubits": 2,
            "matrix": [[[v.real, v.imag] for v in row]
                       for row in random_density_matrix(2, rng).matrix.tolist()],
        })
        family = write_doc(tmp_path / "w.json", {"kind": "werner_ghz", "n_qubits": 3, "mu": 0.4})
        csv = tmp_path / "out.csv"
        argvs = [
            ["compute", "--input", dense, "--starts", "2", "--seed", "3"],
            ["compute", "--input", family, "--starts", "2"],  # exit 2: numeric flag
            ["compute"],  # argparse: --input missing
            ["dephase-scan", "--n", "3", "--c1", "0.5", "--c2", "-0.3", "--c3", "0.2",
             "--p-steps", "11", "--out", str(csv)],
            ["figure1", "--bogus", "--out", str(csv)],  # argparse: unknown flag
            ["figure1", "--n-list", "2,inf", "--mu-steps", "5", "--out", str(csv)],
            ["compute", "--input", family, "--method", "closed"],
            ["verify", "--scope", "lemmas", "--trials", "2", "--seed", "4"],
        ]
        runs = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            if argv[0] == "compute" and code == EXIT_OK:
                out = json.loads(out)
                out.pop("wall_time_s")
            runs.append((code, out, csv.read_text(encoding="utf-8") if csv.exists() else None))
        return runs

    def test_successive_calls_match_a_fresh_parser_per_call(
        self, capsys, tmp_path, monkeypatch
    ):
        from gqd import cli

        cached = self.run_sequence(capsys, tmp_path / "cached")
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.run_sequence(capsys, tmp_path / "fresh")
        assert [run[0] for run in cached] == [0, 2, 2, 0, 2, 0, 0, 0]
        assert cached == fresh


class TestEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        # Build the wrapper an installer would generate from the declared
        # console script, so the test runs this checkout without an install.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: tomllib is stdlib from 3.11
            tomllib = pytest.importorskip("tomli")
        with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "gqd" in scripts, "pyproject.toml should declare the gqd console script"
        ep = EntryPoint(name="gqd", value=scripts["gqd"], group="console_scripts")

        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "gqd"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            f"sys.exit({ep.attr}())\n",
            encoding="utf-8",
        )
        script.chmod(0o755)

        env = dict(os.environ)
        package_root = str(Path(gqd.__file__).resolve().parents[1])
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

        exe = shutil.which("gqd", path=env["PATH"])
        assert exe == str(script), "the built console script should come first on PATH"
        out_path = tmp_path / "fig.csv"
        proc = subprocess.run(
            [exe, "figure1", "--n-list", "2", "--mu-steps", "3", "--out", str(out_path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0
        assert out_path.read_text(encoding="utf-8").startswith("mu,n,gqd_bits")


class TestImportFootprint:
    def test_import_loads_no_scipy(self):
        # The package and its CLI run on NumPy alone; SciPy is only a test
        # reference. Checked in a fresh interpreter, whose module table holds
        # only what the imports pull in.
        env = dict(os.environ)
        package_root = str(Path(gqd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        code = (
            "import sys, gqd, gqd.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_scipy_is_not_a_runtime_dependency(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: tomllib is stdlib from 3.11
            tomllib = pytest.importorskip("tomli")
        with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
            project = tomllib.load(fh)["project"]
        names = [d.split(">")[0].split("=")[0].strip() for d in project["dependencies"]]
        assert "numpy" in names and "scipy" not in names
