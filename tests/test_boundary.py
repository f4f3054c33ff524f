"""Property tests of the package boundary: state documents, optimizer
options and command lines.

Every generated input must end one of two ways: exit 0 with finite
numbers, or exit 2 (invalid input) or 3 (qubit limit) with an ``error:``
line on stderr and nothing on stdout. A traceback fails the test. Sizes
stay small so that each test takes seconds: dense solves at N <= 3, at most
8 explicit starts, at most 2 threads, grids of at most 50 points. The
examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gqd.cli import EXIT_INVALID_INPUT, EXIT_OK, EXIT_QUBIT_LIMIT, main
from gqd.discord import (
    InvalidParamsError,
    OptimizerOptions,
    QubitLimitError,
    WernerGhzParams,
    gqd_numeric,
    werner_ghz_state,
)
from gqd.qcore import random_density_matrix

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# Values that no document field may hold. HUGE lies beyond the float
# range, so float() of it overflows.
HUGE = 10**400
junk = st.sampled_from([HUGE, True, {"a": 1}, "x", None, math.nan, -1])
nested = st.recursive(
    st.one_of(st.floats(), junk), lambda inner: st.lists(inner, max_size=4), max_leaves=16
)
# Command-line values that are not what the flag expects. No huge integer:
# a flag such as --starts would then ask for that much work.
junk_tokens = st.sampled_from(["", "x", "nan", "inf", "-inf", "2.5", "true", "1e400"])
# Values of the wrong type for an optimizer option.
option_junk = st.sampled_from([None, "a", 2.5, 1.0, True, False, math.nan, [3]])


def ints(low: int, high: int):
    return st.integers(low, high).map(str)


def mostly(valid, bad):
    """``bad`` once in ten draws, else ``valid``, so that most inputs get
    past the first check. The bad draw is a middle value, which Hypothesis
    does not favour as it does the ends of a range."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 5 else valid)


def grid(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


@st.composite
def documents(draw):
    """A valid state document of each kind at N = 2 or 3."""
    kind = draw(st.sampled_from(["dense", "werner_ghz", "pauli_diagonal"]))
    n = draw(st.integers(2, 3))
    doc = {"kind": kind, "n_qubits": n}
    if kind == "dense":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        doc["matrix"] = grid(random_density_matrix(n, rng).matrix)
    elif kind == "werner_ghz":
        doc["mu"] = draw(st.floats(0.0, 1.0))
    else:
        # |c1| + |c2| + |c3| <= 0.9 keeps the state positive at every N.
        for key in ("c1", "c2", "c3"):
            doc[key] = draw(st.floats(-0.3, 0.3))
    return doc


@st.composite
def broken_documents(draw):
    """A valid document with one part broken: a field replaced by junk or
    nested lists, a field left out, one matrix entry replaced by junk, or
    the whole document replaced by junk."""
    doc = draw(documents())
    key = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["junk", "junk", "nested", "missing", "document"]))
    if how == "document":
        return draw(st.one_of(junk, nested))
    if how == "missing":
        del doc[key]
    elif key == "matrix" and how == "junk":
        rows = doc["matrix"]
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i][j][draw(st.integers(0, 1))] = draw(junk)
    else:
        doc[key] = draw(junk if how == "junk" else nested)
    return doc


def run_main(argv):
    """Exit code, stdout and stderr of ``main``; argparse's exit counts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_QUBIT_LIMIT), (code, err)
    if code != EXIT_OK:
        assert out == ""
        assert "error:" in err


def assert_finite(values):
    for v in values:
        assert isinstance(v, (int, float)) and math.isfinite(v), values


def optional(flag: str, values):
    """``[flag=value]`` or nothing. The ``=`` form keeps argparse from
    reading a value such as ``-1e-05`` as a flag."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def read_csv(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


def assert_compute_output(code, out, err):
    assert_clean_exit(code, out, err)
    if code == EXIT_OK:
        record = json.loads(out)
        assert_finite([record["value"]])
        for direction in record["optimal_measurement"] or []:
            assert_finite(direction)
        diag = record["diagnostics"] or {}
        assert_finite([v for v in diag.values() if not isinstance(v, bool)])
        if diag:
            # Evidence for the minimum, I/2^N included.
            assert (
                1 <= diag["starts_agreeing"] <= diag["starts_finished"]
                <= diag["starts"] <= diag["evaluations"]
            )


@settings(SETTINGS, max_examples=300)
@given(doc=broken_documents())
def test_compute_on_broken_documents(workdir, doc):
    path = workdir / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_compute_output(*run_main(["compute", "--input", str(path)]))


@SETTINGS
@given(
    doc=documents().filter(lambda doc: doc["kind"] == "dense"),
    pick=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 1)),
    entry=st.sampled_from([True, False, "0.5", "0", "1e-3"]),
)
def test_compute_rejects_dense_entries_that_are_not_numbers(workdir, doc, pick, entry):
    # float() would read each of these entries as a number.
    rows = doc["matrix"]
    i, j, part = pick[0] % len(rows), pick[1] % len(rows), pick[2]
    rows[i][j][part] = entry
    path = workdir / "entry.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_main(["compute", "--input", str(path)])
    assert code == EXIT_INVALID_INPUT, err
    assert out == ""
    assert "error:" in err and "JSON numbers" in err


@SETTINGS
@given(
    doc=documents(),
    flags=st.tuples(
        optional("--method", mostly(st.sampled_from(["auto", "numeric", "closed"]), junk_tokens)),
        optional("--seed", mostly(ints(0, 2**70), st.one_of(ints(-2, -1), junk_tokens))),
        optional("--starts", mostly(ints(1, 8), st.one_of(ints(-1, 0), junk_tokens))),
        optional(
            "--tol",
            mostly(st.floats(0, 1e-3).map(repr), st.one_of(st.floats().map(repr), junk_tokens)),
        ),
        optional("--max-n", mostly(ints(2, 3), st.one_of(ints(-1, 1), junk_tokens))),
    ),
)
@example(
    doc={"kind": "werner_ghz", "n_qubits": 3, "mu": 0.0},
    flags=(["--method=numeric"], [], [], [], []),
)
@example(
    doc={"kind": "pauli_diagonal", "n_qubits": 2, "c1": 0.0, "c2": 0.0, "c3": 0.0},
    flags=(["--method=numeric"], [], ["--starts=5"], [], []),
)
def test_compute_on_any_flags(workdir, doc, flags):
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_compute_output(*run_main(["compute", "--input", str(path), *sum(flags, [])]))


@SETTINGS
@given(
    n_list=st.lists(
        mostly(
            st.one_of(ints(2, 2000), st.sampled_from(["inf", str(HUGE)])),
            st.one_of(ints(-1, 1), junk_tokens),
        ),
        max_size=4,
    ).map(",".join),
    steps=mostly(ints(2, 50), st.one_of(ints(-1, 1), junk_tokens)),
)
def test_figure1_on_any_arguments(workdir, n_list, steps):
    path = workdir / "figure1.csv"
    path.unlink(missing_ok=True)
    code, out, err = run_main(
        ["figure1", f"--n-list={n_list}", f"--mu-steps={steps}", "--out", str(path)]
    )
    assert_clean_exit(code, out, err)
    if code == EXIT_OK:
        for mu, _, value in read_csv(path):
            assert_finite([float(mu), float(value)])


@SETTINGS
@given(
    n=mostly(st.one_of(ints(2, 6), st.just(str(HUGE))), st.one_of(ints(-1, 1), junk_tokens)),
    coefficients=st.lists(
        mostly(st.floats(-1.0, 1.0).map(repr), st.one_of(st.floats().map(repr), junk_tokens)),
        min_size=3,
        max_size=3,
    ),
    steps=mostly(ints(3, 50), st.one_of(ints(-1, 2), junk_tokens)),
)
def test_dephase_scan_on_any_arguments(workdir, n, coefficients, steps):
    path = workdir / "scan.csv"
    path.unlink(missing_ok=True)
    c1, c2, c3 = coefficients
    code, out, err = run_main(
        ["dephase-scan", f"--n={n}", f"--c1={c1}", f"--c2={c2}", f"--c3={c3}",
         f"--p-steps={steps}", "--out", str(path)]
    )
    assert_clean_exit(code, out, err)
    if code == EXIT_OK:
        for row in read_csv(path):
            assert_finite([float(v) for v in row[:-1]])
        assert out.startswith("predicted transition:")


@SETTINGS
@given(
    kwargs=st.fixed_dictionaries(
        {},
        optional={
            "seed": mostly(st.integers(0, 2**70), st.one_of(st.integers(-2, -1), option_junk)),
            "starts": mostly(st.integers(1, 8), st.one_of(st.integers(-1, 0), option_junk)),
            "max_evals_per_start": mostly(
                st.integers(1, 50), st.one_of(st.integers(-1, 0), option_junk)
            ),
            "f_tol": mostly(st.floats(0, 1e-2), st.one_of(st.floats(), option_junk)),
            "max_qubits": mostly(st.integers(2, 12), st.one_of(st.integers(-1, 1), option_junk)),
            "threads": mostly(st.integers(1, 2), st.one_of(st.integers(-1, 0), option_junk)),
        },
    )
)
def test_optimizer_options_are_valid_or_rejected(kwargs):
    try:
        opts = OptimizerOptions(**kwargs)
    except InvalidParamsError:
        return
    try:
        res = gqd_numeric(werner_ghz_state(WernerGhzParams(2, 0.5)), opts)
    except QubitLimitError:
        assert opts.max_qubits < 2
        return
    assert_finite([res.value, res.diagnostics.raw_value, res.diagnostics.grad_norm])
