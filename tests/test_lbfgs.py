"""Tests for the stacked L-BFGS minimizer."""

import itertools
import math

import numpy as np
import pytest

from gqd import lbfgs
from gqd.lbfgs import minimize_stacked
from gqd.measurement import _entropy_objective, _pauli_coefficients
from gqd.qcore import random_density_matrix

STARTS = np.array([
    [-1.2, 1.0, 0.3],
    [0.0, 0.0, 0.0],
    [2.0, -1.0, 0.5],
    [1.5, 1.5, 1.5],
    [-0.7, 0.2, 2.1],
])


def rosenbrock(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Rosenbrock function and gradient, one point per row."""
    a, b = x[:, :-1], x[:, 1:]
    value = (100.0 * (b - a**2) ** 2 + (1.0 - a) ** 2).sum(axis=1)
    grad = np.zeros_like(x)
    grad[:, :-1] = -400.0 * a * (b - a**2) - 2.0 * (1.0 - a)
    grad[:, 1:] += 200.0 * (b - a**2)
    return value, grad


def minimize(x0, max_evals=2000, f_tol=1e-10, g_tol=1e-7):
    return minimize_stacked(rosenbrock, x0, max_evals, f_tol, g_tol)


class TestStackedLbfgs:
    def test_reaches_the_minimum_from_every_start(self):
        res = minimize(STARTS)
        assert res.converged.all()
        assert np.max(np.abs(res.x - 1.0)) <= 1e-6
        assert np.all(res.fun <= 1e-12)
        assert np.all(res.nfev >= res.nit + 1)

    def test_rows_do_not_depend_on_their_stack(self):
        stacked = minimize(STARTS)
        for k, x0 in enumerate(STARTS):
            alone = minimize(x0[None])
            for field in ("x", "fun", "jac", "nit", "nfev", "converged"):
                assert np.array_equal(getattr(alone, field)[0], getattr(stacked, field)[k])

    def test_fun_may_return_a_reused_gradient_buffer(self):
        # The rows copy what fun returns, so a fun that writes every
        # gradient into one buffer per stack size runs as one that
        # returns new arrays.
        buffers = {}

        def reusing(x):
            value, grad = rosenbrock(x)
            buffer = buffers.setdefault(grad.shape, np.empty(grad.shape))
            buffer[...] = grad
            return value, buffer

        fresh, reused = minimize(STARTS), minimize_stacked(reusing, STARTS, 2000, 1e-10, 1e-7)
        for field in ("x", "fun", "jac", "nit", "nfev", "converged"):
            assert np.array_equal(getattr(reused, field), getattr(fresh, field))

    def test_infinite_gradient_entry_makes_a_nan_direction(self):
        # Row 0's gradient has an infinite entry at its start. Every product
        # with its memory, empty slots included, reads 0 * inf = NaN, so its
        # direction and then its point are NaN; it stops unconverged after
        # one step, as it does alone. The other rows are not touched.
        def spiked(x):
            grad = x.copy()
            grad[np.abs(x[:, 0]) > 2.5, 1] = np.inf
            return 0.5 * (x * x).sum(axis=1), grad

        x0 = np.array([[3.0, 1.0, 0.5], [1.0, -2.0, 0.3], [-2.0, 1.0, 1.0]])
        with np.errstate(invalid="ignore"):
            res = minimize_stacked(spiked, x0, 100, 1e-10, 1e-7)
            alone = [minimize_stacked(spiked, row[None], 100, 1e-10, 1e-7) for row in x0]
        assert res.nfev.tolist() == [3, 3, 3] and res.nit.tolist() == [1, 2, 2]
        assert res.converged.tolist() == [False, True, True]
        assert np.isnan(res.x[0]).all() and np.isnan(res.fun[0])
        for k, row in enumerate(alone):
            for field in ("x", "fun", "jac", "nit", "nfev", "converged"):
                assert np.array_equal(getattr(row, field)[0], getattr(res, field)[k], equal_nan=True)

    def test_stationary_start_stops_before_any_step(self):
        res = minimize(np.ones((2, 3)))
        assert res.converged.all()
        assert res.nit.tolist() == [0, 0] and res.nfev.tolist() == [1, 1]

    def test_evaluation_cap_is_checked_when_an_iteration_ends(self):
        res = minimize(STARTS, max_evals=10)
        assert not res.converged.any()
        assert np.all(res.nfev > 10)
        # Each iteration adds at most one line search of 20 trials.
        assert np.all(res.nfev <= 10 + 20)

    def test_failed_search_without_memory_gives_up_at_the_start(self, monkeypatch):
        # With one trial per search, the first step from the origin fails
        # before any pair is in memory: the row stops there, unconverged.
        monkeypatch.setattr(lbfgs, "_MAX_TRIALS", 1)
        res = minimize(STARTS)
        assert not res.converged[1]
        assert res.nit[1] == 0 and res.nfev[1] == 2
        assert np.array_equal(res.x[1], STARTS[1])
        assert res.fun[1] == rosenbrock(STARTS[1:2])[0][0]

    def test_uphill_direction_forgets_the_memory(self, monkeypatch):
        # Only rounding makes the quasi-Newton direction of a row with pairs
        # in memory point uphill, so _descent is made to return +g once, for
        # row 0. As in L-BFGS-B, the row then forgets its memory and steps
        # along -g; every other row runs as if nothing happened.
        reference = minimize(STARTS)
        descent, start_search = lbfgs._Runs._descent, lbfgs._Runs.start_search
        forced = {}

        def uphill_descent(runs, g):
            d = descent(runs, g)
            if "row" in forced and "g" not in forced:
                k = forced["row"]
                d[k], forced["g"] = g[k], g[k].copy()
            return d

        def checked_start_search(runs, start):
            k = np.flatnonzero(start & (runs.rows == 0) & (runs.col > 0))
            if "row" in forced or not k.size:
                return start_search(runs, start)
            forced["row"] = k = int(k[0])
            stuck = start_search(runs, start)
            assert runs.col[k] == 0 and runs.h0[k] == 1.0
            for mem in (runs.pairs, runs.sy_mem, runs.yy_mem, runs.r_inv):
                assert not mem[k].any()
            assert np.array_equal(runs.d[k], -forced["g"]) and not stuck[k]
            return stuck

        monkeypatch.setattr(lbfgs._Runs, "_descent", uphill_descent)
        monkeypatch.setattr(lbfgs._Runs, "start_search", checked_start_search)
        res = minimize(STARTS)
        assert "g" in forced
        assert res.converged[0] and np.max(np.abs(res.x[0] - 1.0)) <= 1e-6
        for field in ("x", "fun", "jac", "nit", "nfev", "converged"):
            assert np.array_equal(getattr(res, field)[1:], getattr(reference, field)[1:]), field

    @pytest.mark.parametrize("max_trials,max_evals", [(1, 2000), (2, 2000), (20, 2000), (20, 10)])
    def test_matches_scipy_lbfgsb(self, monkeypatch, max_trials, max_evals):
        # SciPy's L-BFGS-B as a test-only reference, including its abandoned
        # searches and memory restarts when the trial budget is small, and
        # its evaluation cap.
        optimize = pytest.importorskip("scipy.optimize")
        monkeypatch.setattr(lbfgs, "_MAX_TRIALS", max_trials)
        res = minimize(STARTS, max_evals=max_evals)
        for k, x0 in enumerate(STARTS):
            ref = optimize.minimize(
                lambda x: tuple(a[0] for a in rosenbrock(x[None])), x0, jac=True,
                method="L-BFGS-B",
                options={"maxfun": max_evals, "ftol": 1e-10, "gtol": 1e-7, "maxls": max_trials},
            )
            assert res.converged[k] == ref.success, k
            assert abs(res.nfev[k] - ref.nfev) <= 0.1 * ref.nfev, k
            assert abs(res.nit[k] - ref.nit) <= 0.1 * ref.nit + 1, k
            if ref.success:
                assert np.max(np.abs(res.x[k] - ref.x)) <= 1e-6, k

    def test_enough_ends_the_stack_where_it_stands(self):
        reference = minimize(STARTS)
        calls = []

        def at_once(done, running):
            calls.append((done.copy(), running.copy()))
            return True

        res = minimize_stacked(rosenbrock, STARTS, 2000, 1e-10, 1e-7, at_once)
        cut = ~res.finished
        assert len(calls) == 1 and cut.any() and not cut.all()
        # Every row that stopped before the cut converged on Rosenbrock.
        done, running = calls[0]
        assert np.array_equal(done, res.fun[res.converged])
        assert np.array_equal(running, res.fun[cut])
        assert not res.converged[cut].any() and np.all(res.nfev[cut] > 1)
        fun, jac = rosenbrock(res.x[cut])
        assert np.array_equal(res.fun[cut], fun) and np.array_equal(res.jac[cut], jac)
        for field in ("x", "fun", "jac", "nit", "nfev", "converged"):
            assert np.array_equal(getattr(res, field)[~cut], getattr(reference, field)[~cut]), field

    def test_enough_that_never_holds_changes_nothing(self):
        reference = minimize(STARTS)
        res = minimize_stacked(rosenbrock, STARTS, 2000, 1e-10, 1e-7, lambda done, running: False)
        for field in ("x", "fun", "jac", "nit", "nfev", "converged", "finished"):
            assert np.array_equal(getattr(res, field), getattr(reference, field)), field


def dcstep_inputs(rng):
    """Seeded dcstep arguments: its four cases, bracketed and not, with the
    trial step on either side of the best step."""
    for case in (1, 2, 3, 4):
        for brackt in (False, True):
            for sign in (1.0, -1.0):
                for _ in range(2):
                    stx = rng.uniform(0.5, 1.0)
                    stp = stx + sign * rng.uniform(0.1, 0.4)
                    # The slope at stx points downhill towards stp.
                    fx, dx = rng.uniform(-1.0, 1.0), -sign * rng.uniform(0.1, 2.0)
                    if case == 1:  # a higher value
                        fp, dp = fx + rng.uniform(0.1, 1.0), rng.uniform(-2.0, 2.0)
                    else:  # opposite slopes, a shrinking slope, a growing slope
                        fp = fx - rng.uniform(0.0, 0.1)
                        scale = {2: -rng.uniform(0.1, 2.0), 3: rng.uniform(0.1, 0.9), 4: rng.uniform(1.1, 3.0)}
                        dp = dx * scale[case]
                    sty = stp + sign * rng.uniform(0.1, 0.4)
                    fy, dy = fx + rng.uniform(0.0, 1.0), sign * rng.uniform(0.1, 2.0)
                    if brackt:
                        stpmin, stpmax = min(stx, sty), max(stx, sty)
                    else:
                        stpmin, stpmax = sorted((stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)))
                    floats = map(np.float64, (stx, fx, dx, sty, fy, dy, stp, fp, dp))
                    yield case, (*floats, brackt, np.float64(stpmin), np.float64(stpmax))


def hex_floats(values):
    return [float(v).hex() for v in values]


class TestScipyDcstep:
    def test_scalar_dcstep_matches_scipy_bit_for_bit(self):
        dcsrch = pytest.importorskip("scipy.optimize._dcsrch")
        cases = set()
        for case, args in dcstep_inputs(np.random.default_rng(2024)):
            got, ref = lbfgs._dcstep(*args), dcsrch.dcstep(*args)
            assert np.isfinite(got[:7]).all(), args
            assert hex_floats(got[:7]) == hex_floats(ref[:7]), args
            assert bool(got[7]) == bool(ref[7]), args
            cases.add((case, args[9], args[6] > args[0]))
        assert len(cases) == 16


class TestDiv:
    def test_divides_as_ieee_754(self):
        # dcsrch runs on Python floats, whose division by zero raises; _div
        # gives what NumPy's float64 division gives, NaN up to its sign.
        values = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan, 1e308, 5e-324]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for a, b in itertools.product(values, repeat=2):
                got, want = lbfgs._div(a, b), float(np.float64(a) / np.float64(b))
                assert type(got) is float
                assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (a, b)


# Per-start results of default solves (seed 9, on a Ginibre state drawn with
# seed 9): (nfev, nit, fun as float.hex). Every start converged. nfev and nit
# are pinned at commit 52e938c, before the line search ran per row. fun was
# re-pinned when the measured distribution moved to the Pauli-basis kernel,
# whose rounding moved each value by at most 1.4e-15 and left nfev and nit
# unchanged.
PINNED_SOLVES = {
    2: (
        [16, 12, 20, 14, 14, 14, 20, 15, 13, 13, 22, 12, 18, 10, 18, 15],
        [13, 11, 15, 11, 13, 12, 16, 12, 10, 11, 16, 10, 15, 9, 17, 12],
        ["-0x1.32e26c19d5690p-1", "-0x1.32e26c19d52fcp-1", "-0x1.32e26c19d525cp-1",
         "-0x1.32e26c19d569cp-1", "-0x1.32e26c19d56e4p-1", "-0x1.32e26c19d54d2p-1",
         "-0x1.32e26c19d2926p-1", "-0x1.32e26c19d542ep-1", "-0x1.32e26c19d5620p-1",
         "-0x1.32e26c19d568cp-1", "-0x1.32e26c19d5488p-1", "-0x1.32e26c19d5660p-1",
         "-0x1.32e26c19d5604p-1", "-0x1.32e26c19d56cep-1", "-0x1.32e26c19d553ap-1",
         "-0x1.32e26c19d4ddcp-1"],
    ),
    3: (
        [34, 22, 21, 16, 29, 28, 19, 16, 21, 33, 20, 25, 15, 11, 25, 27, 19, 16, 13, 20, 19, 20, 19, 18],
        [23, 20, 19, 14, 24, 24, 17, 13, 19, 27, 19, 22, 14, 10, 21, 22, 16, 13, 12, 18, 17, 16, 18, 17],
        ["-0x1.21f8df9498e18p-2", "-0x1.21f8df949d048p-2", "-0x1.21f8df9496ac0p-2",
         "-0x1.21f8df949dba0p-2", "-0x1.c161f37024d50p-3", "-0x1.c161f37024ab0p-3",
         "-0x1.c161f37024b90p-3", "-0x1.21f8df949b418p-2", "-0x1.c161f37024e70p-3",
         "-0x1.21f8df949cd40p-2", "-0x1.21f8df949cba0p-2", "-0x1.c161f37024c00p-3",
         "-0x1.c161f36ffd8f0p-3", "-0x1.21f8df93f35c0p-2", "-0x1.21f8df949d4b0p-2",
         "-0x1.21f8df949d6a8p-2", "-0x1.21f8df949b920p-2", "-0x1.21f8df949daa8p-2",
         "-0x1.c161f37024bf0p-3", "-0x1.21f8df948e5b8p-2", "-0x1.c161f36ecc560p-3",
         "-0x1.21f8df949d658p-2", "-0x1.21f8df9422040p-2", "-0x1.21f8df949bba0p-2"],
    ),
}

# A weighted quadratic that is infinite outside the ball |x| <= 2, from
# starts inside it, with its per-row result pinned at the same commit.
WALL_TARGET, WALL_WEIGHTS = np.array([1.5, -1.0, 0.5]), np.array([1.0, 4.0, 9.0])
WALL_STARTS = np.array([
    [1.2, -0.6, 0.3],
    [1.0, -1.2, 0.7],
    [0.9, -0.5, 0.5],
    [1.6, -0.8, 0.4],
    [0.5, -1.0, 0.0],
])
PINNED_WALL = {
    "nfev": [3, 10, 8, 3, 8],
    "nit": [1, 8, 7, 1, 7],
    "fun": ["0x1.170a3d70a3d72p+0", "0x1.ce1422729661bp-52", "0x1.27a403fe70dd0p-54",
            "0x1.0a3d70a3d70a2p-2", "0x1.fb11fac65e73ep-47"],
    "x": [
        ["0x1.3333333333333p+0", "-0x1.3333333333333p-1", "0x1.3333333333333p-2"],
        ["0x1.7fffffcc33d81p+0", "-0x1.ffffffbd09abdp-1", "0x1.0000000a079c6p-1"],
        ["0x1.7fffffdda5244p+0", "-0x1.00000000c23a5p+0", "0x1.0000000000000p-1"],
        ["0x1.999999999999ap+0", "-0x1.999999999999ap-1", "0x1.999999999999ap-2"],
        ["0x1.800001facaee6p+0", "-0x1.0000000000000p+0", "0x1.ffffffb9af56cp-2"],
    ],
}


def pinned_starts(n: int, seed: int) -> np.ndarray:
    """``8 n`` starts: z, x and y on every qubit, then seeded uniform
    directions on the sphere, one (z, phi) pair per qubit.

    A fixed copy of the package's start list as it was when the pins below
    were taken, so that a change to that list leaves their input alone.
    """
    points = [np.tile(axis, n) for axis in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])]
    rng = np.random.default_rng(seed)
    while len(points) < 8 * n:
        z = rng.uniform(-1.0, 1.0, size=n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        s = np.sqrt(1.0 - z * z)
        points.append(np.column_stack([s * np.cos(phi), s * np.sin(phi), z]).ravel())
    return np.array(points)


class TestPinnedResults:
    """Per-start results pinned bit for bit, so that any change to the
    iteration's arithmetic or its operation order fails here."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_default_solve(self, n):
        rho = random_density_matrix(n, np.random.default_rng(9))
        res = minimize_stacked(
            _entropy_objective(_pauli_coefficients(rho.matrix).real), pinned_starts(n, 9),
            2000, 1e-10, 1e-7,
        )
        nfev, nit, fun = PINNED_SOLVES[n]
        assert res.nfev.tolist() == nfev
        assert res.nit.tolist() == nit
        assert res.converged.all()
        assert hex_floats(res.fun) == fun

    def test_infinite_value_at_the_first_trial(self):
        calls = []

        def walled(x):
            r = x - WALL_TARGET
            value = np.where(np.sqrt((x * x).sum(axis=1)) > 2.0, np.inf, (WALL_WEIGHTS * r * r).sum(axis=1))
            calls.append(np.isinf(value).tolist())
            return value, 2.0 * WALL_WEIGHTS * r

        res = minimize_stacked(walled, WALL_STARTS, 2000, 1e-10, 1e-7)
        # The first trial steps of rows 0 and 3 leave the ball. Their
        # searches fall back to step 0, and they stop, unconverged, where
        # they started.
        assert calls[1] == [True, False, False, True, False]
        assert res.nfev.tolist() == PINNED_WALL["nfev"]
        assert res.nit.tolist() == PINNED_WALL["nit"]
        assert res.converged.tolist() == [False, True, True, False, True]
        assert hex_floats(res.fun) == PINNED_WALL["fun"]
        assert [hex_floats(row) for row in res.x] == PINNED_WALL["x"]
