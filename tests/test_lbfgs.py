"""Tests for the stacked L-BFGS minimizer."""

import numpy as np
import pytest

from gqd import lbfgs
from gqd.lbfgs import minimize_stacked

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
