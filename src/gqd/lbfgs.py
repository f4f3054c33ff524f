"""Stacked L-BFGS: independent unconstrained minimizations run in lockstep.

Row i of the stack is its own run of the L-BFGS-B iteration without bounds
(Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16 (1995) 1190): a memory of
the last ``_MEMORY`` step and gradient-change pairs, the MINPACK-2 line
search ``dcsrch``/``dcstep`` of Moré & Thuente (ACM TOMS 20 (1994) 286), and
the stopping rules of SciPy's ``minimize(method="L-BFGS-B")``. Every row
keeps its own memory, line search, stopping test and counters.

Each call of the objective evaluates every row that is still running, at
whatever trial step its own line search has reached, so the Python cost of
a call is shared by the whole stack. Rows leave the stack as they stop.
Every operation is row-wise, so a row's arithmetic, and hence its result,
does not depend on which other rows share its stack. A caller may also end
the whole stack early, from the values of the rows that have stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StackedResult", "minimize_stacked"]

# Pairs kept in each row's memory (SciPy's default m).
_MEMORY = 10
# L-BFGS-B's line search constants: sufficient decrease, curvature and
# relative interval width, the largest step, and the trials before a
# search is abandoned (SciPy's maxls).
_LS_FTOL, _LS_GTOL, _LS_XTOL = 1e-3, 0.9, 0.1
_STPMAX = 1e10
_MAX_TRIALS = 20
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class StackedResult:
    """Final state of every row.

    ``x``, ``fun`` and ``jac`` are the last accepted point, its value and its
    gradient; ``nit`` counts accepted steps and ``nfev`` evaluations.
    ``converged`` is true when a row stopped on the gradient or the
    relative-decrease tolerance, false when it hit the evaluation cap, its
    line search failed, a MINPACK-2 warning ended the search at step 0 or
    the caller's rule ended the stack. ``finished`` is false only for the
    rows that the caller's rule ended.
    """

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray
    converged: np.ndarray
    finished: np.ndarray


def minimize_stacked(
    fun, x0, max_evals: int, f_tol: float, g_tol: float, enough=None
) -> StackedResult:
    """Minimize from every row of ``x0`` with the stacked L-BFGS iteration.

    ``fun(X)`` maps an ``(R, D)`` stack of points to the values ``(R,)`` and
    gradients ``(R, D)``. A row stops once the largest gradient component is
    at most ``g_tol``, or once an iteration lowers its value by at most
    ``f_tol * max(|f_old|, |f_new|, 1)``. It also stops, unconverged, when an
    iteration ends with more than ``max_evals`` evaluations, when its line
    search fails with an empty memory, or when a MINPACK-2 warning ends the
    search at step 0, as after an infinite value at the first trial.

    ``enough(done, running)``, if given, may end the whole stack. After
    every call in which a row stops, it gets the values of the rows that
    stopped converged and the current values of the rows still running.
    When it returns true, the running rows stop where they are, unconverged
    and unfinished, before the next call. Without it every row runs to its
    own stop.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    out = StackedResult(
        x=x,
        fun=np.array(f, dtype=float),
        jac=np.array(g, dtype=float),
        nit=np.zeros(len(x), dtype=int),
        nfev=np.ones(len(x), dtype=int),
        converged=np.abs(g).max(axis=1) <= g_tol,
        finished=np.ones(len(x), dtype=bool),
    )
    runs = _Runs(np.flatnonzero(~out.converged), out)
    stuck = runs.start_search(np.ones(runs.rows.size, dtype=bool))
    # The very first step of a row has length 1; later ones start at the
    # full quasi-Newton step.
    with np.errstate(divide="ignore"):  # d = 0 only on stuck rows
        runs.stp = np.minimum(1.0 / np.sqrt((runs.d * runs.d).sum(axis=1)), _STPMAX)
    runs.retire(stuck, np.zeros_like(stuck), out)
    stopped = runs.rows.size < len(x)
    while runs.rows.size:
        # A row in the stack is not converged in `out`, so `out.converged`
        # marks exactly the rows that stopped converged.
        if stopped and enough is not None and enough(out.fun[out.converged], runs.f):
            out.finished[runs.rows] = False
            break
        x_trial = runs.x + runs.stp[:, None] * runs.d
        f_trial, g_trial = fun(x_trial)
        runs.nfev += 1
        slope = (g_trial * runs.d).sum(axis=1)
        ended, failed, stalled = runs.search_step(f_trial, slope)
        stop, converged = runs.accept(ended, x_trial, f_trial, g_trial, slope, max_evals, f_tol, g_tol)
        # A search that a warning ended at step 0 left its row in place: the
        # zero decrease passes the f_tol test, but the row has not converged.
        stop |= stalled
        converged &= ~stalled
        # A failed search leaves the row at its last accepted point. With
        # pairs in memory it restarts along -g; without, it gives up.
        if failed.any():
            fresh = failed & (runs.col == 0)
            stop |= fresh
            runs.forget(failed & ~fresh)
            ended |= failed
        stop |= runs.start_search(ended & ~stop)
        stopped = runs.retire(stop, converged, out)
    # The rows that `enough` ended, unconverged; none if every row stopped.
    none = np.zeros(runs.rows.size, dtype=bool)
    runs.retire(~none, none, out)
    return out


class _Runs:
    """Per-row state of the rows still running, one array entry per row.

    A row's ``f`` changes only when its line search ends and the next one
    starts, so a search's start value is the row's ``f``.
    """

    def __init__(self, rows: np.ndarray, out: StackedResult):
        self.rows = rows  # indices into the full stack
        self.x, self.f, self.g = out.x[rows], out.fun[rows], out.jac[rows]
        self.nit, self.nfev = out.nit[rows], out.nfev[rows]
        n, dim = self.x.shape
        self.d, self.stp = np.zeros((n, dim)), np.zeros(n)
        # Memory in the compact form of Byrd, Nocedal & Schnabel (1994), oldest
        # pair first and zero past the `col` valid pairs: the pairs (s_i, y_i)
        # of steps and gradient changes, s_i.y_i, the Gram matrix y_i.y_j, and
        # the inverse of the upper triangle R_ij = s_i.y_j (i <= j); h0 scales
        # the initial inverse Hessian. Zero slots add nothing to a product.
        self.pairs = np.zeros((n, _MEMORY, 2, dim))
        self.sy_mem = np.zeros((n, _MEMORY))
        self.yy_mem = np.zeros((n, _MEMORY, _MEMORY))
        self.r_inv = np.zeros((n, _MEMORY, _MEMORY))
        self.col = np.zeros(n, dtype=int)
        self.h0 = np.ones(n)
        # Each line search's slope at step 0, and the rest of its dcsrch
        # state once a trial has not ended it (else None): see _next_trial.
        self.ginit = np.zeros(n)
        self.search = np.empty(n, dtype=object)

    def retire(self, stop: np.ndarray, converged: np.ndarray, out: StackedResult) -> bool:
        """Write the stopped rows to ``out`` and drop them from the stack.

        Returns whether any row stopped.
        """
        if not np.count_nonzero(stop):
            return False
        rows = self.rows[stop]
        out.x[rows], out.fun[rows], out.jac[rows] = self.x[stop], self.f[stop], self.g[stop]
        out.nit[rows], out.nfev[rows] = self.nit[stop], self.nfev[stop]
        out.converged[rows] = converged[stop]
        keep = np.flatnonzero(~stop)
        for name, value in vars(self).items():
            setattr(self, name, value[keep])
        return True

    def forget(self, rows: np.ndarray) -> None:
        """Empty the memory of the rows in the mask ``rows``."""
        for mem in (self.pairs, self.sy_mem, self.yy_mem, self.r_inv):
            mem[rows] = 0.0
        self.col[rows] = 0
        self.h0[rows] = 1.0

    def accept(self, ended, x_trial, f_trial, g_trial, slope, max_evals, f_tol, g_tol):
        """Move the rows whose search ended to their trial points.

        Applies the stopping tests, and adds the new pair to the memory of
        each row that goes on, unless its curvature ``s.y`` is not positive.
        Returns the masks of the rows that stop and of those that converged.
        """
        f_old = self.f
        scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f_trial)), 1.0)
        capped = ended & (self.nfev > max_evals)
        converged = (ended & ~capped) & (
            (np.abs(g_trial).max(axis=1) <= g_tol) | (f_old - f_trial <= f_tol * scale)
        )
        stop = capped | converged
        go_on = ended & ~stop
        if np.count_nonzero(go_on):
            stp, ginit = self.stp, self.ginit
            # s.y from the line search's slopes, as L-BFGS-B computes it.
            sy = (slope - ginit) * stp
            k = np.flatnonzero(go_on & (sy > _EPS * (-ginit * stp)))
            if k.size:
                self._remember(k, stp[k, None] * self.d[k], (g_trial - self.g)[k], sy[k])
        np.copyto(self.x, x_trial, where=ended[:, None])
        np.copyto(self.f, f_trial, where=ended)
        np.copyto(self.g, g_trial, where=ended[:, None])
        self.nit += ended
        return stop, converged

    def _remember(self, k, s, y, sy) -> None:
        """Append the pair (s, y) with curvature sy to the memory of rows k,
        dropping the oldest pair of a full memory."""
        c = self.col[k]
        full = k[c == _MEMORY]
        if full.size:
            # R and the Gram matrix of the newer pairs are the trailing
            # blocks, and so is the inverse of R, as R is triangular. The
            # freed slot of each memory is written below. R^-1 also needs
            # zeros in its last row, below its diagonal, and in its last
            # column, from which its new column is computed.
            for mem in (self.pairs, self.sy_mem):
                mem[full, :-1] = mem[full, 1:]
            for mat in (self.yy_mem, self.r_inv):
                mat[full, :-1, :-1] = mat[full, 1:, 1:]
            self.r_inv[full, -1] = self.r_inv[full, :, -1] = 0.0
            c = np.minimum(c, _MEMORY - 1)
        self.pairs[k, c, 0], self.pairs[k, c, 1] = s, y
        self.sy_mem[k, c] = sy
        # (s_i.y, y_i.y) for every slot, the new one included.
        dots = (self.pairs[k] @ y[:, None, :, None])[..., 0]
        yy = dots[..., 1]
        self.yy_mem[k, c], self.yy_mem[k, :, c] = yy, yy
        # The new column of R is (s_i.y)_i with sy on the diagonal, so the new
        # column of its inverse is -R^-1 (s_i.y)_(i<c) / sy with 1 / sy below.
        r_col = (self.r_inv[k] @ dots[..., :1])[..., 0] / -sy[:, None]
        rows = np.arange(k.size)
        r_col[rows, c] = 1.0 / sy
        self.r_inv[k, :, c] = r_col
        self.col[k] = c + 1
        self.h0[k] = sy / yy[rows, c]

    def start_search(self, start: np.ndarray) -> np.ndarray:
        """New direction, unit step and dcsrch start for the rows in the mask
        ``start``.

        Directions are computed for every row and kept for those in
        ``start``. Returns the mask of the rows that cannot descend: their
        direction is not downhill even with an empty memory.
        """
        if not np.count_nonzero(start):
            return start
        g = self.g
        d = self._descent(g)
        gd = (g * d).sum(axis=1)
        stuck = uphill = start & (gd >= 0.0)
        if np.count_nonzero(uphill):
            # L-BFGS-B drops its memory and steps along -g instead.
            self.forget(uphill & (self.col > 0))
            d[uphill] = -g[uphill]
            gd[uphill] = (g[uphill] * d[uphill]).sum(axis=1)
            stuck = uphill & ~(gd < 0.0)
        np.copyto(self.d, d, where=start[:, None])
        np.copyto(self.stp, 1.0, where=start)
        np.copyto(self.ginit, gd, where=start)
        self.search[start] = None
        return stuck

    def _descent(self, g: np.ndarray) -> np.ndarray:
        """``-H g`` from the compact form of each row's memory.

        ``H g = h0 (g - Y w) + S R^-T (diag(s.y) w + h0 (Y^T Y w - Y^T g))``
        with ``w = R^-1 S^T g``, the inverse L-BFGS update of Byrd, Nocedal &
        Schnabel (Math. Program. 63 (1994) 129), Theorem 2.2.
        """
        h0 = self.h0[:, None, None]
        dots = (self.pairs @ g[:, None, :, None])[..., 0]  # (s_i.g, y_i.g)
        w = self.r_inv @ dots[..., :1]
        z = self.sy_mem[:, :, None] * w + h0 * (self.yy_mem @ w - dots[..., 1:])
        # Coefficients of s_i and y_i in H g - h0 g.
        coef = np.concatenate([self.r_inv.transpose(0, 2, 1) @ z, -h0 * w], axis=2)
        n, dim = g.shape
        hg = self.pairs.reshape(n, 2 * _MEMORY, dim).transpose(0, 2, 1) @ coef.reshape(n, 2 * _MEMORY, 1)
        return -(h0[..., 0] * g + hg[..., 0])

    def search_step(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One dcsrch call per row, after evaluating it at its trial step.

        ``f`` and ``g`` are the value and the slope along the direction at
        ``stp``. Returns the masks of the rows whose search has ended
        (converged, or stopped by a MINPACK-2 warning at their current step),
        of those whose search failed, out of trials, and of those that a
        warning stopped at step 0. The others get their next trial step in
        ``stp``.
        """
        ftest = self.f + self.stp * (_LS_FTOL * self.ginit)
        ended = (f <= ftest) & (np.abs(g) <= _LS_GTOL * -self.ginit)
        failed, stalled = np.zeros_like(ended), np.zeros_like(ended)
        if np.count_nonzero(ended) < ended.size:
            # Infinite values and zero-width steps are legal inputs here.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for i in np.flatnonzero(~ended).tolist():
                    if self._next_trial(i, f[i], g[i], ftest[i]):
                        ended[i] = True
                        stalled[i] = self.stp[i] == 0.0
                    else:
                        failed[i] = self.search[i][0] >= _MAX_TRIALS
        return ended, failed, stalled

    def _next_trial(self, i: int, f, g, ftest):
        """The rest of dcsrch for row ``i``, whose trial step did not converge.

        ``f``, ``g`` and ``ftest`` are ``np.float64`` scalars. Returns True
        when a MINPACK-2 warning ends the search at its current step. Else
        the row's next trial step goes to ``stp``, and its dcsrch state,
        which starts with the count of trials made, to ``search``.
        """
        stp, finit, ginit = self.stp[i], self.f[i], self.ginit[i]
        gtest = _LS_FTOL * ginit
        state = self.search[i]
        if state is None:
            state = (0, 0.0, finit, ginit, 0.0, finit, ginit, 0.0, 5.0 * stp,
                     _STPMAX, 2.0 * _STPMAX, False, True)
        trials, stx, fx, gx, sty, fy, gy, stmin, stmax, width, width1, brackt, stage1 = state
        decrease = f <= ftest
        # MINPACK-2's warnings: no room left in the bracket, or a step at its
        # bound.
        if (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax)
                or stp == _STPMAX and decrease and g <= gtest
                or stp == 0.0 and (not decrease or g >= gtest)):
            return True
        stage1 = stage1 and not (decrease and g >= 0.0)
        # In stage 1, a lower value without sufficient decrease steps on the
        # modified function f(stp) - stp * gtest; `shift` is 0 elsewhere.
        shift = gtest if stage1 and f <= fx and f > ftest else 0.0
        stx, fx, gx, sty, fy, gy, new, brackt = _dcstep(
            stx, fx - stx * shift, gx - shift, sty, fy - sty * shift, gy - shift,
            stp, f - stp * shift, g - shift, brackt, stmin, stmax,
        )
        fx, gx, fy, gy = fx + stx * shift, gx + shift, fy + sty * shift, gy + shift
        if brackt:
            # Bisect when the bracket did not shrink enough over two steps.
            span = abs(sty - stx)
            if span >= 0.66 * width1:
                new = stx + 0.5 * (sty - stx)
            width1, width = width, span
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = new + 1.1 * (new - stx), new + 4.0 * (new - stx)
        new = _fmin(_fmax(new, 0.0), _STPMAX)
        # Without room for progress, fall back to the best step so far.
        if brackt and (new <= stmin or new >= stmax or stmax - stmin <= _LS_XTOL * stmax):
            new = stx
        self.stp[i] = new
        self.search[i] = (trials + 1, stx, fx, gx, sty, fy, gy, stmin, stmax, width, width1,
                          brackt, stage1)
        return False


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 ``dcstep``: a safeguarded trial step, and the update of the
    interval between ``stx`` (the best step) and ``sty``.

    Returns the new ``stx, fx, dx, sty, fy, dy``, the trial step and the
    bracketing flag, as SciPy's ``scipy.optimize._dcsrch.dcstep`` does. The
    floats are ``np.float64`` scalars, so that a division by zero gives inf
    or NaN under the caller's ``np.errstate``. Three details differ from
    SciPy's port, and the results pinned in the tests depend on them:
    squares are products (``**`` can round the last bit otherwise), every
    square root takes a rounding-level negative argument as 0, and in case 1
    a tie between the cubic and the quadratic step takes their average, as
    in MINPACK.
    """
    opposite = dp < 0.0 < dx or dx < 0.0 < dp  # slopes of opposite signs
    if fp > fx:
        # Case 1: a higher value brackets the minimum. Take the cubic step if
        # it is closer to stx than the quadratic step, else their average.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _gamma(theta, dx, dp)
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # Case 2: opposite slopes bracket the minimum. Take the cubic step if
        # it is farther from stp than the secant step, else the secant step.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # Case 3: the slope shrinks. Take the cubic step only if the cubic
        # tends to infinity in the direction of the step; then, once
        # bracketed, the closer of it and the secant step, kept within 0.66
        # of the interval, else the farther within the step bounds.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            limit = stp + 0.66 * (sty - stp)
            stpf = _fmin(limit, stpf) if stp > stx else _fmax(limit, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = _fmin(_fmax(stpf, stpmin), stpmax)
    elif brackt:
        # Case 4: the slope does not shrink. Once bracketed, take the cubic
        # step through (sty, fy, dy) and (stp, fp, dp), else the step bound.
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _gamma(theta, dy, dp)
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    elif stp > stx:
        stpf = stpmax
    else:
        stpf = stpmin

    # A higher value becomes the far end; otherwise stp becomes the best
    # step, and with opposite slopes the old best step the far end.
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _gamma(theta, da, db):
    """dcstep's ``gamma`` for the cubic with ``theta`` and end slopes ``da``
    and ``db``, before its sign is chosen."""
    s = max(abs(theta), abs(da), abs(db))
    t = theta / s
    v = t * t - (da / s) * (db / s)
    # NaN passes through, as np.maximum(0.0, v) lets it.
    return s * math.sqrt(v if v > 0.0 or v != v else 0.0)


def _fmax(a, b):
    """``np.fmax`` on scalars: the larger, a NaN losing to a number."""
    return b if a < b or a != a else a


def _fmin(a, b):
    """``np.fmin`` on scalars: the smaller, a NaN losing to a number."""
    return b if b < a or a != a else a
