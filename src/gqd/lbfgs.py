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
does not depend on which other rows share its stack.
"""

from __future__ import annotations

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
# Columns of the dcsrch state: the value, the slope and the sufficient-
# decrease slope at the search's start; the best step stx and the interval's
# other end sty with their values and slopes; the step bounds; the
# interval's last two widths.
(_FINIT, _GINIT, _GTEST, _STX, _FX, _GX, _STY, _FY, _GY,
 _STMIN, _STMAX, _WIDTH, _WIDTH1) = range(13)
_LS_FIELDS = _WIDTH1 + 1


@dataclass(frozen=True)
class StackedResult:
    """Final state of every row.

    ``x``, ``fun`` and ``jac`` are the last accepted point, its value and its
    gradient; ``nit`` counts accepted steps and ``nfev`` evaluations.
    ``converged`` is true when a row stopped on the gradient or the
    relative-decrease tolerance, false when it hit the evaluation cap or its
    line search failed.
    """

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    nit: np.ndarray
    nfev: np.ndarray
    converged: np.ndarray


def minimize_stacked(fun, x0, max_evals: int, f_tol: float, g_tol: float) -> StackedResult:
    """Minimize from every row of ``x0`` with the stacked L-BFGS iteration.

    ``fun(X)`` maps an ``(R, D)`` stack of points to the values ``(R,)`` and
    gradients ``(R, D)``. A row stops once the largest gradient component is
    at most ``g_tol``, or once an iteration lowers its value by at most
    ``f_tol * max(|f_old|, |f_new|, 1)``. It also stops, unconverged, when an
    iteration ends with more than ``max_evals`` evaluations, or when its line
    search fails with an empty memory.
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
    )
    runs = _Runs(np.flatnonzero(~out.converged), out)
    runs.retire(runs.start_search(np.ones(runs.rows.size, dtype=bool)), out)
    while runs.rows.size:
        x_trial = runs.x + runs.stp[:, None] * runs.d
        f_trial, g_trial = fun(x_trial)
        runs.nfev += 1
        runs.trials += 1
        slope = (g_trial * runs.d).sum(axis=1)
        ended = runs.search_step(f_trial, slope)
        failed = ~ended & (runs.trials >= _MAX_TRIALS)
        stop = runs.accept(ended, x_trial, f_trial, g_trial, slope, max_evals, f_tol, g_tol)
        # A failed search leaves the row at its last accepted point. With
        # pairs in memory it restarts along -g; without, it gives up.
        if np.count_nonzero(failed):
            fresh = failed & (runs.col == 0)
            stop |= fresh
            runs.forget(failed & ~fresh)
            ended |= failed
        stop |= runs.start_search(ended & ~stop)
        runs.retire(stop, out)
    return out


class _Runs:
    """Per-row state of the rows still running, one array entry per row."""

    def __init__(self, rows: np.ndarray, out: StackedResult):
        self.rows = rows  # indices into the full stack
        self.x, self.f, self.g = out.x[rows], out.fun[rows], out.jac[rows]
        self.nit, self.nfev = out.nit[rows], out.nfev[rows]
        self.converged = out.converged[rows]
        n, dim = self.x.shape
        self.d = np.zeros((n, dim))
        self.stp, self.trials = np.zeros(n), np.zeros(n, dtype=int)
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
        # dcsrch state, columns indexed by _FINIT ... _WIDTH1.
        self.ls = np.zeros((n, _LS_FIELDS))
        self.brackt, self.stage1 = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)

    def retire(self, stop: np.ndarray, out: StackedResult) -> None:
        """Write the stopped rows to ``out`` and drop them from the stack."""
        if not np.count_nonzero(stop):
            return
        rows = self.rows[stop]
        out.x[rows], out.fun[rows], out.jac[rows] = self.x[stop], self.f[stop], self.g[stop]
        out.nit[rows], out.nfev[rows] = self.nit[stop], self.nfev[stop]
        out.converged[rows] = self.converged[stop]
        keep = ~stop
        for name, value in vars(self).items():
            setattr(self, name, value[keep])

    def forget(self, idx: np.ndarray) -> None:
        for mem in (self.pairs, self.sy_mem, self.yy_mem, self.r_inv):
            mem[idx] = 0.0
        self.col[idx] = 0
        self.h0[idx] = 1.0

    def accept(self, ended, x_trial, f_trial, g_trial, slope, max_evals, f_tol, g_tol):
        """Move the rows whose search ended to their trial points.

        Applies the stopping tests, records the converged flag, and adds the
        new pair to the memory of each row that goes on, unless its
        curvature ``s.y`` is not positive. Returns the stop mask.
        """
        stp, ginit, f_old = self.stp, self.ls[:, _GINIT], self.f
        # s.y from the line search's slopes, as L-BFGS-B computes it.
        sy = (slope - ginit) * stp
        curved = sy > _EPS * (-ginit * stp)
        y = g_trial - self.g
        scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f_trial)), 1.0)
        capped = ended & (self.nfev > max_evals)
        self.converged = (ended & ~capped) & (
            (np.abs(g_trial).max(axis=1) <= g_tol) | (f_old - f_trial <= f_tol * scale)
        )
        stop = capped | self.converged
        np.copyto(self.x, x_trial, where=ended[:, None])
        np.copyto(self.f, f_trial, where=ended)
        np.copyto(self.g, g_trial, where=ended[:, None])
        self.nit += ended
        k = np.flatnonzero(ended & ~stop & curved)
        if k.size:
            self._remember(k, stp[k, None] * self.d[k], y[k], sy[k])
        return stop

    def _remember(self, k, s, y, sy) -> None:
        """Append the pair (s, y) with curvature sy to the memory of rows k,
        dropping the oldest pair of a full memory."""
        full = k[self.col[k] == _MEMORY]
        if full.size:
            # R and the Gram matrix of the newer pairs are the trailing
            # blocks, and so is the inverse of R, as R is triangular.
            for mem in (self.pairs, self.sy_mem):
                mem[full, :-1] = mem[full, 1:]
                mem[full, -1] = 0.0
            for mat in (self.yy_mem, self.r_inv):
                mat[full, :-1, :-1] = mat[full, 1:, 1:]
                mat[full, -1] = mat[full, :, -1] = 0.0
            self.col[full] -= 1
        c = self.col[k]
        self.pairs[k, c] = np.stack([s, y], axis=1)
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
        """New direction and dcsrch start for the rows in the mask ``start``.

        Directions are computed for every row and kept for those in
        ``start``. Returns the mask of the rows that cannot descend: their
        direction is not downhill even with an empty memory.
        """
        g = self.g
        d = self._descent(g)
        gd = (g * d).sum(axis=1)
        uphill = start & (gd >= 0.0)
        if np.count_nonzero(uphill):
            # L-BFGS-B drops its memory and steps along -g instead.
            self.forget(uphill & (self.col > 0))
            d[uphill] = -g[uphill]
            gd[uphill] = (g[uphill] * d[uphill]).sum(axis=1)
        # The very first step of a row has length 1; later ones start at the
        # full quasi-Newton step.
        with np.errstate(divide="ignore"):  # d = 0 only on rows that have stopped
            first = np.minimum(1.0 / np.sqrt((d * d).sum(axis=1)), _STPMAX)
        stp = np.where(self.nit == 0, first, 1.0)
        np.copyto(self.d, d, where=start[:, None])
        np.copyto(self.stp, stp, where=start)
        self.trials[start] = 0
        ls = np.zeros_like(self.ls)
        ls[:, [_FINIT, _FX, _FY]] = self.f[:, None]
        ls[:, [_GINIT, _GX, _GY]] = gd[:, None]
        ls[:, _GTEST] = _LS_FTOL * gd
        ls[:, _STMAX] = 5.0 * stp
        ls[:, _WIDTH], ls[:, _WIDTH1] = _STPMAX, 2.0 * _STPMAX
        np.copyto(self.ls, ls, where=start[:, None])
        self.brackt &= ~start
        self.stage1 |= start
        return uphill & ~(gd < 0.0)

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

    def search_step(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """One dcsrch call per row, after evaluating it at its trial step.

        ``f`` and ``g`` are the value and the slope along the direction at
        ``stp``. Returns the rows whose search has ended (converged, or
        stopped by a MINPACK-2 warning at their current step); the others
        get their next trial step in ``stp``.
        """
        stp, ls = self.stp, self.ls
        ftest = ls[:, _FINIT] + stp * ls[:, _GTEST]
        decrease = f <= ftest
        ended = decrease & (np.abs(g) <= _LS_GTOL * -ls[:, _GINIT])
        # MINPACK-2's warnings, which end a search at the current step: no
        # room left in the bracket, or a step at its bound.
        if np.count_nonzero(self.brackt):
            stmin, stmax = ls[:, _STMIN], ls[:, _STMAX]
            ended |= self.brackt & (
                (stp <= stmin) | (stp >= stmax) | (stmax - stmin <= _LS_XTOL * stmax)
            )
        if np.count_nonzero((stp == _STPMAX) | (stp == 0.0)):
            ended |= (stp == _STPMAX) & decrease & (g <= ls[:, _GTEST])
            ended |= (stp == 0.0) & (~decrease | (g >= ls[:, _GTEST]))
        go = np.flatnonzero(~ended)
        if go.size:
            # Infinite values and zero-width steps are legal inputs here.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                self._next_trial(go, f[go], g[go], ftest[go])
        return ended

    def _next_trial(self, go, f, g, ftest) -> None:
        """The rest of dcsrch for the rows ``go`` whose search goes on."""
        _, _, gtest, stx, fx, gx, sty, fy, gy, stmin, stmax, width, width1 = self.ls[go].T
        stp, brackt = self.stp[go], self.brackt[go]
        stage1 = self.stage1[go] & ~((f <= ftest) & (g >= 0.0))
        # In stage 1, a lower value without sufficient decrease steps on the
        # modified function f(stp) - stp * gtest; `shift` is 0 elsewhere.
        shift = np.where(stage1 & (f <= fx) & (f > ftest), gtest, 0.0)
        stx, fx, gx, sty, fy, gy, new, brackt = _dcstep(
            stx, fx - stx * shift, gx - shift, sty, fy - sty * shift, gy - shift,
            stp, f - stp * shift, g - shift, brackt, stmin, stmax,
        )
        fx, gx, fy, gy = fx + stx * shift, gx + shift, fy + sty * shift, gy + shift
        # Bisect when a bracket did not shrink enough over two steps.
        span = np.abs(sty - stx)
        new = np.where(brackt & (span >= 0.66 * width1), stx + 0.5 * (sty - stx), new)
        width1 = np.where(brackt, width, width1)
        width = np.where(brackt, span, width)
        stmin = np.where(brackt, np.minimum(stx, sty), new + 1.1 * (new - stx))
        stmax = np.where(brackt, np.maximum(stx, sty), new + 4.0 * (new - stx))
        # fmax/fmin drop a NaN step in favour of the bound, as C's fmax does.
        new = np.fmin(np.fmax(new, 0.0), _STPMAX)
        # Without room for progress, fall back to the best step so far.
        stuck = brackt & ((new <= stmin) | (new >= stmax) | (stmax - stmin <= _LS_XTOL * stmax))
        self.stp[go] = np.where(stuck, stx, new)
        self.ls[go, _STX:] = np.stack([stx, fx, gx, sty, fy, gy, stmin, stmax, width, width1], axis=1)
        self.brackt[go], self.stage1[go] = brackt, stage1


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 ``dcstep`` on arrays: a safeguarded trial step, and the update
    of the interval between ``stx`` (the best step) and ``sty``.

    Returns the new ``stx, fx, dx, sty, fy, dy``, the trial step and the
    bracketing flag. Each entry takes the step of its own case of the
    original. Square roots take a rounding-level negative argument as 0.
    """
    higher = fp > fx  # case 1: a higher value brackets the minimum
    opposite = ~higher & (dp * np.sign(dx) < 0.0)  # case 2: so do opposite slopes
    shrinking = ~higher & ~opposite & (np.abs(dp) < np.abs(dx))  # case 3
    beyond = ~(higher | opposite | shrinking)  # case 4
    ahead = stp > stx
    toward = np.where(ahead, stpmax, stpmin)
    # Each case's step is computed only when some entry is in that case.
    step = toward
    if np.count_nonzero(beyond):
        # The cubic step through (sty, fy, dy) and (stp, fp, dp) once
        # bracketed, else the step bound.
        theta, gamma = _cubic(sty, fy, dy, stp, fp, dp, stp > sty)
        cubic = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sty - stp)
        step = np.where(beyond & brackt, cubic, step)
    if np.count_nonzero(~beyond):
        # The cubic through (stx, fx, dx) and (stp, fp, dp); its root's sign
        # follows the side of stp, mirrored in case 1.
        theta, gamma = _cubic(stx, fx, dx, stp, fp, dp, higher ^ ahead)
    if np.count_nonzero(higher):
        # The cubic step if it is closer to stx than the quadratic step,
        # else their average.
        cubic = stx + ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp) * (stp - stx)
        quad = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        closer = np.abs(cubic - stx) < np.abs(quad - stx)
        step = np.where(higher, np.where(closer, cubic, cubic + (quad - cubic) / 2.0), step)
    if np.count_nonzero(opposite | shrinking):
        p = (gamma - dp) + theta
        secant = stp + (dp / (dp - dx)) * (stx - stp)
    if np.count_nonzero(opposite):
        # The cubic step if it is farther from stp than the secant step.
        cubic = stp + p / (((gamma - dp) + gamma) + dx) * (stx - stp)
        farther = np.abs(cubic - stp) > np.abs(secant - stp)
        step = np.where(opposite, np.where(farther, cubic, secant), step)
    if np.count_nonzero(shrinking):
        # The cubic step only if the cubic tends to infinity in the
        # direction of the step; then the closer of it and the secant step,
        # kept within 0.66 of the interval, once bracketed, else the farther.
        r = p / ((gamma + (dx - dp)) + gamma)
        cubic = np.where((r < 0.0) & (gamma != 0.0), stp + r * (stx - stp), toward)
        limit = stp + 0.66 * (sty - stp)
        inside = np.where(np.abs(cubic - stp) < np.abs(secant - stp), cubic, secant)
        inside = np.where(ahead, np.fmin(limit, inside), np.fmax(limit, inside))
        outside = np.where(np.abs(cubic - stp) > np.abs(secant - stp), cubic, secant)
        outside = np.fmin(np.fmax(outside, stpmin), stpmax)
        step = np.where(shrinking, np.where(brackt, inside, outside), step)

    # A higher value becomes the far end; otherwise stp becomes the best
    # step, and with opposite slopes the old best step the far end.
    sty, fy, dy = (np.where(higher, b, np.where(opposite, a, c))
                   for a, b, c in ((stx, stp, sty), (fx, fp, fy), (dx, dp, dy)))
    stx, fx, dx = (np.where(higher, a, b) for a, b in ((stx, stp), (fx, fp), (dx, dp)))
    return stx, fx, dx, sty, fy, dy, step, brackt | higher | opposite


def _cubic(sa, fa, da, sb, fb, db, flip):
    """dcstep's ``theta`` and ``gamma`` for the cubic through (sa, fa, da) and
    (sb, fb, db), with ``gamma`` negated where ``flip``."""
    theta = 3.0 * (fa - fb) / (sb - sa) + da + db
    s = np.maximum(np.maximum(np.abs(theta), np.abs(da)), np.abs(db))
    gamma = s * np.sqrt(np.maximum(0.0, (theta / s) ** 2 - (da / s) * (db / s)))
    return theta, np.where(flip, -gamma, gamma)
