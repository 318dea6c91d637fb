"""scipy's Nelder-Mead, every start in lockstep: the tests' reference search.

The package's searches run Newton ascents on exact derivatives.  This
derivative-free simplex is an independent route to the same maxima: the
tests check it against scipy.optimize.minimize(method="Nelder-Mead") bit for
bit, then check that no Newton search ends below it from the same start.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

# scipy's xatol and fatol, the same for every search.
_TOL = 1e-10


def _along(xbar: list[float], worst: list[float], t: float) -> list[float]:
    """The point (1 + t) xbar - t worst, written as scipy writes each step.

    scipy's reflection, expansion and outside contraction are t = rho,
    rho chi and psi rho.  Its inside contraction (1 - psi) xbar + psi worst
    is t = -psi, because x - (-y) equals x + y exactly.
    """
    s = 1 + t
    return [s * a - t * b for a, b in zip(xbar, worst)]


def _sorted(sim: list, fsim: list) -> tuple[list, list]:
    # scipy's np.argsort(fsim); see _nelder_mead_start for why no other sort.
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def _nelder_mead_start(x0: list[float], maxiter: int, maxfev: int):
    """scipy's Nelder-Mead from x0 as a generator of evaluation requests.

    A branch-for-branch copy of scipy.optimize._optimize._minimize_neldermead
    (no bounds, not adaptive, xatol = fatol = _TOL).  Where scipy calls func,
    this yields a list of k points and is sent their k values.  The maxfev
    cap acts like scipy's _MaxFuncCallError: a pending expansion or
    contraction is dropped, and in a shrink the vertex moved when the cap
    hits keeps its stale value.  Returns scipy's final_simplex as lists:
    N + 1 vertices of N floats, and their N + 1 values.

    The simplex and its values are Python floats, so each step costs a few
    scalar operations instead of numpy calls on tiny arrays.  The bits stay
    scipy's: scalar float64 + - * / and abs round exactly as numpy's
    elementwise ufuncs do; np.add.reduce(sim[:-1], 0) adds the rows to +0.0
    in order, as reduce(add, column, 0.0) does; and all(abs(a - b) <= _TOL)
    equals np.abs(...).max() <= _TOL, NaN included.  (A NaN coordinate,
    which only inf - inf can make, may differ in its sign bit, which nothing
    reads.)
    Only the sort stays numpy's argsort: on ties it is not stable, and the
    order it gives tied vertices steers the rest of scipy's path.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    fcalls = max(0, min(n + 1, maxfev))
    if fcalls:
        fsim[:fcalls] = yield sim[:fcalls]
    for _ in range(2):  # scipy sorts after the first evaluations and again before the loop
        sim, fsim = _sorted(sim, fsim)

    iterations = 1
    while fcalls < maxfev and iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        if all(abs(a - b) <= _TOL for x in sim[1:] for a, b in zip(x, best)) and all(
            abs(fbest - f) <= _TOL for f in fsim[1:]
        ):
            break
        # Starting from +0.0 as numpy does makes a column of -0.0 sum to +0.0.
        xbar = [reduce(add, column, 0.0) / n for column in zip(*sim[:-1])]
        worst = sim[-1]
        xr = _along(xbar, worst, rho)
        (fxr,) = yield [xr]
        fcalls += 1
        # Past the cap scipy raises before the second evaluation, and the
        # loop then ends with the simplex as it stands.
        if fxr < fbest:
            if fcalls < maxfev:
                xe = _along(xbar, worst, rho * chi)
                (fxe,) = yield [xe]
                fcalls += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fcalls < maxfev:
            doshrink = False
            if fxr < fsim[-1]:
                xc = _along(xbar, worst, psi * rho)
                (fxc,) = yield [xc]
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                xcc = _along(xbar, worst, -psi)
                (fxcc,) = yield [xcc]
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            fcalls += 1
            if doshrink:
                # scipy moves vertex j, then evaluates it; at the cap the
                # vertex just moved keeps its old value.
                k = min(n, maxfev - fcalls)
                for j in range(1, min(k + 1, n) + 1):
                    sim[j] = [a + sigma * (b - a) for a, b in zip(best, sim[j])]
                if k:
                    fsim[1 : k + 1] = yield sim[1 : k + 1]
                    fcalls += k
        sim, fsim = _sorted(sim, fsim)
        iterations += 1
    return sim, fsim


def nelder_mead_lockstep(
    func, starts: np.ndarray, *, maxiter: int, maxfev: int
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize func from every row of starts, all starts in lockstep.

    Each start runs _nelder_mead_start, so it follows
    scipy.optimize.minimize(method="Nelder-Mead") with xatol = fatol = 1e-10
    bit for bit.  Each round makes one call of func, points (k, N) -> values
    (k,), on the points every live start asks for, so a value must not
    depend on the batch around it; finished starts ask for nothing.  The
    starts keep their simplices in Python floats; only the batch handed to
    func is a numpy array, one C-contiguous float64 (k, N) per round, and
    its values go back to the starts through .tolist().  Returns the final
    simplices (S, N + 1, N) and values (S, N + 1) as float64 arrays.
    """
    starts = np.asarray(starts, dtype=float).tolist()
    runs = [_nelder_mead_start(x0, maxiter, maxfev) for x0 in starts]
    results = [None] * len(runs)
    replies = [(i, None) for i in range(len(runs))]
    while replies:
        asked, points = [], []
        for i, values in replies:
            try:
                request = runs[i].send(values)
            except StopIteration as stop:
                results[i] = stop.value
            else:
                asked.append((i, len(request)))
                points += request
        if not asked:
            break
        values = func(np.array(points)).tolist()
        replies, end = [], 0
        for i, k in asked:
            replies.append((i, values[end : end + k]))
            end += k
    sims, fsims = zip(*results)
    return np.array(sims), np.array(fsims)
