"""One Nelder-Mead for every search: scipy's loop per start, starts in lockstep."""

from __future__ import annotations

import numpy as np

# scipy's xatol and fatol, the same for every search.
_TOL = 1e-10


def _nelder_mead_start(x0: np.ndarray, maxiter: int, maxfev: int):
    """scipy's Nelder-Mead from x0 as a generator of evaluation requests.

    A branch-for-branch copy of scipy.optimize._optimize._minimize_neldermead
    (no bounds, not adaptive, xatol = fatol = _TOL).  Where scipy calls func,
    this yields points (k, N) and is sent their k values.  The maxfev cap
    acts like scipy's _MaxFuncCallError: a pending expansion or contraction
    is dropped, and in a shrink the vertex moved when the cap hits keeps its
    stale value.  Returns scipy's final_simplex, (N + 1, N) and (N + 1,).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = np.repeat(x0[None, :], n + 1, axis=0)
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    fcalls = max(0, min(n + 1, maxfev))
    if fcalls:
        fsim[:fcalls] = yield sim[:fcalls]
    for _ in range(2):  # scipy sorts after the first evaluations and again before the loop
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    iterations = 1
    while fcalls < maxfev and iterations < maxiter:
        if np.abs(sim[1:] - sim[0]).max() <= _TOL and np.abs(fsim[0] - fsim[1:]).max() <= _TOL:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        (fxr,) = yield xr[None]
        fcalls += 1
        # Past the cap scipy raises before the second evaluation, and the
        # loop then ends with the simplex as it stands.
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            if fcalls < maxfev:
                (fxe,) = yield xe[None]
                fcalls += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fcalls < maxfev:
            doshrink = False
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                (fxc,) = yield xc[None]
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                (fxcc,) = yield xcc[None]
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            fcalls += 1
            if doshrink:
                # scipy moves vertex j, then evaluates it; at the cap the
                # vertex just moved keeps its old value.
                k = min(n, maxfev - fcalls)
                sim[1 : k + 2] = sim[0] + sigma * (sim[1 : k + 2] - sim[0])
                if k:
                    fsim[1 : k + 1] = yield sim[1 : k + 1]
                    fcalls += k
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
        iterations += 1
    return sim, fsim


def _nelder_mead_lockstep(
    func, starts: np.ndarray, *, maxiter: int, maxfev: int
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize func from every row of starts, all starts in lockstep.

    Each start runs _nelder_mead_start, so it follows
    scipy.optimize.minimize(method="Nelder-Mead") with xatol = fatol = 1e-10
    bit for bit.  Each round makes one call of func, points (k, N) -> values
    (k,), on the points every live start asks for, so a value must not
    depend on the batch around it; finished starts ask for nothing.
    Returns the final simplices (S, N + 1, N) and values (S, N + 1).
    """
    runs = [_nelder_mead_start(x0, maxiter, maxfev) for x0 in np.asarray(starts, dtype=float)]
    results = [None] * len(runs)
    replies = [(i, None) for i in range(len(runs))]
    while replies:
        asked = []
        for i, values in replies:
            try:
                asked.append((i, runs[i].send(values)))
            except StopIteration as stop:
                results[i] = stop.value
        if not asked:
            break
        values = func(np.concatenate([points for _, points in asked]))
        replies, end = [], 0
        for i, points in asked:
            replies.append((i, values[end : end + len(points)]))
            end += len(points)
    sims, fsims = zip(*results)
    return np.stack(sims), np.stack(fsims)
