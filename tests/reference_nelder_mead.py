"""scipy's Nelder-Mead from one start: the tests' reference search.

The package's searches run Newton ascents on exact derivatives.  This
derivative-free simplex is an independent route to the same maxima: the
tests check that no Newton search ends below it from the same start.
"""

from scipy.optimize import minimize


def nelder_mead(func, x0):
    """Minimize func from x0; scipy's OptimizeResult, with res.x and res.fun."""
    return minimize(func, x0, method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 4000, "maxfev": 8000})
