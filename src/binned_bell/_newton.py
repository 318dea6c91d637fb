"""One safeguarded Newton ascent on exact derivatives, for every search."""

from __future__ import annotations

import numpy as np

# Newton steps per start, and halvings per step, before a search stops.
MAX_STEPS = 100
_HALVINGS = 40
# A step may lower F by this much relative to |F|: its rounding, not a descent.
_ROUNDING = 1e-14


def newton_ascent(fgh, x0, *, xtol: float,
                  max_steps: int = MAX_STEPS) -> tuple[np.ndarray, float]:
    """Maximize F from x0, where fgh(x) returns F(x), its gradient and its Hessian.

    Each step is p = -(H - mu I)^-1 g, from one eigendecomposition of the
    Hessian H at the current point.  mu is 0 where H is negative definite;
    elsewhere it shifts the largest eigenvalue of H to -max|eigenvalue|, so
    every shifted eigenvalue is negative and g . p > 0: p still ascends.  A
    step that lowers F by more than _ROUNDING |F| is halved, up to _HALVINGS
    times; if every half does too, the search stops.  It also stops after an
    accepted step of at most xtol in every coordinate, or after max_steps
    steps.  Returns the last accepted point and its value; no accepted step
    lowers F by more than its rounding, so that is the best point seen.
    """
    x = np.asarray(x0, dtype=float)
    f, g, h = fgh(x)
    for _ in range(max_steps):
        lam, v = np.linalg.eigh(h)
        shift = 0.0 if lam[-1] < 0.0 else lam[-1] + max(np.abs(lam).max(), np.finfo(float).tiny)
        p = v @ ((v.T @ g) / (shift - lam))
        for _ in range(_HALVINGS):
            trial = fgh(x + p)
            if trial[0] >= f - _ROUNDING * abs(f):
                break
            p = 0.5 * p
        else:
            break
        x = x + p
        f, g, h = trial
        if np.abs(p).max() <= xtol:
            break
    return x, float(f)
