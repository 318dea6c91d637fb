"""The gauge-fixed complex displaced-parity search: the tests' reference route.

bw_displaced_parity_max searches real displacements only, also for
complex_displacements=True.  This module keeps the search over complex
displacements that it replaced, so the tests can check that it finds
nothing above the real optimum.  With alpha = x + iy and beta = u + iw the
closed form depends on (alpha, alpha', beta, beta') only through |alpha|,
|beta| and Re(alpha beta), so one common rotation alpha -> alpha e^{i phi},
beta -> beta e^{-i phi} leaves the Bell sum unchanged.  The search fixes
that gauge with Im alpha = 0 and moves the other 7 real parameters, one
Newton ascent per start, on the package's _bell_derivatives.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from binned_bell._newton import newton_ascent
from binned_bell.cv import _TERMS, _bell_derivatives, _grid_starts

# The coordinates of complex_exponent_forms that the search moves: all but
# Im alpha, the gauge.
GAUGE_COORDINATES = [0, 2, 3, 4, 5, 6, 7]


def complex_exponent_forms(r: float) -> np.ndarray:
    """Q (4, 8, 8) with E(alpha_a, beta_b) = exp(v^T Q[ab] v / 2) for term ab.

    v = (Re alpha, Im alpha, Re alpha', Im alpha', Re beta, Im beta,
    Re beta', Im beta').  With alpha = x + iy and beta = u + iw the exponent
    is -2c(x^2 + y^2 + u^2 + w^2) + 4s(xu - yw), c = cosh 2r, s = sinh 2r.
    """
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    q = np.zeros((4, 8, 8))
    for k, (a, b) in enumerate(_TERMS):
        for part, coupling in ((0, 4.0 * s), (1, -4.0 * s)):
            i, j = 2 * a + part, 2 * b + part
            q[k, i, i] = q[k, j, j] = -4.0 * c
            q[k, i, j] = q[k, j, i] = coupling
    return q


def complex_view(params: np.ndarray) -> np.ndarray:
    """(alpha, alpha', beta, beta') at parameters (..., 8) of interleaved real
    and imaginary parts.

    The view keeps the sign of a zero part, where re + 1j * im would drop
    it.  No output reads that sign: |z|^2 squares it, in Re(alpha beta) it
    can only flip the sign of a zero exponent, and exp(-0.0) == exp(0.0),
    and the package's displaced parity tests alpha.imag == 0.0.
    """
    return np.ascontiguousarray(params, dtype=float).view(complex)


def search_radius(r: float) -> float:
    """Half-width R of the seeding grid; the ascents stop at steps below 1e-14 R."""
    return max(1.2 * math.exp(-r), 0.05)


def complex_search(r: float, starts: np.ndarray) -> np.ndarray:
    """Complex (alpha, alpha', beta, beta') at the best of one Newton ascent per
    start, starts in the gauge coordinates; a later start wins only if
    strictly better."""
    forms = complex_exponent_forms(r)[:, GAUGE_COORDINATES][:, :, GAUGE_COORDINATES]
    fgh = partial(_bell_derivatives, forms)
    runs = [newton_ascent(fgh, x0, xtol=1e-14 * search_radius(r)) for x0 in starts]
    x, _ = max(runs, key=lambda run: run[1])
    return complex_view(np.insert(x, 1, 0.0))


def best_complex_displacements(r: float, restarts: int) -> np.ndarray:
    """The complex search from the real search's 1 + restarts grid starts,
    imaginary parts 0."""
    starts = _grid_starts(r, False, search_radius(r), restarts + 1)
    full = np.zeros((len(starts), 8))
    full[:, 0::2] = starts
    return complex_search(r, full[:, GAUGE_COORDINATES])
