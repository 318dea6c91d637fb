"""The full-table grid start, the reference route for qudit._grid_start.

It forms the two N x N max-plus tables of every shift at once, so it holds
O(N^2) floats (256 MB at d = 256).  qudit._grid_start must return its start
point and value to the bit.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def full_table_grid_start(t: np.ndarray, fv: np.ndarray) -> tuple[list[float], float]:
    """Best point (a1, a2, b2) of the gauge-fixed grid t_j = j d / N, N = 16 d.

    With fv[j] = f(t_j), h+[m] = max_j fv[j] + fv[j+m] and h-[m] = max_j
    fv[j] - fv[j+m] (indices mod N); m is the first argmax of h+ + h-.
    Returns (t[j+], t[j-], t[m]) and h+[m] + h-[m].
    """
    n = fv.size
    # shifted[m, j] = fv[(j + m) % n], a view: no N x N index table.
    shifted = sliding_window_view(np.concatenate([fv, fv[:-1]]), n)
    plus, minus = fv + shifted, fv - shifted
    j_plus, j_minus = plus.argmax(axis=1), minus.argmax(axis=1)
    h = plus[np.arange(n), j_plus] + minus[np.arange(n), j_minus]
    m = int(np.argmax(h))
    return [t[j_plus[m]], t[j_minus[m]], t[m]], float(h[m])
