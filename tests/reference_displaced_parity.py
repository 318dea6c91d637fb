"""Reference route for the displaced-parity Bell value: dense matrices.

binned_bell.cv.bw_bell_value contracts the Bell value from a half-size SVD
of the displacement generator without forming any dim x dim matrix.  This
module keeps the route it replaced, which builds each displaced parity in
full: one dense eigendecomposition T = V diag(lam) V^T of the real
symmetric tridiagonal T with off-diagonals sqrt(n), then

    D(2|alpha|) P = Sigma o (V (cos + sin)(2|alpha| lam) V^T),

with Sigma[m, n] = +-1 (+1 where (m - n) mod 4 is 0 or 1, times the parity
(-1)^n), and R = diag(e^{i n arg alpha}) rotates it to D(2 alpha) P.  The
four matrices are contracted through the Schmidt form, one correlation at a
time.  It shares no code with the package's route beyond the squeezed-state
amplitudes and the cutoff check.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from binned_bell.cv import _check_fock_cutoff, _schmidt_correlation, _tmss_amplitudes


@functools.lru_cache(maxsize=1)
def displacement_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, V, signs): the eigendecomposition of T and the four distinct rows
    of Sigma (row m of Sigma is signs[m % 4])."""
    n = np.arange(dim)
    off = np.sqrt(n[1:].astype(float))
    lam, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    signs = np.where((n[:4, None] - n) % 4 < 2, 1.0, -1.0) * (-1.0) ** n
    for array in (lam, v, signs):
        array.setflags(write=False)
    return lam, v, signs


def displaced_parity(cutoff_fock: int, alpha: complex) -> np.ndarray:
    """D(alpha) P D(alpha)^dagger = D(2 alpha) P, float64 for real alpha."""
    lam, v, signs = displacement_spectrum(cutoff_fock + 1)
    alpha = complex(alpha)
    theta = 2.0 * abs(alpha) * lam
    matrix = (v * (np.cos(theta) + np.sin(theta))) @ v.T
    for k, row in enumerate(signs):
        matrix[k::4] *= row
    if alpha.imag == 0.0 and alpha.real >= 0.0:
        return matrix
    n = np.arange(lam.size)
    if alpha.imag == 0.0:
        rotation = (-1.0) ** n
    else:
        rotation = np.exp(1j * math.atan2(alpha.imag, alpha.real) * n)
    matrix = rotation[:, None] * matrix
    matrix *= rotation.conj()
    return matrix


def bell_value(cutoff_fock: int, r: float, alphas: tuple[complex, complex],
               betas: tuple[complex, complex]) -> float:
    """The Bell value of bw_bell_value from the four dense parity matrices."""
    cutoff_fock = _check_fock_cutoff(cutoff_fock, r)
    c = _tmss_amplitudes(cutoff_fock, r)
    pb = [displaced_parity(cutoff_fock, beta) for beta in betas]
    e = []
    for alpha in alphas:
        pa = displaced_parity(cutoff_fock, alpha)
        e += [_schmidt_correlation(c, pa, q) for q in pb]
    return e[0] + e[1] + e[2] - e[3]
