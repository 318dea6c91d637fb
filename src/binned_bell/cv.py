"""Continuous-variable Bell tests for truncated two-mode squeezed states.

The discrete construction carries over to an optical mode pair once the
measurement outcomes come from an orthonormal phase basis.  In an
(s+1)-dimensional truncated Fock space the phase states

    |theta, k> = (1/sqrt(s+1)) sum_n exp(i n theta_k) |n>,
    theta_k = theta + 2 pi k / (s+1),  k = 0..s,

are orthonormal, and the phase parity operator

    Pi(theta) = sum_k (-1)^k |theta, k><theta, k|

is the +/-1-valued observable obtained by sharp (alternating) binning of
the phase index.  Measured on the truncated two-mode squeezed state

    |psi_s> = (sech r / sqrt(1 - tanh^(2s+2) r)) sum_n tanh^n r |n, n>,

the four-correlation Bell combination evaluates, at the reference angles
theta = 0, theta' = pi/(s+1), phi = -pi/(2s+2), phi' = pi/(2s+2), to the
closed form

    B(s, r) = 4 sqrt(2) tanh^((s+1)/2) r / (1 + tanh^(s+1) r),

which increases monotonically with the squeezing r and approaches the
quantum bound 2 sqrt(2) as r -> infinity.  Inverting the closed form gives
the minimum squeezing needed for a violation within delta of that bound.

For comparison, the displaced-parity test measures parity after a Glauber
displacement, Pi(alpha) = D(alpha) P D(alpha)^dagger = D(2 alpha) P, on the
same two-mode squeezed state.  Its best value saturates near 2.32, short of
2 sqrt(2); the search utilities here reproduce that plateau numerically.
On the untruncated state sech r sum_n tanh^n r |n, n> the correlation is a
scaled two-mode Wigner function (Banaszek and Wodkiewicz, PRA 58, 4345
(1998); PRL 82, 2009 (1999)),

    E(alpha, beta) = exp[-2 cosh(2r)(|alpha|^2 + |beta|^2)
                         + 4 sinh(2r) Re(alpha beta)],

with a plus sign on the last term in this convention; the other sign
misses the truncated reference by about 1.1 at the search optima of
r = 0.8-2.0.  The searches run Newton ascents on this closed form and its
exact derivatives, for real and complex displacements alike, and never
build a matrix.  The independent
reference that re-checks each returned optimum (displaced_parity_matrix,
bw_bell_value) exponentiates the truncated generator instead, through one
real tridiagonal eigendecomposition per Bell value.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import warnings

import numpy as np

from ._newton import newton_ascent
from .lr_polytope import _chsh_table

SQRT8 = 2.0 * math.sqrt(2.0)

# Probability mass the two-mode squeezed state may carry beyond the Fock
# cutoff before displaced-parity results are considered untrustworthy.
DEFAULT_TAIL_MASS = 1e-10

# Points per axis of the real displacement grid that seeds the searches.
_GRID_POINTS = 21

__all__ = [
    "SQRT8",
    "DEFAULT_TAIL_MASS",
    "AngleDegeneracyWarning",
    "FockCutoffError",
    "CvScenario",
    "TruncatedTmss",
    "ViolationThreshold",
    "cv_bell_expectation",
    "tmss_bell_closed_form",
    "squeezing_threshold",
    "violation_boundary_r",
    "required_fock_cutoff",
    "tmss_tail_mass",
    "displaced_parity_matrix",
    "bw_bell_value",
    "bw_displaced_parity_max",
]


class AngleDegeneracyWarning(UserWarning):
    """Two local measurement angles are nearly indistinguishable.

    The reference angles are separated by pi/(s+1), so large cutoffs push
    neighbouring settings together faster than any real phase reference
    could resolve them.  The evaluation is still exact; the warning only
    flags the practical caveat.
    """


class FockCutoffError(ValueError):
    """The Fock cutoff truncates non-negligible state amplitude.

    Raised when the untruncated state carries DEFAULT_TAIL_MASS or more
    beyond the cutoff.  The message names the cutoff that would suffice; the
    displaced-parity reference builds dense (cutoff+1)^2 matrices, which
    bounds the practical squeezing (see required_fock_cutoff).
    """


# Angle separations below this (radians) trigger AngleDegeneracyWarning.
# At the reference angles the separation is pi/(s+1), so the warning starts
# around s = 62.
ANGLE_DEGENERACY_THRESHOLD = 0.05


def _as_odd_cutoff(s: int) -> int:
    s = operator.index(s)
    if s < 1 or s % 2 == 0:
        raise ValueError(f"cutoff s must be an odd integer >= 1, got {s}")
    return s


def _as_positive_float(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


@functools.lru_cache(maxsize=4)
def _phase_parity_matrix(s: int, theta: float) -> np.ndarray:
    """Read-only Pi(theta) at cutoff s, kept for the last four (s, theta).

    Pi(theta) = V diag((-1)^k) V^dagger with V holding the phase states as
    columns; built from the definition rather than its sparse closed form
    so the closed form stays an independent cross-check.  A scenario's four
    angles do not depend on r, so a scan over r builds each matrix once.
    theta = -0.0 shares the entry of 0.0, whose matrix has the same bits.
    """
    n = np.arange(s + 1)[:, None]
    k = np.arange(s + 1)[None, :]
    theta_k = float(theta) + 2.0 * math.pi * k / (s + 1)
    v = np.exp(1j * n * theta_k) / math.sqrt(s + 1)
    signs = np.where(np.arange(s + 1) % 2 == 0, 1.0, -1.0)
    matrix = (v * signs) @ v.conj().T
    matrix.setflags(write=False)
    return matrix


@dataclasses.dataclass(frozen=True)
class TruncatedTmss:
    """Two-mode squeezed state truncated and renormalized at cutoff s."""

    s: int
    r: float
    amplitudes: np.ndarray

    @classmethod
    def build(cls, s: int, r: float) -> "TruncatedTmss":
        s = _as_odd_cutoff(s)
        r = float(r)
        if not math.isfinite(r) or r < 0.0:
            raise ValueError(f"squeezing r must be finite and >= 0, got {r}")
        t = math.tanh(r)
        norm = math.sqrt(sum(t ** (2 * n) for n in range(s + 1)))
        amplitudes = np.array([t**n / norm for n in range(s + 1)])
        amplitudes.setflags(write=False)
        return cls(s=s, r=r, amplitudes=amplitudes)

    def normalization_error(self) -> float:
        return abs(float(self.amplitudes @ self.amplitudes) - 1.0)


@dataclasses.dataclass(frozen=True)
class CvScenario:
    """A phase-parity Bell test: cutoff, squeezing, and four angles.

    Alice measures parity at theta or theta_p, Bob at phi or phi_p; the
    Bell combination is E(theta,phi) + E(theta,phi_p) + E(theta_p,phi)
    - E(theta_p,phi_p).
    """

    s: int
    r: float
    theta: float
    theta_p: float
    phi: float
    phi_p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _as_odd_cutoff(self.s))
        object.__setattr__(self, "r", _as_positive_float(self.r, "squeezing r"))
        for name in ("theta", "theta_p", "phi", "phi_p"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    @classmethod
    def with_reference_angles(cls, s: int, r: float) -> "CvScenario":
        """Angles at which the Bell value takes its closed form.

        These correspond, under theta = 2 pi a/(s+1), to the phase offsets
        (0, 1/2, -1/4, 1/4) that make the discrete sharp-binned test
        optimal in even dimension d = s+1.
        """
        s = _as_odd_cutoff(s)
        step = math.pi / (s + 1)
        return cls(s=s, r=r, theta=0.0, theta_p=step, phi=-step / 2.0, phi_p=step / 2.0)

    def angle_separation(self) -> float:
        return min(abs(self.theta_p - self.theta), abs(self.phi_p - self.phi))


def _schmidt_correlation(amplitudes: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    # <psi| A (x) B |psi> for a Schmidt-diagonal |psi> = sum c_n |n,n>:
    # sum_{m,n} c_m c_n A[m,n] B[m,n].  Never forms the (s+1)^2 product.
    return float(np.real(amplitudes @ (a * b) @ amplitudes))


def cv_bell_expectation(scenario: CvScenario) -> float:
    """Bell value of the phase-parity test on the truncated squeezed state.

    Computed from explicit parity matrices contracted through the Schmidt
    form of the state.  At the reference angles it agrees with
    tmss_bell_closed_form to machine precision.  The four matrices depend
    only on s and the angles, and come from _phase_parity_matrix's cache.
    """
    if scenario.angle_separation() < ANGLE_DEGENERACY_THRESHOLD:
        warnings.warn(
            f"angle separation {scenario.angle_separation():.4g} rad is below "
            f"{ANGLE_DEGENERACY_THRESHOLD}; the two local settings are nearly "
            "indistinguishable",
            AngleDegeneracyWarning,
            stacklevel=2,
        )
    state = TruncatedTmss.build(scenario.s, scenario.r)
    pi_theta = _phase_parity_matrix(scenario.s, scenario.theta)
    pi_theta_p = _phase_parity_matrix(scenario.s, scenario.theta_p)
    pi_phi = _phase_parity_matrix(scenario.s, scenario.phi)
    pi_phi_p = _phase_parity_matrix(scenario.s, scenario.phi_p)
    c = state.amplitudes
    return (
        _schmidt_correlation(c, pi_theta, pi_phi)
        + _schmidt_correlation(c, pi_theta, pi_phi_p)
        + _schmidt_correlation(c, pi_theta_p, pi_phi)
        - _schmidt_correlation(c, pi_theta_p, pi_phi_p)
    )


def tmss_bell_closed_form(s: int, r: float) -> float:
    """Closed-form Bell value at the reference angles.

    4 sqrt(2) tanh^((s+1)/2) r / (1 + tanh^(s+1) r); strictly increasing
    in r with supremum 2 sqrt(2).
    """
    s = _as_odd_cutoff(s)
    r = _as_positive_float(r, "squeezing r")
    t = math.tanh(r)
    half = (s + 1) // 2
    return 4.0 * math.sqrt(2.0) * t**half / (1.0 + t ** (s + 1))


@dataclasses.dataclass(frozen=True)
class ViolationThreshold:
    """Minimum squeezing for a Bell value of 2 sqrt(2) - delta."""

    s: int
    delta: float
    f_value: float
    r_min: float


def squeezing_threshold(s: int, delta: float) -> ViolationThreshold:
    """Squeezing needed to come within delta of the quantum bound.

    Valid for 0 < delta < 2 sqrt(2) - 2, so the target value still exceeds
    the local-realistic bound 2.  The returned r_min satisfies
    tmss_bell_closed_form(s, r_min) = 2 sqrt(2) - delta; the round trip is
    checked to 1e-9 before returning.
    """
    s = _as_odd_cutoff(s)
    delta = float(delta)
    if not 0.0 < delta < SQRT8 - 2.0:
        raise ValueError(
            f"delta must lie in (0, {SQRT8 - 2.0:.12g}) so the target exceeds "
            f"the local-realistic bound 2, got {delta}"
        )
    discriminant = 4.0 * math.sqrt(2.0) * delta - delta**2
    f_value = ((SQRT8 - math.sqrt(discriminant)) / (SQRT8 - delta)) ** (2.0 / (s + 1))
    r_min = math.atanh(f_value)
    round_trip = tmss_bell_closed_form(s, r_min) - (SQRT8 - delta)
    if not abs(round_trip) <= 1e-9:
        raise ArithmeticError(
            f"threshold round trip failed for s={s}, delta={delta}: "
            f"residual {round_trip:.3e}"
        )
    return ViolationThreshold(s=s, delta=delta, f_value=f_value, r_min=r_min)


def violation_boundary_r(s: int) -> float:
    """Squeezing at which the Bell value first reaches the bound 2.

    Boundary of the violating region; solves the closed form equal to 2,
    giving r = artanh((sqrt(2) - 1)^(2/(s+1))).
    """
    s = _as_odd_cutoff(s)
    return math.atanh((math.sqrt(2.0) - 1.0) ** (2.0 / (s + 1)))


def tmss_tail_mass(cutoff_fock: int, r: float) -> float:
    """Probability the untruncated squeezed state carries beyond the cutoff.

    The number distribution is geometric, so the tail beyond N is
    tanh(r)^(2(N+1)).
    """
    cutoff_fock = operator.index(cutoff_fock)
    if cutoff_fock < 0:
        raise ValueError(f"Fock cutoff must be >= 0, got {cutoff_fock}")
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"squeezing r must be finite and >= 0, got {r}")
    return math.tanh(r) ** (2 * (cutoff_fock + 1))


def required_fock_cutoff(r: float) -> int:
    """Smallest Fock cutoff keeping the squeezed-state tail below DEFAULT_TAIL_MASS.

    The cutoff grows like exp(2r) for large r.  The displaced-parity
    reference builds dense (cutoff+1)^2 matrices from one eigendecomposition
    of that size: at r = 3 (cutoff 2,322) one bw_bell_value call takes
    about 5 s and up to 0.4 GB on one CPU core with single-threaded BLAS, and
    r = 5 already asks for 126,794.
    """
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"squeezing r must be finite and >= 0, got {r}")
    t = math.tanh(r)
    if t == 0.0:
        return 0
    if t == 1.0:
        # No cutoff bounds a tail that rounds to 1; bisect for the last r below.
        lo, hi = 0.0, r
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (mid, hi) if math.tanh(mid) < 1.0 else (lo, mid)
        raise ValueError(f"tanh({r}) rounds to 1 and no cutoff bounds the tail; "
                         f"the largest usable r is {lo!r}")
    cutoff = math.ceil(math.log(DEFAULT_TAIL_MASS) / (2.0 * math.log(t)) - 1.0)
    cutoff = max(cutoff, 0)
    while tmss_tail_mass(cutoff, r) >= DEFAULT_TAIL_MASS:
        cutoff += 1
    return cutoff


def _check_fock_cutoff(cutoff_fock: int, r: float) -> int:
    cutoff_fock = operator.index(cutoff_fock)
    if cutoff_fock < 1:
        raise ValueError(f"Fock cutoff must be >= 1, got {cutoff_fock}")
    if tmss_tail_mass(cutoff_fock, r) >= DEFAULT_TAIL_MASS:
        raise FockCutoffError(
            f"Fock cutoff {cutoff_fock} leaves tail mass "
            f"{tmss_tail_mass(cutoff_fock, r):.3e} >= {DEFAULT_TAIL_MASS:.3e} at r={r}; "
            f"use cutoff >= {required_fock_cutoff(r)} (the displaced-parity "
            f"reference builds dense (cutoff+1)^2 matrices; at r = 3, cutoff 2,322, "
            f"one evaluation takes about 5 s and up to 0.4 GB)"
        )
    return cutoff_fock


def _tmss_amplitudes(cutoff_fock: int, r: float) -> np.ndarray:
    # Schmidt amplitudes of the squeezed state in the cutoff space,
    # renormalized; the discarded tail is below the admission threshold.
    t = math.tanh(r)
    amp = t ** np.arange(cutoff_fock + 1)
    return amp / math.sqrt(float(amp @ amp))


@functools.lru_cache(maxsize=1)
def _displacement_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (lam, V, signs) shared by every displaced parity in one Fock space.

    The last dimension's spectrum is kept, so consecutive reference checks
    at one cutoff (the free and anchored searches at one r) share one eigh;
    it holds dim^2 floats, 0.8 MB at r = 2 and 43 MB at r = 3.

    T = V diag(lam) V^T, and exp(x (a^dagger - a)) = S exp(-i x T) S^dagger.
    T couples n only to n +/- 1, so cos(x T) lives on even m - n and
    sin(x T) on odd m - n, and conjugation by S = diag(i^n) turns
    V (cos + sin)(x lam) V^T into exp(x (a^dagger - a)) once entry (m, n)
    is multiplied by +1 where (m - n) mod 4 is 0 or 1 and by -1 otherwise.
    That pattern times the parity (-1)^n of column n is the same for rows m
    and m + 4, so signs holds only its first four rows: row m of the matrix
    takes signs[m % 4].
    """
    n = np.arange(dim)
    off = np.sqrt(n[1:].astype(float))
    lam, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    signs = np.where((n[:4, None] - n) % 4 < 2, 1.0, -1.0) * (-1.0) ** n
    for array in (lam, v, signs):
        array.setflags(write=False)
    return lam, v, signs


def _displaced_parity(lam: np.ndarray, v: np.ndarray, signs: np.ndarray,
                      alpha: complex) -> np.ndarray:
    # D(2|alpha|) P from the shared spectrum, then D(2 alpha) P =
    # R D(2|alpha|) P R^dagger with R = diag(e^{i n arg alpha}), which
    # commutes with P; for negative real alpha R = diag((-1)^n) exactly.
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


def displaced_parity_matrix(cutoff_fock: int, alpha: complex) -> np.ndarray:
    """Displaced parity D(alpha) P D(alpha)^dagger in the cutoff Fock basis.

    Parity anticommutes with the displacement generator even after
    truncation, so the product collapses exactly to D(2 alpha) P.  D(2 alpha)
    is the exponential of the truncated generator 2(alpha a^dagger -
    alpha^* a).  With S = diag(i^n), a^dagger - a = S (-i T) S^dagger for
    the real symmetric tridiagonal T with off-diagonals sqrt(n), so one
    eigendecomposition of T gives D(2|alpha|), and R = diag(e^{i n arg alpha})
    rotates it to D(2 alpha) = R D(2|alpha|) R^dagger.  This is the
    reference route, independent of the closed form the searches use.  Real
    alpha (no imaginary part) gives a float64 matrix, any other a complex one.
    """
    cutoff_fock = operator.index(cutoff_fock)
    if cutoff_fock < 1:
        raise ValueError(f"Fock cutoff must be >= 1, got {cutoff_fock}")
    return _displaced_parity(*_displacement_spectrum(cutoff_fock + 1), alpha)


def _parity_correlation(r: float, alpha, beta):
    """Closed-form E(alpha, beta) on the untruncated squeezed state, elementwise.

    Broadcasts alpha against beta, real or complex; E lies in (0, 1] because
    the exponent is at most -2 exp(-2r)(|alpha|^2 + |beta|^2).
    """
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return np.exp(-2.0 * c * (np.abs(alpha) ** 2 + np.abs(beta) ** 2)
                  + 4.0 * s * np.real(alpha * beta))


def bw_bell_value(
    cutoff_fock: int,
    r: float,
    alphas: tuple[complex, complex],
    betas: tuple[complex, complex],
) -> float:
    """Displaced-parity Bell value at explicit displacement settings.

    Builds the two parity matrices per party from the truncated generator,
    all four from one shared eigendecomposition (see
    displaced_parity_matrix), and contracts through the Schmidt form;
    serves as the reference route for the closed-form search.  A second
    call at the same cutoff reuses the decomposition (_displacement_spectrum).
    """
    cutoff_fock = _check_fock_cutoff(cutoff_fock, r)
    c = _tmss_amplitudes(cutoff_fock, r)
    spectrum = _displacement_spectrum(cutoff_fock + 1)
    pb = [_displaced_parity(*spectrum, beta) for beta in betas]
    e = []
    for alpha in alphas:
        # One alpha matrix at a time, freed before the next one is built.
        pa = _displaced_parity(*spectrum, alpha)
        e += [_schmidt_correlation(c, pa, q) for q in pb]
        del pa
    return e[0] + e[1] + e[2] - e[3]


def _grid_starts(r: float, anchor_zero: bool, grid_radius: float, count: int) -> np.ndarray:
    """Real settings on a displacement grid, (alpha, beta) anchored or
    (alpha, alpha', beta, beta') free: the first maximum of each alpha row,
    for the count best rows (at most _GRID_POINTS), best first.

    The free _GRID_POINTS^4 table is built one alpha row at a time, in
    _chsh_table's term order.  Rows of equal maxima keep their order, so the
    first start is the first maximum of the whole table in C order.
    """
    grid = np.linspace(-grid_radius, grid_radius, _GRID_POINTS)
    table = _parity_correlation(r, grid[:, None], grid[None, :])
    # Settings are 0 and alpha for one party, 0 and beta for the other:
    # B = E(0,0) + E(0,beta) + E(alpha,0) - E(alpha,beta), with E(0,0) = 1.
    zero = _parity_correlation(r, grid, 0.0)
    shape = (_GRID_POINTS,) * (1 if anchor_zero else 3)
    firsts, maxima = [], []
    for i in range(_GRID_POINTS):
        if anchor_zero:
            row = 1.0 + zero + zero[i] - table[i]
        else:
            # x + (-y) is x - y exactly, so this is E + E + E - E bit for bit.
            row = _chsh_table(table[i:i + 1], table[i:i + 1], table, -table).ravel()
        firsts.append(int(np.argmax(row)))
        maxima.append(row[firsts[-1]])
    rows = np.argsort(-np.array(maxima), kind="stable")[:count]
    return grid[np.array([(i, *np.unravel_index(firsts[i], shape)) for i in rows])]


# The Bell sum's terms E(alpha_a, beta_b) in _chsh_table order, as indices
# into (alpha, alpha', beta, beta'), and their signs.
_TERMS = ((0, 2), (0, 3), (1, 2), (1, 3))
_TERM_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])


def _exponent_forms(r: float) -> np.ndarray:
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


def _search_displacements(params: np.ndarray, anchor_zero: bool, is_complex: bool) -> np.ndarray:
    """(alpha, alpha', beta, beta') at search parameters (..., k): k = 8 interleaves
    real and imaginary parts, k = 2 anchors alpha = beta = 0, k = 4 is the identity.

    The complex view keeps the sign of a zero part, where re + 1j * im would
    drop it.  No output reads that sign: |z|^2 squares it, in Re(alpha beta)
    it can only flip the sign of a zero exponent, and exp(-0.0) == exp(0.0),
    and _displaced_parity tests alpha.imag == 0.0.
    """
    if is_complex:
        return np.ascontiguousarray(params, dtype=float).view(complex)
    if anchor_zero:
        z = np.zeros(params.shape[:-1] + (4,))
        z[..., 1], z[..., 3] = params[..., 0], params[..., 1]
        return z
    return params


def _bell_value(r: float, z: np.ndarray) -> np.ndarray:
    """Closed-form Bell values at displacements z[..., :] = (alpha, alpha', beta, beta')."""
    e = _parity_correlation(r, z[..., :2, None], z[..., None, 2:])
    return e[..., 0, 0] + e[..., 0, 1] + e[..., 1, 0] - e[..., 1, 1]


def _bell_derivatives(forms: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form Bell sum at search parameters x, with its gradient and Hessian.

    forms are the rows and columns of _exponent_forms at the coordinates x
    holds.  Each term is E = exp(x^T Q x / 2), so its gradient is E Q x and
    its Hessian E (Q + Q x x^T Q).
    """
    qx = forms @ x
    e = _TERM_SIGNS * np.exp(0.5 * (qx @ x))
    return e.sum(), e @ qx, np.tensordot(e, forms, 1) + (qx.T * e) @ qx


def _best_displacements(r: float, anchor_zero: bool, complex_displacements: bool,
                        restarts: int) -> np.ndarray:
    """(alpha, alpha', beta, beta') at the best optimum found by the search of
    bw_displaced_parity_max; complex only for complex_displacements."""
    grid_radius = max(1.2 * math.exp(-r), 0.05)
    starts = _grid_starts(r, anchor_zero, grid_radius, restarts + 1)
    # The coordinates of _exponent_forms that the search moves; the rest are 0.
    if complex_displacements:
        coordinates = [0, 2, 3, 4, 5, 6, 7]  # Im alpha = 0
        full = np.zeros((len(starts), 8))
        full[:, 0::2] = starts
        starts = full[:, coordinates]
    else:
        coordinates = [2, 6] if anchor_zero else [0, 2, 4, 6]
    forms = _exponent_forms(r)[:, coordinates][:, :, coordinates]
    fgh = functools.partial(_bell_derivatives, forms)
    runs = [newton_ascent(fgh, x0, xtol=1e-14 * grid_radius) for x0 in starts]
    x, _ = max(runs, key=lambda run: run[1])  # the first of equal values
    if complex_displacements:
        x = np.insert(x, 1, 0.0)
    return _search_displacements(x, anchor_zero, complex_displacements)


def bw_displaced_parity_max(
    cutoff_fock: int,
    r: float,
    *,
    anchor_zero: bool = False,
    complex_displacements: bool = False,
    restarts: int = 4,
    seed: int = 0,
) -> float:
    """Best-found displaced-parity Bell value at squeezing r.

    By default all four displacements are real and free, which is the
    arrangement whose optimum over r plateaus near 2.32.  anchor_zero
    restricts each party's first setting to no displacement, a strictly
    weaker arrangement.  complex_displacements frees all eight real
    parameters.  The closed form depends on them only through |alpha|,
    |beta| and Re(alpha beta), so one common rotation alpha -> alpha e^{i phi},
    beta -> beta e^{-i phi} leaves the Bell sum unchanged; the search fixes
    that gauge with Im alpha = 0 and runs on the other 7.

    Starts come from a 21-point grid per axis over [-R, R],
    R = max(1.2 exp(-r), 0.05), since optimal displacements shrink roughly
    like exp(-r) (_grid_starts): the first maximum of the best alpha row,
    then of the next-best rows, 1 + restarts starts in all (at most 21).
    Complex starts have zero imaginary parts.  Each start runs one Newton
    ascent (_newton.newton_ascent) on the exact gradient and Hessian of the
    closed form (_bell_derivatives) and stops at a step below 1e-14 R; a
    later start wins only if strictly better.  Nothing is random: seed is
    accepted and ignored.  The returned value is the truncated reference,
    bw_bell_value, at the optimum found; if it disagrees with the closed
    form by more than 1e-8, or either is NaN, ArithmeticError is raised.
    Small squeezing needs a cutoff above required_fock_cutoff(r) for that
    check, because the optimal displacements then reach past the states
    the tail mass accounts for.
    """
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"squeezing r must be finite and >= 0, got {r}")
    cutoff_fock = _check_fock_cutoff(cutoff_fock, r)
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    if anchor_zero and complex_displacements:
        raise ValueError("anchor_zero applies to real displacements only")
    z = _best_displacements(r, anchor_zero, complex_displacements, restarts)
    value = float(_bell_value(r, z))
    check = bw_bell_value(cutoff_fock, r, tuple(z[:2]), tuple(z[2:]))
    if not abs(check - value) <= 1e-8:
        raise ArithmeticError(
            f"displaced-parity closed form {value!r} disagrees with the truncated "
            f"reference {check!r} at cutoff_fock={cutoff_fock} by more than 1e-8; "
            f"raise cutoff_fock so the reference also covers the displacements"
        )
    return check
