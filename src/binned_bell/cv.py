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

The reference angles are optimal at every r.  With h = (s+1)/2,
Pi(theta)[m, n] = e^{i(m-n) theta} (1/(s+1)) sum_k e^{2 pi i k (m-n+h)/(s+1)}
vanishes unless m - n = +-h, where it is e^{+-i h theta}.  So on the
Schmidt form sum_n c_n |n, n> each correlation is

    E(theta, phi) = sum_{m,n} c_m c_n Pi(theta)[m, n] Pi(phi)[m, n]
                  = C cos(h (theta + phi)),
    C = 2 sum_{n<h} c_n c_{n+h} = 2 tanh^h r / (1 + tanh^(s+1) r) >= 0.

The Bell combination is C times cos(x+y) + cos(x+y') + cos(x'+y) -
cos(x'+y') with x = h theta, y = h phi and so on.  Each cosine is the dot
product of the plane unit vectors at angles x and -y, so this is a CHSH sum
that no angles lift above 2 sqrt(2), and the reference angles reach it.
So B(s, r) = 2 sqrt(2) C is the maximum over all four angles, and
squeezing_threshold and violation_boundary_r give the least squeezing over
every choice of angles.

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
r = 0.8-2.0.  The search runs Newton ascents on this closed form and its
exact derivatives over real displacements, and never builds a matrix; a
complex search from its starts stays on the real slice, so complex
displacements select the same search.  The independent
reference that re-checks each returned optimum (displaced_parity_matrix,
bw_bell_value) exponentiates the truncated generator instead.  Its real
tridiagonal generator couples even levels only to odd ones, so one SVD of
the half-size even-odd block gives the spectrum, and bw_bell_value contracts
the Schmidt form through two half-size Gram products without building any
parity matrix.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import warnings

import numpy as np

from ._newton import newton_ascent
from .lr_polytope import _as_index, _chsh_table

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
    displaced-parity reference's cost grows like the cube of the cutoff,
    which bounds the practical squeezing (see required_fock_cutoff).
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


def _as_squeezing(r: float) -> float:
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"squeezing r must be finite and >= 0, got {r}")
    return r


def _as_fock_cutoff(cutoff_fock: int) -> int:
    cutoff_fock = operator.index(cutoff_fock)
    if cutoff_fock < 1:
        raise ValueError(f"Fock cutoff must be >= 1, got {cutoff_fock}")
    return cutoff_fock


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
        r = _as_squeezing(r)
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
    r = _as_squeezing(r)
    return math.tanh(r) ** (2 * (cutoff_fock + 1))


def required_fock_cutoff(r: float) -> int:
    """Smallest Fock cutoff keeping the squeezed-state tail below DEFAULT_TAIL_MASS.

    The cutoff grows like exp(2r) for large r.  The displaced-parity
    reference takes one SVD of a half-size block of the generator and two
    half-size products (see bw_bell_value): at r = 3 (cutoff 2,322) one
    bw_bell_value call takes about 1 s and 0.12 GB with real settings, and
    2 s and 0.15 GB with complex ones, on one CPU core with single-threaded
    BLAS; r = 5 already asks for 126,794.
    """
    r = _as_squeezing(r)
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
    cutoff_fock = _as_fock_cutoff(cutoff_fock)
    if tmss_tail_mass(cutoff_fock, r) >= DEFAULT_TAIL_MASS:
        raise FockCutoffError(
            f"Fock cutoff {cutoff_fock} leaves tail mass "
            f"{tmss_tail_mass(cutoff_fock, r):.3e} >= {DEFAULT_TAIL_MASS:.3e} at r={r}; "
            f"use cutoff >= {required_fock_cutoff(r)} (the displaced-parity "
            f"reference's cost grows like (cutoff+1)^3; at r = 3, cutoff 2,322, "
            f"one evaluation takes about 1 s and up to 0.15 GB)"
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
    """Read-only (sigma, U, W) shared by every displaced parity in one Fock space.

    T, the real symmetric tridiagonal matrix with off-diagonals sqrt(n),
    couples even levels only to odd ones: T = [[0, B], [B^T, 0]] in the
    (even, odd) ordering, with B = T[0::2, 1::2] lower bidiagonal,
    ceil(dim/2) x floor(dim/2).  One SVD B = U diag(sigma) W^T gives the
    whole spectrum: [u; +-w]/sqrt(2) are eigenvectors of T with eigenvalues
    +-sigma.  For odd dim the unpaired zero mode [u; 0] adds a 0 to sigma
    and a zero column to W, so sigma, U and W all have ceil(dim/2) columns.

    The SVD is taken of the square matrix B^T, with a zero row appended for
    odd dim; that row gives the zero mode a singular value and a W column
    that vanish to rounding.  Over random settings at cutoffs 1-314 this keeps bw_bell_value within
    8.3e-15 of the dense route; an SVD of the tall B gave 1.6e-14, at odd
    dim, and one of the unpadded B^T moved the r = 0.1 optimum at cutoff 8
    by 6 ulps.

    The last dimension's decomposition is kept, so consecutive reference
    checks at one cutoff (the free and anchored searches at one r) share one
    SVD; it holds about dim^2/2 floats, 0.4 MB at r = 2 and 22 MB at r = 3.
    """
    half, pairs = (dim + 1) // 2, dim // 2
    bt = np.zeros((half, half))
    j = np.arange(pairs)
    bt[j, j] = np.sqrt(2.0 * j + 1.0)
    j = j[: half - 1]
    bt[j, j + 1] = np.sqrt(2.0 * j + 2.0)
    w, sigma, ut = np.linalg.svd(bt)
    u, w = ut.T, w[:pairs]
    for array in (sigma, u, w):
        array.setflags(write=False)
    return sigma, u, w


def _signed_polar(alpha: complex) -> tuple[float, float]:
    # alpha = rho e^{i phi} with rho signed and phi in (-pi/2, pi/2]; real
    # alpha, of either sign, has phi = 0 and rho = alpha.
    alpha = complex(alpha)
    if alpha.imag == 0.0:
        return alpha.real, 0.0
    if alpha.real == 0.0:
        return alpha.imag, math.pi / 2.0
    return math.copysign(abs(alpha), alpha.real), math.atan(alpha.imag / alpha.real)


def displaced_parity_matrix(cutoff_fock: int, alpha: complex) -> np.ndarray:
    """Displaced parity D(alpha) P D(alpha)^dagger in the cutoff Fock basis.

    Parity anticommutes with the displacement generator even after
    truncation, so the product collapses exactly to D(2 alpha) P.  D(2 alpha)
    is the exponential of the truncated generator 2(alpha a^dagger -
    alpha^* a).  With S = diag(i^n), a^dagger - a = S (-i T) S^dagger for
    the tridiagonal T of _displacement_spectrum, so for real x

        D(2x) P = Sigma o (V (cos + sin)(x Lambda) V^T),  T = V Lambda V^T,

    where Sigma[m, n] = +-1 (+1 where (m - n) mod 4 is 0 or 1, times the
    parity (-1)^n) and o is the entrywise product.  In the (even, odd)
    blocks V (cos + sin)(x Lambda) V^T is U C U^T, U S W^T, W S U^T and
    W C W^T, with C = diag(cos(x sigma)) and S = diag(sin(x sigma)).
    Writing alpha = rho e^{i phi} with rho signed and phi in (-pi/2, pi/2],
    R = diag(e^{i n phi}) rotates D(2 rho) P to D(2 alpha) P = R D(2 rho) P
    R^dagger.  This is the reference route, independent of the closed form
    the searches use.  Real alpha (no imaginary part) gives a float64
    matrix, any other a complex one.
    """
    dim = _as_fock_cutoff(cutoff_fock) + 1
    sigma, u, w = _displacement_spectrum(dim)
    rho, phi = _signed_polar(alpha)
    cos, sin = np.cos(2.0 * rho * sigma), np.sin(2.0 * rho * sigma)
    matrix = np.empty((dim, dim))
    matrix[0::2, 0::2] = (u * cos) @ u.T
    matrix[0::2, 1::2] = (u * sin) @ w.T
    matrix[1::2, 0::2] = matrix[0::2, 1::2].T
    matrix[1::2, 1::2] = (w * cos) @ w.T
    n = np.arange(dim)
    # Sigma's rows m and m + 4 are equal, so four rows of signs cover it.
    for k, row in enumerate(np.where((n[:4, None] - n) % 4 < 2, 1.0, -1.0) * (-1.0) ** n):
        matrix[k::4] *= row
    if phi == 0.0:
        return matrix
    rotation = np.exp(1j * phi * n)
    matrix = rotation[:, None] * matrix
    matrix *= rotation.conj()
    return matrix


def _parity_correlation(r: float, alpha, beta):
    """Closed-form E(alpha, beta) on the untruncated squeezed state, elementwise.

    Broadcasts alpha against beta, real or complex; E lies in (0, 1] because
    the exponent is at most -2 exp(-2r)(|alpha|^2 + |beta|^2).
    """
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return np.exp(-2.0 * c * (np.abs(alpha) ** 2 + np.abs(beta) ** 2)
                  + 4.0 * s * np.real(alpha * beta))


def _gram_kernels(u: np.ndarray, w: np.ndarray, c: np.ndarray,
                  psi: float) -> tuple[np.ndarray, np.ndarray]:
    # |X|^2 + |Y|^2 and 2 Re(X o conj(Y)) for X = U^T diag(c_even) U and
    # Y = W^T diag(c_odd) W, with c_n rotated by e^{i n psi}; X and Y are
    # formed as real and imaginary parts, so real settings take one product
    # per block and complex ones two.
    n = np.arange(c.size)
    parts = [c] if psi == 0.0 else [c * np.cos(psi * n), c * np.sin(psi * n)]
    xs = [(u.T * part[0::2]) @ u for part in parts]
    ys = [(w.T * part[1::2]) @ w for part in parts]
    squares = sum(x * x for x in xs) + sum(y * y for y in ys)
    return squares, 2.0 * sum(x * y for x, y in zip(xs, ys))


def bw_bell_value(
    cutoff_fock: int,
    r: float,
    alphas: tuple[complex, complex],
    betas: tuple[complex, complex],
) -> float:
    """Displaced-parity Bell value at explicit displacement settings.

    The reference route for the closed-form search: the parity matrices of
    displaced_parity_matrix, contracted through the Schmidt form
    sum_{m,n} c_m c_n A[m,n] B[m,n], without forming any dim x dim matrix.
    The sign pattern Sigma is the same for both parties and Sigma o Sigma
    = 1, so for real settings the contraction is sum_{i,j} f_a,i f_b,j
    V_i^T diag(c) V_j squared, f_x = (cos + sin)(2 x Lambda).  In the
    (sigma, U, W) of _displacement_spectrum that is

        E(alpha, beta) = cos_a^T (X o X + Y o Y) cos_b
                         + 2 sin_a^T (X o Y) sin_b,

    with cos_x = cos(2 x sigma), sin_x = sin(2 x sigma), X = U^T diag(c_even) U
    and Y = W^T diag(c_odd) W: two half-size products.  Complex settings
    alpha = rho e^{i phi} (rho signed, phi in (-pi/2, pi/2]) enter as c_n
    e^{i n (phi_alpha + phi_beta)}, with |X|^2, |Y|^2 and Re(X o conj(Y))
    in place of the squares.  A second call at the same cutoff reuses the
    decomposition (_displacement_spectrum).
    """
    cutoff_fock = _check_fock_cutoff(cutoff_fock, r)
    c = _tmss_amplitudes(cutoff_fock, r)
    sigma, u, w = _displacement_spectrum(cutoff_fock + 1)
    psi, e = None, []
    for rho_a, phi_a in map(_signed_polar, alphas):
        for rho_b, phi_b in map(_signed_polar, betas):
            # Real settings share one pair of kernels; complex ones take one
            # pair per phase sum, built only when the sum changes.
            if phi_a + phi_b != psi:
                psi = phi_a + phi_b
                squares, cross = _gram_kernels(u, w, c, psi)
            e.append(np.cos(2.0 * rho_a * sigma) @ squares @ np.cos(2.0 * rho_b * sigma)
                     + np.sin(2.0 * rho_a * sigma) @ cross @ np.sin(2.0 * rho_b * sigma))
    return float(e[0] + e[1] + e[2] - e[3])


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
    """Q (4, 4, 4) with E(alpha_a, beta_b) = exp(z^T Q[ab] z / 2) for term ab.

    z = (alpha, alpha', beta, beta') is real, and the exponent of
    E(alpha, beta) is -2c(alpha^2 + beta^2) + 4s alpha beta, c = cosh 2r,
    s = sinh 2r.
    """
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    q = np.zeros((4, 4, 4))
    for k, (a, b) in enumerate(_TERMS):
        q[k, a, a] = q[k, b, b] = -4.0 * c
        q[k, a, b] = q[k, b, a] = 4.0 * s
    return q


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


def _best_displacements(r: float, anchor_zero: bool, restarts: int) -> np.ndarray:
    """Real (alpha, alpha', beta, beta') at the best optimum found by the
    search of bw_displaced_parity_max."""
    grid_radius = max(1.2 * math.exp(-r), 0.05)
    starts = _grid_starts(r, anchor_zero, grid_radius, restarts + 1)
    # The coordinates of z that the search moves; the anchored ones stay 0.
    moved = [1, 3] if anchor_zero else [0, 1, 2, 3]
    forms = _exponent_forms(r)[:, moved][:, :, moved]
    fgh = functools.partial(_bell_derivatives, forms)
    runs = [newton_ascent(fgh, x0, xtol=1e-14 * grid_radius) for x0 in starts]
    z = np.zeros(4)
    z[moved], _ = max(runs, key=lambda run: run[1])  # the first of equal values
    return z


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
    weaker arrangement.  complex_displacements=True runs the same real search
    and returns the same value; the keyword stays for callers that pass it.
    The closed form depends on complex
    displacements only through |alpha|, |beta| and Re(alpha beta), and is
    unchanged when every imaginary part flips sign, so a complex search from
    the real grid starts has zero imaginary gradient and never leaves the
    real slice.  The gauge-fixed 7-parameter complex search is the tests'
    reference (tests/reference_complex_search.py); from random complex starts
    it ends no more than rounding above the real optimum, though no proof
    yet rules out a higher complex optimum.

    Starts come from a 21-point grid per axis over [-R, R],
    R = max(1.2 exp(-r), 0.05), since optimal displacements shrink roughly
    like exp(-r) (_grid_starts): the first maximum of the best alpha row,
    then of the next-best rows, 1 + restarts starts in all (at most 21).
    Each start runs one Newton ascent (_newton.newton_ascent) on the exact
    gradient and Hessian of the closed form (_bell_derivatives) and stops
    at a step below 1e-14 R; a later start wins only if strictly better.
    Nothing is random: seed is accepted and ignored.  The returned value is
    the truncated reference, bw_bell_value, at the optimum found; if it
    disagrees with the closed form by more than 1e-8, or either is NaN,
    ArithmeticError is raised.  Small squeezing needs a cutoff above
    required_fock_cutoff(r) for that check, because the optimal
    displacements then reach past the states the tail mass accounts for.
    """
    r = _as_squeezing(r)
    cutoff_fock = _check_fock_cutoff(cutoff_fock, r)
    restarts = _as_index(restarts, "restarts")
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    if anchor_zero and complex_displacements:
        raise ValueError("anchor_zero applies to real displacements only")
    z = _best_displacements(r, anchor_zero, restarts)
    value = float(_bell_value(r, z))
    check = bw_bell_value(cutoff_fock, r, tuple(z[:2]), tuple(z[2:]))
    if not abs(check - value) <= 1e-8:
        raise ArithmeticError(
            f"displaced-parity closed form {value!r} disagrees with the truncated "
            f"reference {check!r} at cutoff_fock={cutoff_fock} by more than 1e-8; "
            f"raise cutoff_fock so the reference also covers the displacements"
        )
    return check
