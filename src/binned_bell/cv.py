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
The search never exponentiates a matrix: with alpha = rho exp(i theta) and
R = diag(exp(i n theta)), the truncated generator 2(alpha a^dagger -
alpha^* a) equals R 2 rho (a^dagger - a) R^dagger exactly, so one eigh of
H = i(a^dagger - a) = Phi mu Phi^dagger gives

    D(2 alpha) = (R Phi) diag(exp(-2i rho mu)) (R Phi)^dagger

for every complex alpha.  Real displacements stay in real arithmetic.  H is
the real symmetric a + a^dagger in disguise, i(a^dagger - a) =
diag(i^n) (a + a^dagger) diag(i^n)^dagger, and D(2 alpha) = exp(2 alpha
(a^dagger - a)) is a real matrix for real alpha.  With u = exp(-2i alpha mu)
= C - iS and the real weights W = |Phi^T diag(c) Phi|^2, a correlation is
E(alpha, beta) = C W C'^T - S W S'^T, so the real search and its seeding
grid use real cos/sin tables and real matrix products only.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import warnings

import numpy as np

from ._nelder_mead import _nelder_mead_lockstep
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
    "PhaseParityOperator",
    "ViolationThreshold",
    "phase_state",
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
    displaced-parity routes build dense (cutoff+1)^2 matrices, so they are
    practical up to about r = 3 (see required_fock_cutoff).
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


def phase_state(s: int, theta: float, k: int) -> np.ndarray:
    """Return the phase state |theta, k> in the number basis.

    Components are exp(i n theta_k)/sqrt(s+1) with theta_k = theta +
    2 pi k/(s+1).  For fixed theta the s+1 states are orthonormal.
    """
    s = _as_odd_cutoff(s)
    k = operator.index(k)
    if not 0 <= k <= s:
        raise ValueError(f"phase index k must lie in [0, {s}], got {k}")
    theta_k = float(theta) + 2.0 * math.pi * k / (s + 1)
    n = np.arange(s + 1)
    return np.exp(1j * n * theta_k) / math.sqrt(s + 1)


def _phase_parity_matrix(s: int, theta: float) -> np.ndarray:
    # Pi(theta) = V diag((-1)^k) V^dagger with V holding the phase states
    # as columns; built from the definition rather than its sparse
    # closed form so the closed form stays an independent cross-check.
    n = np.arange(s + 1)[:, None]
    k = np.arange(s + 1)[None, :]
    theta_k = float(theta) + 2.0 * math.pi * k / (s + 1)
    v = np.exp(1j * n * theta_k) / math.sqrt(s + 1)
    signs = np.where(np.arange(s + 1) % 2 == 0, 1.0, -1.0)
    return (v * signs) @ v.conj().T


@dataclasses.dataclass(frozen=True)
class PhaseParityOperator:
    """Parity observable Pi(theta) in the truncated number basis."""

    s: int
    theta: float
    matrix: np.ndarray

    @classmethod
    def build(cls, s: int, theta: float) -> "PhaseParityOperator":
        s = _as_odd_cutoff(s)
        theta = float(theta)
        matrix = _phase_parity_matrix(s, theta)
        matrix.setflags(write=False)
        return cls(s=s, theta=theta, matrix=matrix)

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def involution_residual(self) -> float:
        """Max deviation of Pi^2 from the identity."""
        eye = np.eye(self.s + 1)
        return float(np.max(np.abs(self.matrix @ self.matrix - eye)))


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
    tmss_bell_closed_form to machine precision.
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

    The cutoff grows like exp(2r) for large r.  The displaced-parity routes
    build dense (cutoff+1)^2 matrices, so they are practical up to about
    r = 3 (cutoff 2,322); r = 5 already asks for 126,794.
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
            f"routes build dense (cutoff+1)^2 matrices, practical up to about r = 3)"
        )
    return cutoff_fock


def _tmss_amplitudes(cutoff_fock: int, r: float) -> np.ndarray:
    # Schmidt amplitudes of the squeezed state in the cutoff space,
    # renormalized; the discarded tail is below the admission threshold.
    t = math.tanh(r)
    amp = t ** np.arange(cutoff_fock + 1)
    return amp / math.sqrt(float(amp @ amp))


def _annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim))
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def displaced_parity_matrix(cutoff_fock: int, alpha: complex) -> np.ndarray:
    """Displaced parity D(alpha) P D(alpha)^dagger in the cutoff Fock basis.

    Parity anticommutes with the displacement generator even after
    truncation, so the product collapses exactly to D(2 alpha) P.  D(2 alpha)
    comes from a matrix exponential of the generator, independent of the
    spectral route the searches use; this is the reference route.  For real
    alpha (no imaginary part) the generator 2 alpha (a^dagger - a) is real,
    so the exponential and the returned matrix are real.
    """
    import scipy.linalg

    cutoff_fock = operator.index(cutoff_fock)
    if cutoff_fock < 1:
        raise ValueError(f"Fock cutoff must be >= 1, got {cutoff_fock}")
    alpha = complex(alpha)
    a = _annihilation(cutoff_fock + 1)
    generator = 2.0 * (alpha * a.T - alpha.conjugate() * a)
    if alpha.imag == 0.0:
        generator = generator.real
    displacement = scipy.linalg.expm(generator)
    signs = np.where(np.arange(cutoff_fock + 1) % 2 == 0, 1.0, -1.0)
    return displacement * signs


class _DisplacementTables:
    """Spectral displaced-parity correlations for any displacements.

    With H = i(a^dagger - a) = Phi mu Phi^dagger, D(2 alpha) = (R Phi)
    diag(exp(-2i rho mu)) (R Phi)^dagger for alpha = rho exp(i theta) and
    R = diag(exp(i n theta)).  The parity signs cancel pairwise in the
    Schmidt contraction, so E(alpha, beta) = Re sum_mn c_m c_n
    D(2 alpha)_mn D(2 beta)_mn.  For real displacements (R = 1) this is

        E(alpha, beta) = Re[ u(alpha)^T W v(beta) ] = C W C'^T - S W S'^T,
        u_p(alpha) = exp(-2i alpha mu_p) = C_p - i S_p,  W = |Phi^T diag(c) Phi|^2,

    with W, C = cos(2 alpha mu) and S = sin(2 alpha mu) real, so a full
    displacement-grid correlation table is two real matrix products after
    one eigendecomposition.  bell_value takes a batch of points, real ones
    through that table and complex ones through D(2 alpha).
    """

    def __init__(self, cutoff_fock: int, r: float):
        dim = cutoff_fock + 1
        a = _annihilation(dim)
        mu, phi = np.linalg.eigh(1j * (a.conj().T - a))
        c = _tmss_amplitudes(cutoff_fock, r)
        g = phi.T @ (c[:, None] * phi)
        self.mu = mu
        self.phi = phi
        self.levels = np.arange(dim)
        self.schmidt_weights = np.outer(c, c)
        self.weights = np.abs(g) ** 2

    def displacements(self, alphas: np.ndarray) -> np.ndarray:
        """D(2 alpha) for each alpha, of shape alphas.shape + (dim, dim)."""
        alphas = np.asarray(alphas)[..., None]
        rotation = np.exp(1j * (np.angle(alphas) * self.levels))
        spectrum = np.exp(-2j * (np.abs(alphas) * self.mu))
        radial = (self.phi * spectrum[..., None, :]) @ self.phi.conj().T
        return rotation[..., :, None] * radial * rotation.conj()[..., None, :]

    def correlation_table(self, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """E(alpha_i, beta_j) for real displacements, stacked over leading axes.

        One product [C; S] @ W for the alphas, then C W C'^T - S W S'^T; a
        slice's value does not depend on the stack around it.
        """
        a = 2.0 * (alphas[..., None] * self.mu)
        b = 2.0 * (betas[..., None] * self.mu)
        uw = np.concatenate([np.cos(a), np.sin(a)], axis=-2) @ self.weights
        n = alphas.shape[-1]
        return (uw[..., :n, :] @ np.swapaxes(np.cos(b), -1, -2)
                - uw[..., n:, :] @ np.swapaxes(np.sin(b), -1, -2))

    def bell_value(self, x: np.ndarray) -> np.ndarray:
        """Bell values at displacements x[..., :] = (alpha, alpha', beta, beta').

        Every product is a stacked matmul with one point per slice, so a
        value does not depend on the batch around it.
        """
        x = np.asarray(x)
        if np.iscomplexobj(x):
            d = self.displacements(x)
            da = (self.schmidt_weights * d[..., :2, :, :]).reshape(x.shape[:-1] + (2, -1))
            db = d[..., 2:, :, :].reshape(x.shape[:-1] + (2, -1))
            table = np.real(da @ np.swapaxes(db, -1, -2))
        else:
            table = self.correlation_table(x[..., :2], x[..., 2:])
        return table[..., 0, 0] + table[..., 0, 1] + table[..., 1, 0] - table[..., 1, 1]


def bw_bell_value(
    cutoff_fock: int,
    r: float,
    alphas: tuple[complex, complex],
    betas: tuple[complex, complex],
) -> float:
    """Displaced-parity Bell value at explicit displacement settings.

    Builds the two parity matrices per party from the definition and
    contracts through the Schmidt form; serves as the reference route for
    the spectral search.
    """
    cutoff_fock = _check_fock_cutoff(cutoff_fock, r)
    c = _tmss_amplitudes(cutoff_fock, r)
    pa = [displaced_parity_matrix(cutoff_fock, alpha) for alpha in alphas]
    pb = [displaced_parity_matrix(cutoff_fock, beta) for beta in betas]
    return (
        _schmidt_correlation(c, pa[0], pb[0])
        + _schmidt_correlation(c, pa[0], pb[1])
        + _schmidt_correlation(c, pa[1], pb[0])
        - _schmidt_correlation(c, pa[1], pb[1])
    )


def _grid_start(tables: _DisplacementTables, anchor_zero: bool, grid_radius: float) -> np.ndarray:
    # Best real settings on a displacement grid: (alpha, beta) for the
    # anchored arrangement, (alpha, alpha', beta, beta') for the free one.
    grid = np.linspace(-grid_radius, grid_radius, _GRID_POINTS)
    table = tables.correlation_table(grid, grid)
    if anchor_zero:
        # Settings are 0 and alpha for one party, 0 and beta for the other:
        # B = E(0,0) + E(0,beta) + E(alpha,0) - E(alpha,beta).
        zero_row = tables.correlation_table(np.array([0.0]), grid)[0]
        zero_col = tables.correlation_table(grid, np.array([0.0]))[:, 0]
        origin = tables.correlation_table(np.array([0.0]), np.array([0.0]))[0, 0]
        combo = origin + zero_row[None, :] + zero_col[:, None] - table
    else:
        # x + (-y) is x - y exactly, so this is E + E + E - E bit for bit.
        combo = _chsh_table(table, table, table, -table)
    return grid[np.array(np.unravel_index(np.argmax(combo), combo.shape))]


def _search_displacements(params: np.ndarray, anchor_zero: bool, is_complex: bool) -> np.ndarray:
    """(alpha, alpha', beta, beta') at search parameters (..., k): k = 8 interleaves
    real and imaginary parts, k = 2 anchors alpha = beta = 0, k = 4 is the identity."""
    if is_complex:
        return params[..., 0::2] + 1j * params[..., 1::2]
    if anchor_zero:
        zero = np.zeros(params.shape[:-1])
        return np.stack([zero, params[..., 0], zero, params[..., 1]], axis=-1)
    return params


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
    arrangement whose optimum over r plateaus near 2.32; the best point of
    a 21-point grid per axis seeds the first Nelder-Mead start and restarts
    more start at random.  Optimal displacements shrink roughly like
    exp(-r), so the grid and the random starts span [-R, R] with
    R = max(1.2 exp(-r), 0.05).  anchor_zero restricts each party's first
    setting to no displacement, a strictly weaker arrangement.
    complex_displacements frees all eight real parameters and refines
    restarts + 1 random starts.  All starts run in lockstep
    (_nelder_mead_lockstep), each exactly as scipy's Nelder-Mead with
    xatol = fatol = 1e-10 and maxiter/maxfev 4000/8000 (real) or 6000/12000
    (complex); a later start wins only if strictly better.  Each round is
    one batched call of the spectral route (one eigh, no matrix
    exponential), in real arithmetic for real displacements; the returned
    value is re-verified against the definition-level route, bw_bell_value,
    and a disagreement beyond 1e-8, or a NaN, raises ArithmeticError.
    """
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"squeezing r must be finite and >= 0, got {r}")
    cutoff_fock = _check_fock_cutoff(cutoff_fock, r)
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    if anchor_zero and complex_displacements:
        raise ValueError("anchor_zero applies to real displacements only")
    grid_radius = max(1.2 * math.exp(-r), 0.05)

    tables = _DisplacementTables(cutoff_fock, r)
    if complex_displacements:
        starts, size, count, maxiter = [], 8, restarts + 1, 6000
    else:
        starts = [_grid_start(tables, anchor_zero, grid_radius)]
        size, count, maxiter = starts[0].size, restarts, 4000
    rng = np.random.default_rng(seed)
    starts += list(rng.uniform(-grid_radius, grid_radius, size=(count, size)))

    def objective(params: np.ndarray) -> np.ndarray:
        z = _search_displacements(params, anchor_zero, complex_displacements)
        return -tables.bell_value(z)

    sim, fsim = _nelder_mead_lockstep(objective, starts, maxiter=maxiter, maxfev=2 * maxiter)
    best = np.argmin(fsim.min(axis=1))  # first of equal values: a later start must be better
    value, x = -fsim[best].min(), sim[best, 0]
    z = _search_displacements(x, anchor_zero, complex_displacements)
    del tables  # release its dim x dim matrices before the expm route allocates
    check = bw_bell_value(cutoff_fock, r, tuple(z[:2]), tuple(z[2:]))
    if not abs(check - value) <= 1e-8:
        raise ArithmeticError(
            f"displaced-parity spectral route disagrees with the definition route: "
            f"{value!r} vs {check!r}"
        )
    return check
