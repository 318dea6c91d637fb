"""Quantum violations of binned Bell inequalities for maximally entangled qudits.

Each party measures in a phase-shifted Fourier basis

    |a, k> = (1/sqrt(d)) sum_j exp(2*pi*i*(k + alpha_a)*j / d) |j>,

with real offsets alpha_1, alpha_2 (first party) and beta_1, beta_2 (second
party).  On the maximally entangled state |psi> = sum_j |jj>/sqrt(d) the
joint probability depends on x = k + l + alpha_a + beta_b only:

    P_ab(k, l) = sin^2(pi x) / (d^3 sin^2(pi x / d)),   -> 1/d as x -> 0 mod d.

Probabilities are always computed from explicit state/basis inner products;
the closed-form kernel above is a fast path that must agree with the direct
computation to 1e-10 and drives the phase optimizer.  For the parity binning
(even outcomes, preset T1) and even d the Bell sum collapses to

    B = cos(pi(a1+b1)) + cos(pi(a1+b2)) + cos(pi(a2+b1)) - cos(pi(a2+b2)),

maximal at (0, 1/2, -1/4, 1/4) with value 2*sqrt(2).  The Bell operator
built from the same projectors satisfies the operator identity

    B^2 = 4*I + [P1, P2] (x) [Q2, Q1],

where P_a, Q_b are the binned ±1 observables, so its spectral norm never
exceeds 2*sqrt(2) regardless of binning subsets or phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._nelder_mead import _nelder_mead_lockstep
from .lr_polytope import BinningSpec, CoefficientTensor, _chsh_table, build_coefficients, zeta

# Largest d whose dense d^2 x d^2 Bell operator build_bell_operator builds.
_OPERATOR_LIMIT = 64

SQRT8 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class PhaseSettings:
    """Basis offsets (alpha1, alpha2) for party A and (beta1, beta2) for party B."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha1, self.alpha2, self.beta1, self.beta2])

    def reduced(self, d: int) -> "PhaseSettings":
        """Canonical representative with every offset folded into [0, d).

        All joint probabilities have period d in each offset, so the Bell
        sum is unchanged.  A tiny negative offset rounds np.mod up to d
        itself, which is folded to 0.0.
        """
        folded = np.mod(self.as_array(), d)
        folded[folded == d] = 0.0
        return PhaseSettings(*(float(v) for v in folded))


def fourier_basis(d: int, offset: float) -> np.ndarray:
    """Columns are the basis vectors |k> of the offset Fourier basis."""
    j = np.arange(d)
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, k + offset) / d) / math.sqrt(d)


@dataclass(frozen=True)
class MeasurementBasis:
    """Phase-shifted Fourier basis; vectors[:, k] is the k-th outcome vector."""

    d: int
    offset: float
    vectors: np.ndarray

    @classmethod
    def build(cls, d: int, offset: float) -> "MeasurementBasis":
        if d < 2:
            raise ValueError(f"d must be at least 2, got {d}")
        return cls(d, float(offset), fourier_basis(d, offset))

    def gram_residual(self) -> float:
        """Max deviation of the Gram matrix from the identity."""
        g = self.vectors.conj().T @ self.vectors
        return float(np.abs(g - np.eye(self.d)).max())


def _offsets(phases: PhaseSettings, a: int, b: int) -> tuple[float, float]:
    if a not in (1, 2) or b not in (1, 2):
        raise ValueError(f"settings a, b must be 1 or 2, got a={a}, b={b}")
    alpha = phases.alpha1 if a == 1 else phases.alpha2
    beta = phases.beta1 if b == 1 else phases.beta2
    return alpha, beta


def _probability_matrix(d: int, alpha: float, beta: float) -> np.ndarray:
    """P[k, l] from direct inner products of basis vectors with |psi>."""
    u = fourier_basis(d, alpha)
    v = fourier_basis(d, beta)
    # <psi| (|a,k> x |b,l>) = (1/sqrt(d)) sum_j u[j,k] v[j,l]
    amp = u.T @ v / math.sqrt(d)
    return np.abs(amp) ** 2


def probability_kernel(d: int, x) -> np.ndarray:
    """Closed-form joint probability sin^2(pi x) / (d^3 sin^2(pi x / d)).

    x = k + l + alpha_a + beta_b; the kernel has period d and tends to 1/d
    as x approaches a multiple of d.
    """
    x = np.mod(np.asarray(x, dtype=float), d)
    near = np.minimum(x, d - x) < 1e-9
    den = d**3 * np.sin(np.pi * x / d) ** 2
    num = np.sin(np.pi * x) ** 2
    out = np.divide(num, den, out=np.full_like(num, 1.0 / d), where=~near)
    return out


def _kernel_probability_matrix(d: int, alpha: float, beta: float) -> np.ndarray:
    k = np.arange(d)
    x = k[:, None] + k[None, :] + alpha + beta
    return probability_kernel(d, x)


def bell_expectation(
    d: int,
    coeffs: CoefficientTensor,
    phases: PhaseSettings,
    *,
    method: str = "direct",
) -> float:
    """Bell sum sum_ab sum_kl eps_ab(k, l) P_ab(k, l).

    method="direct" evaluates probabilities from basis inner products
    (the reference path); method="kernel" uses the closed-form kernel.
    The two agree to 1e-10.
    """
    if coeffs.d != d:
        raise ValueError(f"coefficient tensor has d={coeffs.d}, expected {d}")
    if method not in ("direct", "kernel"):
        raise ValueError(f"unknown method {method!r}")
    matrix = _probability_matrix if method == "direct" else _kernel_probability_matrix
    total = 0.0
    for a in (1, 2):
        for b in (1, 2):
            alpha, beta = _offsets(phases, a, b)
            p = matrix(d, alpha, beta)
            total += float((coeffs.eps[a - 1, b - 1] * p).sum())
    return total


@dataclass(frozen=True)
class BinningPreset:
    """Named binning families; all four subsets equal the preset subset.

    t1: even outcomes {0, 2, 4, ...} (parity binning).
    t2: outcomes with k mod 4 in {0, 1} (period-4 block binning); needs d >= 3
        because at d=2 the subset would be the full outcome set.
    t3: the lower half {k : k < floor(d/2)}.
    """

    kind: str
    d: int

    _KINDS = ("t1", "t2", "t3")

    def __post_init__(self) -> None:
        kind = str(self.kind).lower()
        if kind not in self._KINDS:
            raise ValueError(f"binning preset must be one of {self._KINDS}, got {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if self.d < 2:
            raise ValueError(f"d must be at least 2, got {self.d}")

    def subset(self) -> tuple[int, ...]:
        if self.kind == "t1":
            return tuple(range(0, self.d, 2))
        if self.kind == "t2":
            return tuple(k for k in range(self.d) if k % 4 in (0, 1))
        return tuple(range(self.d // 2))

    def to_binning_spec(self) -> BinningSpec:
        s = self.subset()
        return BinningSpec(self.d, s, s, s, s)


@dataclass(frozen=True)
class BellOperatorMatrix:
    """Dense Bell operator sum_abkl eps_ab(k,l) |a,k><a,k| (x) |b,l><b,l|."""

    d: int
    matrix: np.ndarray

    def hermiticity_residual(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def spectral_norm(self) -> float:
        return float(np.abs(np.linalg.eigvalsh(self.matrix)).max())


def build_bell_operator(
    d: int,
    coeffs: CoefficientTensor,
    phases: PhaseSettings,
) -> BellOperatorMatrix:
    """Dense d^2 x d^2 Bell operator for the given coefficients and phases.

    Each party's two projector tensors are built once; every setting pair
    (a, b) then contracts its coefficient block between them.  d above
    _OPERATOR_LIMIT (64) raises ValueError before anything is built.
    """
    if coeffs.d != d:
        raise ValueError(f"coefficient tensor has d={coeffs.d}, expected {d}")
    if d > _OPERATOR_LIMIT:
        raise ValueError(
            f"d={d} exceeds the dense-operator limit {_OPERATOR_LIMIT} "
            f"(matrix would be {d * d} x {d * d})"
        )

    def projectors(offset: float) -> np.ndarray:
        u = fourier_basis(d, offset)
        # row (i j), column k: <i| (|k><k|) |j>
        return np.einsum("ik,jk->ijk", u, u.conj()).reshape(d * d, d)

    proj_a = (projectors(phases.alpha1), projectors(phases.alpha2))
    proj_b = (projectors(phases.beta1), projectors(phases.beta2))
    total = np.zeros((d * d, d * d), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            weighted = proj_a[a] @ coeffs.eps[a, b].astype(float)
            block = weighted @ proj_b[b].T
            # reorder (i j)(m n) -> (i m)(j n) for the kron layout
            total += (
                block.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
            )
    return BellOperatorMatrix(d, total)


def binned_observable(d: int, offset: float, subset: Iterable[int]) -> np.ndarray:
    """±1 observable sum_k zeta(k) |k><k| in the offset Fourier basis."""
    u = fourier_basis(d, offset)
    z = zeta(subset, d).astype(float)
    return (u * z) @ u.conj().T


def operator_identity_residual(
    operator: BellOperatorMatrix, spec: BinningSpec, phases: PhaseSettings
) -> float:
    """Max-entrywise residual of B^2 - 4*I - [P1, P2] (x) [Q2, Q1] for a given B.

    P_a and Q_b are the spec's binned observables at the given phases, so
    the residual is at rounding level when `operator` was built from the
    spec's coefficients at those phases.  An operator built from another
    tensor (for example with the (2,2) block's sign flipped) shows how the
    identity breaks when the sign convention is violated.
    """
    d = spec.d
    if operator.d != d:
        raise ValueError(f"operator has d={operator.d}, spec has d={d}")
    p1 = binned_observable(d, phases.alpha1, spec.r1)
    p2 = binned_observable(d, phases.alpha2, spec.r2)
    q1 = binned_observable(d, phases.beta1, spec.s1)
    q2 = binned_observable(d, phases.beta2, spec.s2)
    comm_p = p1 @ p2 - p2 @ p1
    comm_q = q2 @ q1 - q1 @ q2
    target = 4 * np.eye(d * d) + np.kron(comm_p, comm_q)
    return float(np.abs(operator.matrix @ operator.matrix - target).max())


class _KernelObjective:
    """Fast Bell-sum evaluator used by the phase optimizer.

    Since the kernel depends on k + l only, the Bell sum collapses to
    sum_ab f_ab(t_ab) with t_ab = alpha_a + beta_b and
    f_ab(t) = sum_s c_ab(s) K(s + t), where c_ab(s) sums eps_ab over
    k + l = s (mod d).  A call takes phase points of shape (..., 4) and
    makes one kernel call on all their t_ab against s = 0..d-1.  The kernel
    is elementwise, and each f_ab stays one BLAS dot product of two
    contiguous rows (a stacked (1, d) @ (d, 1) matmul), summed in the order
    f11 + f12 + f21 + f22.  So every value is bit-identical to the sum of
    the four pair_value calls at that point, whatever the batch around it;
    a fused row sum rounds differently and would move the Nelder-Mead path.
    """

    def __init__(self, coeffs: CoefficientTensor):
        d = coeffs.d
        self.d = d
        k = np.arange(d)
        idx = (k[:, None] + k[None, :]) % d
        self._c = np.empty((2, 2, d))
        for a in range(2):
            for b in range(2):
                self._c[a, b] = np.bincount(
                    idx.ravel(), weights=coeffs.eps[a, b].ravel().astype(float), minlength=d
                )
        self._s = k.astype(float)

    def pair_value(self, a: int, b: int, t) -> np.ndarray:
        """f_ab evaluated at one or many offset sums t."""
        t = np.asarray(t, dtype=float)
        kern = probability_kernel(self.d, self._s[:, None] + t.ravel()[None, :])
        out = self._c[a, b] @ kern
        return out.reshape(t.shape)

    def __call__(self, x) -> np.ndarray:
        """Bell sum at each point x[..., :] = (alpha1, alpha2, beta1, beta2)."""
        x = np.asarray(x, dtype=float)
        # t[..., 2a + b] = alpha_a + beta_b: a1+b1, a1+b2, a2+b1, a2+b2.
        t = (x[..., :2, None] + x[..., None, 2:]).reshape(x.shape[:-1] + (4,))
        kern = probability_kernel(self.d, t[..., None] + self._s)
        f = np.matmul(kern[..., None, :], self._c.reshape(4, self.d, 1))[..., 0, 0]
        return f[..., 0] + f[..., 1] + f[..., 2] + f[..., 3]


# Nelder-Mead caps of the phase search (per start).
_NM_MAXITER = 4000
_NM_MAXFEV = 8000


def optimize_phases(
    d: int,
    preset: BinningPreset | str,
    *,
    window: float = 2.0,
    grid_points: int = 17,
    restarts: int = 5,
    seed: int = 0,
) -> tuple[PhaseSettings, float]:
    """Best-found phases and Bell value for a binning preset.

    A coarse grid over [0, window)^4 (grid_points per axis) seeds a
    Nelder-Mead refinement, together with seeded random restarts.  window=2.0
    matches the period-2 structure of the even-d parity landscape; pass
    window=d to search one full period of any binning (the kernel has exact
    period d in every offset).  All restarts + 1 starts run in lockstep
    through the shared Nelder-Mead (_nelder_mead_lockstep), one batched
    kernel call per round for the points every live start asks for.  Each
    start takes the same path, bit for bit, as
    scipy.optimize.minimize(method="Nelder-Mead") with xatol = fatol = 1e-10,
    maxiter 4000 and maxfev 8000, because the simplex arithmetic is scipy's
    and a batched objective value equals the single-point one.  These
    tolerances and caps are fixed.  The returned value is re-evaluated
    through the direct inner-product path, so it is a genuine lower bound on
    the quantum maximum.  Ties on the grid resolve to the lexicographically
    smallest phase tuple, and a later start replaces the best only if it is
    strictly better; identical inputs and seed give identical output.
    """
    if isinstance(preset, str):
        preset = BinningPreset(preset, d)
    if preset.d != d:
        raise ValueError(f"preset has d={preset.d}, expected {d}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    if not 0 < window <= d:
        raise ValueError(f"window must lie in (0, d], got {window}")
    coeffs = build_coefficients(preset.to_binning_spec())
    objective = _KernelObjective(coeffs)

    # Grid stage: every t_ab is a sum of two grid offsets, so four
    # grid x grid tables cover all grid_points^4 phase tuples.
    g = window * np.arange(grid_points) / grid_points
    sums = g[:, None] + g[None, :]
    table = _chsh_table(*(objective.pair_value(a, b, sums) for a in (0, 1) for b in (0, 1)))
    flat_best = int(np.argmax(table))  # first occurrence = lexicographic tie-break
    i1, i2, j1, j2 = np.unravel_index(flat_best, table.shape)
    best_x = np.array([g[i1], g[i2], g[j1], g[j2]])
    best_val = float(table[i1, i2, j1, j2])

    rng = np.random.default_rng(seed)
    starts = np.vstack([best_x, rng.uniform(0.0, window, size=(restarts, 4))])
    sim, fsim = _nelder_mead_lockstep(
        lambda x: -objective(x), starts, maxiter=_NM_MAXITER, maxfev=_NM_MAXFEV
    )
    for x, fun in zip(sim[:, 0], fsim.min(axis=1)):
        val = float(-fun)
        if val > best_val:
            best_x, best_val = x, val

    phases = PhaseSettings(*best_x).reduced(d)
    return phases, bell_expectation(d, coeffs, phases, method="direct")
