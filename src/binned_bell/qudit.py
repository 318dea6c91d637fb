"""Quantum violations of binned Bell inequalities for maximally entangled qudits.

Each party measures in a phase-shifted Fourier basis

    |a, k> = (1/sqrt(d)) sum_j exp(2*pi*i*(k + alpha_a)*j / d) |j>,

with real offsets alpha_1, alpha_2 (first party) and beta_1, beta_2 (second
party).  On the maximally entangled state |psi> = sum_j |jj>/sqrt(d) the
joint probability depends on x = k + l + alpha_a + beta_b only:

    P_ab(k, l) = sin^2(pi x) / (d^3 sin^2(pi x / d)),   -> 1/d as x -> 0 mod d.

Probabilities are always computed from explicit state/basis inner products;
the closed-form kernel above is a fast path that must agree with the direct
computation to 1e-10 and seeds the phase optimizer's grid.  The kernel is
the Fejer kernel, so each Bell-sum term is a trigonometric polynomial of
degree d - 1, whose exact derivatives drive the optimizer's Newton ascent.
For the parity binning (even outcomes, preset T1) and even d the Bell sum
collapses to

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
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._newton import newton_ascent
from .lr_polytope import BinningSpec, CoefficientTensor, _binning_signs, build_coefficients

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


def fourier_basis(d: int, offset) -> np.ndarray:
    """Columns are the basis vectors |k> of the offset Fourier basis.

    An array of offsets gives one basis per offset, shape offset.shape +
    (d, d), from one broadcast exp; every step is elementwise, so each
    basis has the bits of its own call.
    """
    j = np.arange(d)
    k = np.arange(d)
    phase = j[:, None] * (k + np.asarray(offset, dtype=float)[..., None])[..., None, :]
    return np.exp(2j * np.pi * phase / d) / math.sqrt(d)


def _probability_matrix(d: int, alpha: float, beta: float) -> np.ndarray:
    """P[k, l] from direct inner products of basis vectors with |psi>."""
    u = fourier_basis(d, alpha)
    v = fourier_basis(d, beta)
    # <psi| (|a,k> x |b,l>) = (1/sqrt(d)) sum_j u[j,k] v[j,l]
    amp = u.T @ v / math.sqrt(d)
    return np.abs(amp) ** 2


def probability_kernel(d: int, x) -> np.ndarray:
    """Closed-form joint probability sin^2(pi x) / (d^3 sin^2(pi x / d)).

    x = k + l + alpha_a + beta_b; the kernel has period d and is 1/d within
    1e-9 of a multiple of d.  One np.sin gives both sines; every value is
    elementwise, so no value depends on the shape of the array around it.
    """
    x = np.mod(np.asarray(x, dtype=float), d)
    near = np.minimum(x, d - x) < 1e-9
    sines = np.empty((2,) + x.shape)
    num, den = sines[0, ...], sines[1, ...]
    np.divide(np.multiply(np.pi, x, out=num), d, out=den)
    np.square(np.sin(sines, out=sines), out=sines)
    den *= d**3
    np.copyto(num, 1.0 / d, where=near)
    np.copyto(den, 1.0, where=near)
    return np.divide(num, den, out=num)


def bell_expectation(
    d: int,
    coeffs: CoefficientTensor,
    phases: PhaseSettings,
    *,
    method: str = "direct",
) -> float:
    """Bell sum sum_ab sum_kl eps_ab(k, l) P_ab(k, l).

    method="direct" evaluates probabilities from basis inner products
    (the reference path); method="kernel" uses the optimizer's closed-form
    objective.  The two agree to 1e-10.
    """
    if coeffs.d != d:
        raise ValueError(f"coefficient tensor has d={coeffs.d}, expected {d}")
    if method not in ("direct", "kernel"):
        raise ValueError(f"unknown method {method!r}")
    if method == "kernel":
        return float(_KernelObjective(coeffs)(phases.as_array()))
    total = 0.0
    for alpha, eps_a in ((phases.alpha1, coeffs.eps[0]), (phases.alpha2, coeffs.eps[1])):
        for beta, eps_ab in zip((phases.beta1, phases.beta2), eps_a):
            total += float((eps_ab * _probability_matrix(d, alpha, beta)).sum())
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

    def spectral_norm(self) -> float:
        return float(_spectral_norms(self.matrix))


def build_bell_operator(
    d: int,
    coeffs: CoefficientTensor,
    phases: PhaseSettings,
) -> BellOperatorMatrix:
    """Dense d^2 x d^2 Bell operator for the given coefficients and phases.

    The one-operator case of _bell_operators.  d above _OPERATOR_LIMIT (64)
    raises ValueError before anything is built.
    """
    if coeffs.d != d:
        raise ValueError(f"coefficient tensor has d={coeffs.d}, expected {d}")
    if d > _OPERATOR_LIMIT:
        raise ValueError(
            f"d={d} exceeds the dense-operator limit {_OPERATOR_LIMIT} "
            f"(matrix would be {d * d} x {d * d})"
        )
    return BellOperatorMatrix(d, _bell_operators(coeffs.eps, fourier_basis(d, phases.as_array())))


def operator_identity_residual(
    operator: BellOperatorMatrix, spec: BinningSpec, phases: PhaseSettings
) -> float:
    """Max-entrywise residual of B^2 - 4*I - [P1, P2] (x) [Q2, Q1] for a given B.

    P_a and Q_b are the spec's binned observables at the given phases, so
    the residual is at rounding level when `operator` was built from the
    spec's coefficients at those phases.  An operator built from another
    tensor (for example with the (2,2) block's sign flipped) shows how the
    identity breaks when the sign convention is violated.  The
    one-operator case of _identity_residuals.
    """
    d = spec.d
    if operator.d != d:
        raise ValueError(f"operator has d={operator.d}, spec has d={d}")
    bases = fourier_basis(d, phases.as_array())
    return float(_identity_residuals(operator.matrix, bases, _binning_signs([spec])[0]))


# The operator kernels below take any leading axes (...): a stack of trials
# of one d is one call, and a single trial is the case of no leading axes.
# Every matmul is a stacked matmul, which runs each matrix through its own
# BLAS call, and every other step is elementwise, so a trial's matrix,
# residual and norm have the same bits whatever stack it is in.


def _bell_operators(eps: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Dense Bell operators from eps[..., a, b, k, l] and bases[..., 4, d, d].

    bases holds the Fourier bases at (alpha1, alpha2, beta1, beta2).  Each
    party's projector tensors come from one einsum; every setting pair
    (a, b) contracts its coefficient block between them, and the four
    blocks are added onto zeros in the order 11, 12, 21, 22, and the sum
    is reordered once from (i j)(m n) to the kron layout (i m)(j n).
    """
    d = bases.shape[-1]
    lead = bases.shape[:-3]
    # row (i j), column k: <i| (|k><k|) |j>
    proj = np.einsum("...ik,...jk->...ijk", bases, bases.conj()).reshape(lead + (4, d * d, d))
    weighted = proj[..., :2, None, :, :] @ eps.astype(complex)
    proj_b = proj[..., 2:, :, :].swapaxes(-1, -2)
    total = np.zeros(lead + (d * d, d * d), dtype=complex)
    block = np.empty_like(total)
    for a in (0, 1):
        for b in (0, 1):
            np.matmul(weighted[..., a, b, :, :], proj_b[..., b, :, :], out=block)
            total += block
    # The last block's buffer receives the reordered sum.
    np.copyto(block.reshape(lead + (d, d, d, d)),
              total.reshape(lead + (d, d, d, d)).swapaxes(-3, -2))
    return block


def _binned_observables(bases: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """sum_k signs[..., k] |k><k| in each basis of bases[..., d, d]."""
    return (bases * signs[..., None, :]) @ bases.conj().swapaxes(-1, -2)


def _identity_residuals(
    operators: np.ndarray, bases: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    """Max |B^2 - 4*I - [P1, P2] (x) [Q2, Q1]| of each operator.

    bases[..., 4, d, d] and signs[..., 4, d] give P1, P2, Q1, Q2.  The
    Kronecker product is a broadcast product with np.kron's layout, and 4*I
    is added to its diagonal in place.
    """
    d = bases.shape[-1]
    obs = _binned_observables(bases, signs)
    # P1 P2, P2 P1, Q2 Q1, Q1 Q2 in one stacked matmul.
    products = obs[..., [0, 1, 3, 2], :, :] @ obs[..., [1, 0, 2, 3], :, :]
    comm = products[..., ::2, :, :] - products[..., 1::2, :, :]
    target = comm[..., 0, :, None, :, None] * comm[..., 1, None, :, None, :]
    target = target.reshape(target.shape[:-4] + (d * d * d * d,))
    target[..., :: d * d + 1] += 4
    residual = operators @ operators
    residual -= target.reshape(residual.shape)
    return np.abs(residual).max(axis=(-2, -1))


def _spectral_norms(operators: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| of each Hermitian operator, from one eigvalsh call."""
    return np.abs(np.linalg.eigvalsh(operators)).max(axis=-1)


class _KernelObjective:
    """Closed-form Bell sum, the kernel route of bell_expectation.

    Since the kernel depends on k + l only, the Bell sum collapses to
    sum_ab f_ab(t_ab) with t_ab = alpha_a + beta_b and
    f_ab(t) = sum_s c_ab(s) K(s + t), where c_ab(s) sums eps_ab over
    k + l = s (mod d).  __call__ makes one kernel call against s = 0..d-1
    for points (..., 4).  The kernel is elementwise, and each f_ab stays one
    BLAS dot product of two contiguous rows (a stacked (1, d) @ (d, 1)
    matmul), summed in the order f11 + f12 + f21 + f22, so every value is
    bit-identical to the four pair_value calls at that point, whatever the
    batch around it.
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


def _fourier_table(c: np.ndarray) -> np.ndarray:
    """(2d, 3) table T with [cos(w t), sin(w t)] @ T = [f(t), f'(t), f''(t)].

    f(t) = sum_s c(s) K(s + t), and w_m = 2 pi m / d for m = 0..d-1.  K is
    the Fejer kernel, K(x) = sum_{|m|<d} (d - |m|) e^{2 pi i m x / d} / d^3,
    so f(t) = sum_{|m|<d} F_m e^{i w_m t} with
    F_m = (d - |m|) / d^3 sum_s c(s) e^{2 pi i m s / d}.  c is real, so
    F_-m is the conjugate of F_m, and f(t) = F_0 + sum_{m>0} 2 Re(F_m)
    cos(w_m t) - 2 Im(F_m) sin(w_m t); f' and f'' follow term by term.
    """
    d = c.size
    m = np.arange(d)
    w = 2.0 * np.pi * m / d
    angle = 2.0 * np.pi * (np.outer(m, m) % d) / d
    weight = np.where(m == 0, 1.0, 2.0) * (d - m) / d**3
    cos_part = weight * (np.cos(angle) @ c)
    sin_part = -weight * (np.sin(angle) @ c)
    return np.vstack([np.column_stack([cos_part, w * sin_part, -w**2 * cos_part]),
                      np.column_stack([sin_part, -w * cos_part, -w**2 * sin_part])])


def _pair_derivatives(table: np.ndarray, t) -> np.ndarray:
    """Rows [f(t), f'(t), f''(t)] at each offset sum t, from _fourier_table.

    Each row is its own stacked (1, 2d) @ (2d, 3) matmul, so its bits do not
    depend on the offset sums around it.
    """
    d = len(table) // 2
    wt = np.outer(np.mod(t, d), 2.0 * np.pi * np.arange(d) / d)
    return (np.hstack([np.cos(wt), np.sin(wt)])[:, None, :] @ table)[:, 0, :]


def _grid_start(objective: _KernelObjective) -> tuple[list[float], float]:
    """Best point (a1, a2, b2) of the gauge-fixed grid t_j = j d / N, N = 16 d.

    With fv[j] = f(t_j), h+[m] = max_j fv[j] + fv[j+m] and h-[m] = max_j
    fv[j] - fv[j+m] (indices mod N); m is the first argmax of h+ + h-.
    Returns (t[j+], t[j-], t[m]) and h+[m] + h-[m].
    """
    d = objective.d
    n = 16 * d
    t = np.arange(n) * (d / n)
    fv = objective.pair_value(0, 0, t)
    # shifted[m, j] = fv[(j + m) % n], a view: no N x N index table.
    shifted = sliding_window_view(np.concatenate([fv, fv[:-1]]), n)
    plus, minus = fv + shifted, fv - shifted
    j_plus, j_minus = plus.argmax(axis=1), minus.argmax(axis=1)
    h = plus[np.arange(n), j_plus] + minus[np.arange(n), j_minus]
    m = int(np.argmax(h))
    return [t[j_plus[m]], t[j_minus[m]], t[m]], float(h[m])


# Offset sums (a1, a1 + b2, a2, a2 + b2) of the gauge-fixed point (a1, a2, b2),
# and the sign of each pair function in the Bell sum.
_OFFSET_SUMS = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
_PAIR_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])


def _phase_derivatives(table: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """F at the gauge-fixed point x = (a1, a2, b2), with its gradient and Hessian.

    F = sum_i sign_i f(t_i) over the offset sums t = _OFFSET_SUMS @ x, so the
    gradient is _OFFSET_SUMS^T (sign f'(t)) and the Hessian is
    _OFFSET_SUMS^T diag(sign f''(t)) _OFFSET_SUMS.
    """
    f, df, d2f = (_PAIR_SIGNS[:, None] * _pair_derivatives(table, _OFFSET_SUMS @ x)).T
    return f.sum(), _OFFSET_SUMS.T @ df, (_OFFSET_SUMS.T * d2f) @ _OFFSET_SUMS


def optimize_phases(d: int, preset: BinningPreset | str) -> tuple[PhaseSettings, float]:
    """Best-found phases and Bell value for a binning preset.

    Every preset uses one subset for R1, R2, S1 and S2, so the kernel
    objective's pair functions are one f = f11 = f12 = f21 = -f22 (checked;
    ValueError otherwise).  Only the sums alpha_a + beta_b matter, so the
    gauge beta1 = 0 removes a flat direction and leaves
    F = f(a1) + f(a1 + b2) + f(a2) - f(a2 + b2).  For fixed b2 the a1 and
    a2 terms separate: the grid maximum of F is max over b2 of
    h+(b2) + h-(b2), h+-(b2) = max_a f(a) +- f(a + b2), two circular
    max-plus correlations of one vector in O(N^2) (_grid_start).  The grid
    is one full period at spacing 1/16, N = 16 d; a fixed N grows coarse
    with d and misses basins (N = 256 gives t2 at d = 29 2.3581, not
    2.3644).  The best grid point starts one Newton ascent in (a1, a2, b2)
    (_newton.newton_ascent).  f is a trigonometric polynomial of degree
    d - 1 (_fourier_table), so f, f' and f'' at the four offset sums come
    from one small matrix product, and with them F, its gradient and its
    Hessian.  The ascent stops at a step below 1e-13 d.  Nothing is random.
    The value is re-evaluated through the direct inner-product path at the
    reduced phases, so it is a genuine lower bound on the quantum maximum.
    """
    if isinstance(preset, str):
        preset = BinningPreset(preset, d)
    if preset.d != d:
        raise ValueError(f"preset has d={preset.d}, expected {d}")
    coeffs = build_coefficients(preset.to_binning_spec())
    objective = _KernelObjective(coeffs)
    c = objective._c
    if not (np.array_equal(c[0, 1], c[0, 0]) and np.array_equal(c[1, 0], c[0, 0])
            and np.array_equal(c[1, 1], -c[0, 0])):
        raise ValueError("the phase search needs one subset for R1, R2, S1 and S2")
    start, _ = _grid_start(objective)
    table = _fourier_table(c[0, 0])
    (a1, a2, b2), _ = newton_ascent(partial(_phase_derivatives, table), start, xtol=1e-13 * d)
    phases = PhaseSettings(a1, a2, 0.0, b2).reduced(d)
    return phases, bell_expectation(d, coeffs, phases, method="direct")
