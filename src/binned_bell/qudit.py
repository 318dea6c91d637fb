"""Quantum violations of binned Bell inequalities for maximally entangled qudits.

Each party measures in a phase-shifted Fourier basis

    |a, k> = (1/sqrt(d)) sum_j exp(2*pi*i*(k + alpha_a)*j / d) |j>,

with real offsets alpha_1, alpha_2 (first party) and beta_1, beta_2 (second
party).  On the maximally entangled state |psi> = sum_j |jj>/sqrt(d) the
joint probability depends on x = k + l + alpha_a + beta_b only:

    P_ab(k, l) = sin^2(pi x) / (d^3 sin^2(pi x / d)),   -> 1/d as x -> 0 mod d.

The reference route computes probabilities from explicit state/basis inner
products.  The kernel above is the Fejer kernel, so each Bell-sum term is a
trigonometric polynomial of degree d - 1 whose coefficients come from one
FFT.  That Fourier form is the fast route: it must agree with the direct
computation to 1e-10, and it gives the phase optimizer its grid (one more
FFT) and the exact derivatives of its Newton ascent.
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
from .lr_polytope import BinningSpec, CoefficientTensor, _as_index, _binning_signs, build_coefficients

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


def _basis_probabilities(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P[k, l] = |<psi| (|a,k> x |b,l>)|^2 for the bases u = |a,k>, v = |b,l>."""
    # <psi| (|a,k> x |b,l>) = (1/sqrt(d)) sum_j u[j,k] v[j,l]
    amp = u.T @ v / math.sqrt(len(u))
    return np.abs(amp) ** 2


def probability_kernel(d: int, x) -> np.ndarray:
    """Closed-form joint probability sin^2(pi x) / (d^3 sin^2(pi x / d)).

    x = k + l + alpha_a + beta_b; the kernel has period d and is 1/d within
    1e-9 of a multiple of d.  x is folded exactly to x - d round(x / d), so
    beside a multiple of d both sines see the small distance (np.mod would
    leave x near d, and each sine an error of ulp(pi d)).  One np.sin gives
    both sines; every value is elementwise, whatever the array's shape.
    """
    x = np.asarray(x, dtype=float)
    x = x - d * np.round(x / d)
    near = np.abs(x) < 1e-9
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
    (the reference path), with the four bases from one fourier_basis call
    and the pairs summed in the order 11, 12, 21, 22; method="kernel" sums
    f_ab(alpha_a + beta_b) in the same order, each from the Fourier form the
    optimizer uses (_pair_sums, _fourier_table, _pair_derivatives).  The
    two agree to 1e-10.
    """
    if coeffs.d != d:
        raise ValueError(f"coefficient tensor has d={coeffs.d}, expected {d}")
    if method not in ("direct", "kernel"):
        raise ValueError(f"unknown method {method!r}")
    if method == "kernel":
        x = phases.as_array()
        offset_sums = (x[:2, None] + x[2:]).ravel()
        return float(sum(_pair_derivatives(_fourier_table(c), [t])[0, 0]
                         for c, t in zip(_pair_sums(coeffs).reshape(4, d), offset_sums)))
    bases = fourier_basis(d, phases.as_array())
    total = 0.0
    for a in (0, 1):
        for b in (0, 1):
            total += float((coeffs.eps[a, b] * _basis_probabilities(bases[a], bases[2 + b])).sum())
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
        d = _as_index(self.d, "d")
        if d < 2:
            raise ValueError(f"d must be at least 2, got {d}")
        object.__setattr__(self, "d", d)

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


def _pair_sums(coeffs: CoefficientTensor) -> np.ndarray:
    """c[a, b, s]: the sum of eps_ab(k, l) over k + l = s (mod d).

    The kernel depends on k + l only, so the Bell sum collapses to
    sum_ab f_ab(alpha_a + beta_b) with f_ab(t) = sum_s c[a, b, s] K(s + t).
    """
    d = coeffs.d
    k = np.arange(d)
    s = ((k[:, None] + k) % d).ravel()
    sums = [np.bincount(s, weights=e.ravel(), minlength=d) for e in coeffs.eps.reshape(4, d, d)]
    return np.reshape(sums, (2, 2, d))


def _fourier_table(c: np.ndarray) -> np.ndarray:
    """(2d, 3) table T with [cos(w t), sin(w t)] @ T = [f(t), f'(t), f''(t)].

    f(t) = sum_s c(s) K(s + t), and w_m = 2 pi m / d for m = 0..d-1.  K is
    the Fejer kernel, K(x) = sum_{|m|<d} (d - |m|) e^{2 pi i m x / d} / d^3,
    so f(t) = sum_{|m|<d} F_m e^{i w_m t} with
    F_m = (d - |m|) / d^3 sum_s c(s) e^{2 pi i m s / d}.  c is real, so
    F_-m is the conjugate of F_m, and f(t) = F_0 + sum_{m>0} 2 Re(F_m)
    cos(w_m t) - 2 Im(F_m) sin(w_m t); f' and f'' follow term by term.
    The sums over s are the conjugates of np.fft.fft(c), so the table takes
    O(d log d) time and O(d) memory.
    """
    d = c.size
    m = np.arange(d)
    w = 2.0 * np.pi * m / d
    coef = np.where(m == 0, 1.0, 2.0) * (d - m) / d**3 * np.fft.fft(c)
    cos_part, sin_part = coef.real, coef.imag
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


# Entry budget of one block of shifts in the grid search (N sums or
# differences each).  The blocks bound _grid_start's memory at O(N).
_GRID_ENTRIES = 1 << 14


def _grid_values(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid t_j = j d / N, N = 16 d, and fv[j] = f(t_j), from one FFT of length N.

    w_m t_j = 2 pi m j / N, so with the table's first column [a; b],
    f(t_j) = sum_m a_m cos(2 pi m j / N) + b_m sin(2 pi m j / N), the real
    part of the FFT of a + i b zero-padded to length N.
    """
    d = len(table) // 2
    n = 16 * d
    return np.arange(n) * (d / n), np.fft.fft(table[:d, 0] + 1j * table[d:, 0], n).real


def _grid_start(t: np.ndarray, fv: np.ndarray) -> tuple[list[float], float]:
    """Best point (a1, a2, b2) of the gauge-fixed grid t_j = j d / N, N = 16 d.

    With fv[j] = f(t_j), h+[m] = max_j fv[j] + fv[j+m] and h-[m] = max_j
    fv[j] - fv[j+m] (indices mod N); m is the first argmax of h+ + h-.
    Returns (t[j+], t[j-], t[m]) and h+[m] + h-[m].

    Only the shifts m = 0..N/2 are evaluated, in blocks of
    _GRID_ENTRIES // N shifts, so the search holds O(N + _GRID_ENTRIES)
    floats, never an N x N table.  Two exact identities give the other
    shifts: h+[N-m] = h+[m], since floating-point addition is commutative,
    and h-[N-m] = -min_j (fv[j] - fv[j+m]), since a - b = -(b - a)
    exactly.  j+ and j- are found again at the chosen m only, from the same
    expressions, so every bit of the start and its value is that of the
    full N x N tables (tests/reference_grid_start.py).
    """
    n = fv.size
    half = n // 2
    ext = np.concatenate([fv, fv[:-1]])
    # shifted[m, j] = fv[(j + m) % n], a view: no N x N index table.
    shifted = sliding_window_view(ext, n)
    plus_max, minus_max, minus_min = np.empty((3, half + 1))
    rows = max(1, _GRID_ENTRIES // n)
    for m0 in range(0, half + 1, rows):
        block = shifted[m0:min(m0 + rows, half + 1)]
        done = slice(m0, m0 + len(block))
        np.max(fv + block, axis=1, out=plus_max[done])
        minus = fv - block
        np.max(minus, axis=1, out=minus_max[done])
        np.min(minus, axis=1, out=minus_min[done])
    mirror = slice(half - 1, 0, -1)  # m = N/2 + 1..N - 1 from N - m
    h = (np.concatenate([plus_max, plus_max[mirror]])
         + np.concatenate([minus_max, -minus_min[mirror]]))
    m = int(np.argmax(h))
    j_plus, j_minus = np.argmax(fv + ext[m:m + n]), np.argmax(fv - ext[m:m + n])
    return [t[j_plus], t[j_minus], t[m]], float(h[m])


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

    Every preset uses one subset for R1, R2, S1 and S2, so the pair
    functions are one f = f11 = f12 = f21 = -f22 (_pair_sums; checked,
    ValueError otherwise).  Only the sums alpha_a + beta_b matter, so the
    gauge beta1 = 0 removes a flat direction and leaves
    F = f(a1) + f(a1 + b2) + f(a2) - f(a2 + b2).  For fixed b2 the a1 and
    a2 terms separate: the grid maximum of F is max over b2 of
    h+(b2) + h-(b2), h+-(b2) = max_a f(a) +- f(a + b2), two circular
    max-plus correlations of one vector (_grid_start).  Since
    h+(-b2) = h+(b2) and h-(-b2) = -min_a [f(a) - f(a + b2)], the shifts
    0..N/2 give all N; they take O(N^2) time and, in blocks of a fixed
    entry budget, O(N) memory.  The grid is one full period at spacing
    1/16, N = 16 d; a fixed N grows coarse with d and misses basins
    (N = 256 gives t2 at d = 29 2.3581, not 2.3644).  f is a trigonometric
    polynomial of degree d - 1 whose coefficients come from one FFT
    (_fourier_table), and the grid values from one more (_grid_values).  The
    best grid point starts one Newton ascent in (a1, a2, b2)
    (_newton.newton_ascent): f, f' and f'' at the four offset sums, and with
    them F, its gradient and its Hessian, come from one small matrix
    product.  The ascent stops at a step below 1e-13 d.  Nothing is random.
    The value is re-evaluated through the direct inner-product path at the
    reduced phases, so it is a genuine lower bound on the quantum maximum.
    """
    if isinstance(preset, str):
        preset = BinningPreset(preset, d)
    if preset.d != d:
        raise ValueError(f"preset has d={preset.d}, expected {d}")
    coeffs = build_coefficients(preset.to_binning_spec())
    c = _pair_sums(coeffs)
    if not np.all(_PAIR_SIGNS[:, None] * c.reshape(4, d) == c[0, 0]):
        raise ValueError("the phase search needs one subset for R1, R2, S1 and S2")
    table = _fourier_table(c[0, 0])
    start, _ = _grid_start(*_grid_values(table))
    (a1, a2, b2), _ = newton_ascent(partial(_phase_derivatives, table), start, xtol=1e-13 * d)
    phases = PhaseSettings(a1, a2, 0.0, b2).reduced(d)
    return phases, bell_expectation(d, coeffs, phases, method="direct")
