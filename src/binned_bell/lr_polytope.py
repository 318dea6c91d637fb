"""Local-realistic analysis of binned Bell inequalities for d-outcome measurements.

A subset R of the outcome set {0, ..., d-1} defines the binning function
zeta_R(k) = +1 if k in R else -1.  Four subsets (R1, R2 for the first party,
S1, S2 for the second) fix a coefficient tensor

    eps_ab(k, l) = zeta_{R_a}(k) * zeta_{S_b}(l),   (a, b) != (2, 2),
    eps_22(k, l) = -zeta_{R_2}(k) * zeta_{S_2}(l),

and the Bell sum B = sum_ab sum_kl eps_ab(k, l) P_ab(k, l).  Local-realistic
models assign deterministic outcomes (k1, k2, l1, l2) to the four settings,
so the LR bound is the maximum of

    eps_11(k1, l1) + eps_12(k1, l2) + eps_21(k2, l1) + eps_22(k2, l2)

over all d^4 assignments.  For the product form above this value is
x*y1 + x*y2 + xt*y1 - xt*y2 with x, xt, y1, y2 in {-1, +1}, hence always ±2.
So the maximizers are four disjoint boxes, with R' the complement of R:
(R1, all, S1, S2), (R1', all, S1', S2'), (all, R2, S1, S2') and
(all, R2', S1', S2).  lr_max and count_max_configs enumerate the d^4 values
and are the reference route.

Tightness of B <= 2 on the LR polytope is certified by the rank of the
maximizers' extremal 0/1 vectors (tightness_certificate, from the boxes).  A
facet needs rank 4d(d-1); the count of maximizing assignments (closed form
m_formula) reaching that threshold is only a necessary condition.  The rank
mod 2 bounds it from below, and a shortfall is bounded from above by 4d + 1
closed-form integer annihilators, built as bit rows (_annihilator_rows).
Rank computations never touch floating point.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

DEFAULT_ENUMERATION_LIMIT = 32


class EnumerationLimitError(ValueError):
    """d is above the limit: d^4 assignments to enumerate, or a rank over 4 d^2 columns."""


def _check_limit(d: int, limit: int, work: str) -> None:
    if d > limit:
        raise EnumerationLimitError(f"d={d} exceeds the enumeration limit {limit} ({work}); "
                                    f"pass a larger limit to proceed")


def _as_index(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _validate_subset(name: str, subset: Iterable[int], d: int) -> tuple[int, ...]:
    seen: list[int] = []
    for k in subset:
        kk = _as_index(k, f"{name} entry")
        if not 0 <= kk < d:
            raise ValueError(f"{name} contains outcome {kk}, outside 0..{d - 1}")
        if kk in seen:
            raise ValueError(f"{name} lists outcome {kk} more than once")
        seen.append(kk)
    if len(seen) == d:
        raise ValueError(
            f"{name} is the full outcome set for d={d}; the binning would be "
            f"constant (subset sizes must be at most d-1)"
        )
    return tuple(sorted(seen))


@dataclass(frozen=True)
class BinningSpec:
    """Dimension d plus the four binning subsets (R1, R2, S1, S2).

    Subsets are stored sorted and deduplicated.  Sizes range over
    0 <= |subset| <= d-1; the full outcome set is rejected because it makes
    the corresponding binning function constant.
    """

    d: int
    r1: tuple[int, ...]
    r2: tuple[int, ...]
    s1: tuple[int, ...]
    s2: tuple[int, ...]

    def __post_init__(self) -> None:
        d = _as_index(self.d, "d")
        if d < 2:
            raise ValueError(f"d must be at least 2, got {d}")
        object.__setattr__(self, "d", d)
        for name in ("r1", "r2", "s1", "s2"):
            object.__setattr__(self, name, _validate_subset(name, getattr(self, name), d))

    @property
    def subset_sizes(self) -> tuple[int, int, int, int]:
        """(n1, n2, m1, m2) = sizes of (r1, r2, s1, s2)."""
        return (len(self.r1), len(self.r2), len(self.s1), len(self.s2))


def zeta(subset: Iterable[int], d: int) -> np.ndarray:
    """±1 binning vector: +1 on the subset, -1 elsewhere."""
    z = -np.ones(d, dtype=np.int8)
    z[list(subset)] = 1
    return z


@dataclass(frozen=True)
class CoefficientTensor:
    """Bell coefficients eps[a-1, b-1, k, l] with every entry exactly ±1."""

    d: int
    eps: np.ndarray

    def __post_init__(self) -> None:
        eps = np.asarray(self.eps)
        if eps.shape != (2, 2, self.d, self.d):
            raise ValueError(
                f"eps must have shape (2, 2, {self.d}, {self.d}), got {eps.shape}"
            )
        if not np.all(np.abs(eps) == 1):
            raise ValueError("every coefficient must be exactly +1 or -1")
        eps = eps.astype(np.int8)
        eps.setflags(write=False)
        object.__setattr__(self, "eps", eps)


def _binning_signs(specs: list[BinningSpec]) -> np.ndarray:
    """zeta of (R1, R2, S1, S2) for each spec of one d, shape (len(specs), 4, d)."""
    subsets = [subset for spec in specs for subset in (spec.r1, spec.r2, spec.s1, spec.s2)]
    signs = -np.ones((len(subsets), specs[0].d), dtype=np.int8)
    signs[[row for row, subset in enumerate(subsets) for _ in subset],
          [k for subset in subsets for k in subset]] = 1
    return signs.reshape(len(specs), 4, -1)


def _product_coefficients(signs: np.ndarray) -> np.ndarray:
    """eps[..., a, b, k, l] = zeta_{R_a}(k) zeta_{S_b}(l), the (2,2) block negated.

    signs[..., 4, d] holds the zeta vectors of R1, R2, S1 and S2.
    """
    eps = signs[..., :2, None, :, None] * signs[..., None, 2:, None, :]
    eps[..., 1, 1, :, :] *= -1
    return eps


def build_coefficients(spec: BinningSpec) -> CoefficientTensor:
    """Product-form coefficient tensor with the sign of the (2,2) block flipped."""
    return CoefficientTensor(spec.d, _product_coefficients(_binning_signs([spec])[0]))


def _chsh_table(f11: np.ndarray, f12: np.ndarray, f21: np.ndarray, f22: np.ndarray) -> np.ndarray:
    """T[x1, x2, y1, y2] = f11[x1, y1] + f12[x1, y2] + f21[x2, y1] + f22[x2, y2].

    The one layout of the Bell sum over a product of settings: deterministic
    outcomes here, phase or displacement grids in the quantum searches.  The
    terms are added in this order, so a table's entries are the bits of the
    four-term sum at each point.  Leading axes (...) of the four inputs
    index separate tables, T[..., x1, x2, y1, y2].
    """
    return (
        f11[..., :, None, :, None]
        + f12[..., :, None, None, :]
        + f21[..., None, :, :, None]
        + f22[..., None, :, None, :]
    )


def _all_values(eps: np.ndarray) -> np.ndarray:
    """All d^4 deterministic values of eps[..., 2, 2, d, d], indexed [..., k1, k2, l1, l2]."""
    e = eps.astype(np.int16)
    return _chsh_table(e[..., 0, 0, :, :], e[..., 0, 1, :, :],
                       e[..., 1, 0, :, :], e[..., 1, 1, :, :])


def lr_max(coeffs: CoefficientTensor, *, limit: int = DEFAULT_ENUMERATION_LIMIT) -> float:
    """Exact LR bound: maximum deterministic value over all d^4 assignments."""
    _check_limit(coeffs.d, limit, f"d^4 = {coeffs.d**4} deterministic assignments")
    return float(_all_values(coeffs.eps).max())


def count_max_configs(
    coeffs: CoefficientTensor, *, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> int:
    """Number of deterministic assignments attaining lr_max (exact count).

    The one-tensor case of _max_config_counts.
    """
    _check_limit(coeffs.d, limit, f"d^4 = {coeffs.d**4} deterministic assignments")
    return int(_max_config_counts(coeffs.eps))


def _max_config_counts(eps: np.ndarray) -> np.ndarray:
    """Maximizer count of each coefficient tensor eps[..., 2, 2, d, d]."""
    values = _all_values(eps)
    axes = (-4, -3, -2, -1)
    return (values == values.max(axis=axes, keepdims=True)).sum(axis=axes)


def m_formula(spec: BinningSpec) -> int:
    """Closed-form count of LR maximizers, d^2 (d^2 - d(n1+m1) + n1(m1+m2) + n2(m1-m2))."""
    d = spec.d
    n1, n2, m1, m2 = spec.subset_sizes
    return d * d * (d * d - d * (n1 + m1) + n1 * (m1 + m2) + n2 * (m1 - m2))


def facet_threshold(d: int) -> int:
    """Minimum number of independent extremal vectors a facet needs, 4d(d-1)."""
    return 4 * d * (d - 1)


def _extremal_columns(d: int, configs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Column of the 1 in each of the four blocks, for (k1, k2, l1, l2) rows.

    An extremal vector has 4d^2 entries in blocks (a, b) = (1,1), (1,2),
    (2,1), (2,2); block (a, b) holds a single 1 at k_a * d + l_b.
    """
    k1, k2, l1, l2 = np.asarray(configs).T
    dd = d * d
    return (k1 * d + l1, dd + k1 * d + l2, 2 * dd + k2 * d + l1, 3 * dd + k2 * d + l2)


def _gf2_rank(rows: Iterable[int], bound: int) -> int:
    """Rank mod 2 of bit rows (Python ints, bit c for column c), stopping at bound.

    The basis maps each row's top bit to the row; a fresh row is XORed with
    the basis row of its top bit until that bit is new (-1 once the row
    vanishes).
    """
    basis: dict[int, int] = {}
    for row in rows:
        while (top := row.bit_length() - 1) in basis:
            row ^= basis[top]
        if row:
            basis[top] = row
            if len(basis) == bound:
                break
    return len(basis)


def _bit_row(entries: np.ndarray) -> int:
    """Bit row (bit c for column c) of a 0/1 vector."""
    return int.from_bytes(np.packbits(entries, bitorder="little").tobytes(), "little")


def _annihilator_rows(spec: BinningSpec) -> tuple[list[int], np.ndarray]:
    """The 4d + 1 annihilators as bit rows mod 2, and the last one, z, in integers.

    Each is orthogonal to every maximizer's extremal vector (layout of
    _extremal_columns).  Row a*d + k is +1 on row k of block (a,1) and -1 on
    row k of block (a,2); row (2+b)*d + l is +1 on column l of block (1,b)
    and -1 on column l of block (2,b).  Each deterministic vector has one 1
    per block, so both kinds vanish on it; mod 2 each is a pair of block
    rows or block columns of ones.  z, with x_a(k) = [k not in R_a]
    and y_b(l) = [l not in S_b], is (x1 + y1 - x1 y1, -x1 y2, -x2 y1, x2 y2)
    on the blocks.  An assignment has 1 + 2 z.v losing terms (terms equal to
    -1), and a maximizer, which scores 2, has exactly one, so z.v = 0.
    """
    d = spec.d
    dd = d * d
    block_row = ((1 << d) - 1) * (1 | 1 << dd)
    block_column = sum(1 << k * d for k in range(d)) * (1 | 1 << 2 * dd)
    rows = [block_row << 2 * side * dd + k * d for side in range(2) for k in range(d)]
    rows += [block_column << side * dd + k for side in range(2) for k in range(d)]
    x1, x2, y1, y2 = (1 - _binning_signs([spec])[0]) // 2
    z = np.concatenate([np.add.outer(x1, y1) - np.outer(x1, y1), -np.outer(x1, y2),
                        -np.outer(x2, y1), np.outer(x2, y2)], axis=None)
    rows.append(_bit_row(z != 0))
    return rows, z


def _prove_shortfall(spec: BinningSpec, columns: tuple[np.ndarray, ...], rank: int) -> None:
    """Prove that the extremal vectors with these _extremal_columns have rank
    `rank` over Q, or raise ArithmeticError.

    rank is their rank mod 2, a lower bound.  Let H be the columns that some
    vector touches.  The annihilators restricted to H are orthogonal to every
    vector, so the rank is at most |H| minus their rank over Q, which is at
    least the rank mod 2 of their bit rows masked by H.  The party rows
    annihilate any deterministic vector; z is checked here in integers.
    """
    d = spec.d
    rows, z = _annihilator_rows(spec)
    if (z[columns[0]] + z[columns[1]] + z[columns[2]] + z[columns[3]]).any():
        raise ArithmeticError(f"d={d}: the losing-term vector z misses a maximizer")
    touched = np.zeros(4 * d * d, dtype=bool)
    for c in columns:
        touched[c] = True
    hit = _bit_row(touched)
    upper = hit.bit_count() - _gf2_rank((row & hit for row in rows), len(rows))
    if upper != rank:
        raise ArithmeticError(
            f"d={d}: the rank over Q lies between {rank} (GF(2) rank) and "
            f"{upper} (annihilator bound); it is unproven"
        )


@dataclass(frozen=True)
class TightnessReport:
    """Certificate data for one binned inequality."""

    lr_max: float
    m_counted: int
    m_formula: int
    threshold: int
    linear_rank: int
    affine_rank: int
    is_tight_by_count: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _maximizer_boxes(spec: BinningSpec) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The four disjoint boxes (K1, K2, L1, L2) whose union is the maximizer set."""
    every = tuple(range(spec.d))
    r1c, r2c, s1c, s2c = (tuple(k for k in every if k not in subset)
                          for subset in (spec.r1, spec.r2, spec.s1, spec.s2))
    return ((spec.r1, every, spec.s1, spec.s2), (r1c, every, s1c, s2c),
            (every, spec.r2, spec.s1, s2c), (every, r2c, s1c, spec.s2))


def _box_generators(boxes) -> np.ndarray:
    """Each nonempty box's points that differ from its base point (the first
    entry of each side) only in the coordinates of one block, listed once."""
    configs: dict[tuple[int, ...], None] = {}
    for box in filter(all, boxes):
        # Blocks (k1, l1), (k1, l2), (k2, l1), (k2, l2) as config coordinates.
        for block in ((0, 2), (0, 3), (1, 2), (1, 3)):
            sides = [side if n in block else side[:1] for n, side in enumerate(box)]
            configs.update(dict.fromkeys(itertools.product(*sides)))
    return np.array(list(configs), dtype=np.int64)


def tightness_certificate(
    spec: BinningSpec, *, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> TightnessReport:
    """Certify tightness of the binned inequality from its four maximizer boxes.

    Every assignment scores ±2 and box (R1', all, S1', S2') is never empty
    (BinningSpec rejects full subsets), so lr_max is 2; m_counted adds the
    box sizes.  An extremal vector v is a sum of one term per block
    (k_a, l_b).  So if b is a box's base point, x_ab the point with block
    (a, b) from x and the rest from b, and x_i the one with coordinate i
    from x, every x in the box has v(x) = sum_ab v(x_ab) - sum_i v(x_i) + v(b).
    That holds over Z, hence mod 2: the O(d^2) generators of _box_generators
    span what all maximizers span.

    The rank has a geometric upper bound: all d^4 deterministic vectors
    span (2d-1)^2 dimensions, and when some assignment is not a maximizer
    the maximizers lie on a proper face, of rank at most 4d(d-1).  The rank
    is computed over GF(2), stopping at the bound; an integer matrix's rank
    mod 2 never exceeds its rank over Q (a minor that is odd is a nonzero
    integer), so reaching the bound proves the exact rank.  A shortfall r
    is proven from above by _prove_shortfall: the bit rows of the 4d + 1
    annihilators, masked by the columns H that the generators touch, have
    rank mod 2 at least |H| - r, or the call raises ArithmeticError.  Only
    a shortfall builds them.

    is_tight_by_count compares the exact count against the facet threshold
    4d(d-1) and is only a necessary condition: specs with empty subsets
    (which the CLI cannot express) can pass the count with linear_rank below
    the threshold, and are not facets.
    """
    d = spec.d
    _check_limit(d, limit, f"a rank over 4d^2 = {4 * d * d} columns")
    boxes = _maximizer_boxes(spec)
    m_counted = sum(len(k1) * len(k2) * len(l1) * len(l2) for k1, k2, l1, l2 in boxes)
    threshold = facet_threshold(d)
    bound = (2 * d - 1) ** 2 if m_counted == d**4 else threshold
    columns = _extremal_columns(d, _box_generators(boxes))
    rank = _gf2_rank((1 << c0 | 1 << c1 | 1 << c2 | 1 << c3 for c0, c1, c2, c3
                      in zip(*(c.tolist() for c in columns))), bound)
    if rank < bound:
        _prove_shortfall(spec, columns, rank)
    return TightnessReport(
        lr_max=2.0,
        m_counted=m_counted,
        m_formula=m_formula(spec),
        threshold=threshold,
        linear_rank=rank,
        # This is the linear rank, not the affine dimension: every extremal
        # vector's first block sums to 1, so the affine hull of the maximizers
        # misses the origin and has dimension rank - 1.
        affine_rank=rank,
        is_tight_by_count=m_counted >= threshold,
    )
