"""Reference rank routes for the tests: exact integer and modular elimination.

tightness_certificate takes the rank mod 2 of the box generators, a lower
bound, and proves a shortfall from above with closed-form integer
annihilators, which it builds as bit rows.  This module recomputes ranks by
two independent methods for the tests to compare against: ExactIntegerRank,
a fraction-free elimination over the integers, and _modular_rank, an
elimination mod the prime 2^31 - 1 whose shortfall is proven by lifting its
null space to exact integer annihilators (_check_null_space).  annihilators
builds the closed-form annihilators as a dense integer matrix, from their
definition, for the exact orthogonality test and the bit rows' check.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Iterable

import numpy as np

from binned_bell.lr_polytope import BinningSpec, _binning_signs, _extremal_columns

# int64 products in row elimination stay below this before the arbitrary
# precision fallback kicks in.
_INT64_SAFE = 2**62
_NORMALISE_ABOVE = 2**20

# Modulus of the modular rank: a product of two residues stays below 2**62,
# so int64 arithmetic never overflows.
_PRIME = 2**31 - 1
# Rows reduced per batch by the modular rank.
_CHUNK_ROWS = 32
# Rows checked per batch against the lifted null space.
_CHECK_ROWS = 1024


def _gcd_normalise(row: np.ndarray) -> np.ndarray:
    """Divide a row by the gcd of its entries (sign-preserving)."""
    if row.dtype == object:
        g = 0
        for v in row:
            g = gcd(g, abs(int(v)))
            if g == 1:
                break
        if g > 1:
            row = row // g
        if max(abs(int(v)) for v in row) < _INT64_SAFE:
            row = row.astype(np.int64)
        return row
    g = int(np.gcd.reduce(np.abs(row)))
    if g > 1:
        row = row // g
    return row


def _combine(ca: int, row: np.ndarray, cb: int, piv: np.ndarray) -> np.ndarray:
    """Exact integer row combination ca*row - cb*piv, overflow-safe."""
    ca, cb = int(ca), int(cb)
    if row.dtype == object or piv.dtype == object:
        return row.astype(object) * ca - piv.astype(object) * cb
    bound = abs(ca) * int(np.abs(row).max(initial=0)) + abs(cb) * int(
        np.abs(piv).max(initial=0)
    )
    if bound >= _INT64_SAFE:
        return row.astype(object) * ca - piv.astype(object) * cb
    return ca * row - cb * piv


class ExactIntegerRank:
    """Streaming exact rank of integer rows, no floating point anywhere.

    Rows are reduced against stored pivot rows by cross-multiplied integer
    combinations (fraction-free elimination); rows are rescaled by their gcd
    to bound growth and arithmetic falls back to arbitrary precision if a
    combination could overflow int64.  Feeding rows in a fixed order makes
    the reduction deterministic.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivots: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, row: np.ndarray) -> bool:
        """Reduce a row into the basis; True if it increased the rank."""
        row = np.asarray(row)
        if row.shape != (self.ncols,):
            raise ValueError(f"row must have length {self.ncols}")
        if row.dtype == object:
            values = [operator.index(v) for v in row]
            if max((abs(v) for v in values), default=0) < _INT64_SAFE:
                row = np.array(values, dtype=np.int64)
            else:
                row = np.array(values, dtype=object)
        elif np.issubdtype(row.dtype, np.integer):
            row = np.array(row, dtype=np.int64, copy=True)
        else:
            raise ValueError("rank rows must be integer-valued")
        while True:
            nz = np.flatnonzero(row)
            if nz.size == 0:
                return False
            lead = int(nz[0])
            piv = self._pivots.get(lead)
            if piv is None:
                self._pivots[lead] = _gcd_normalise(row)
                return True
            row = _combine(piv[lead], row, row[lead], piv)
            if row.dtype == object or np.abs(row).max(initial=0) > _NORMALISE_ABOVE:
                row = _gcd_normalise(row)


def exact_rank(rows: Iterable[np.ndarray], ncols: int) -> int:
    """Exact integer rank of an iterable of rows."""
    elim = ExactIntegerRank(ncols)
    for row in rows:
        if elim.rank == ncols:
            break
        elim.add(row)
    return elim.rank


def _clear_column(block: np.ndarray, col: int, row: np.ndarray, support: np.ndarray) -> None:
    """Make block[:, col] zero mod p in place, using a row with row[col] == 1."""
    hit = np.flatnonzero(block[:, col])
    if hit.size:
        cells = np.ix_(hit, support)
        block[cells] = (block[cells] - block[hit, col][:, None] * row[support]) % _PRIME


def _modular_rank(configs: np.ndarray, d: int, bound: int) -> int:
    """Rank over Q of the configs' extremal vectors, found mod p, stopping at bound.

    The basis is kept in reduced row echelon form, so a fresh 0/1 row is
    reduced by subtracting the basis rows of its (at most four) pivot
    columns.  Rows are built and reduced a chunk at a time, in the order
    given; a rank short of the bound is proven from above by _check_null_space.
    """
    ncols = 4 * d * d
    # The extra zero row stands in for the basis row of a non-pivot column.
    basis = np.zeros((bound + 1, ncols), dtype=np.int64)
    row_of_pivot = np.full(ncols, bound)
    rank = 0
    for start in range(0, configs.shape[0], _CHUNK_ROWS):
        if rank == bound:
            break
        cols = _extremal_columns(d, configs[start:start + _CHUNK_ROWS])
        rows = np.zeros((cols[0].size, ncols), dtype=np.int64)
        for c in cols:
            rows -= basis[row_of_pivot[c]]
            rows[np.arange(c.size), c] += 1
        rows %= _PRIME
        while rank < bound:
            rows = rows[rows.any(axis=1)]
            if rows.shape[0] == 0:
                break
            row = rows[0]
            col = int(np.flatnonzero(row)[0])
            row = row * pow(int(row[col]), -1, _PRIME) % _PRIME
            support = np.flatnonzero(row)
            _clear_column(basis[:rank], col, row, support)
            rows = rows[1:]
            _clear_column(rows, col, row, support)
            basis[rank] = row
            row_of_pivot[col] = rank
            rank += 1
    if rank < bound:
        _check_null_space(configs, d, basis[:rank], row_of_pivot)
    return rank


def _check_null_space(
    configs: np.ndarray, d: int, basis: np.ndarray, row_of_pivot: np.ndarray
) -> None:
    """Prove rank over Q <= len(basis), or raise ArithmeticError.

    basis is the reduced row echelon basis mod p of every config's row, and
    row_of_pivot[c] its row pivoting on column c (len(basis) or more if none).
    For each non-pivot column f, y_f = e_f - sum_i basis[i, f] e_pivot(i),
    lifted to symmetric residues |y| < p/2, must be annihilated by every row
    exactly; four entries sum below 2^32, so int64 cannot overflow.  These
    unit vectors on the non-pivot columns are independent.  They annihilate
    every integer combination of the rows too, such as each maximizer's row.
    """
    rank = basis.shape[0]
    is_pivot = row_of_pivot < rank
    free = np.flatnonzero(~is_pivot)
    half = _PRIME // 2
    lifted = np.zeros((row_of_pivot.size, free.size), dtype=np.int64)
    lifted[free, np.arange(free.size)] = 1
    lifted[is_pivot] = (half - basis[row_of_pivot[is_pivot]][:, free]) % _PRIME - half
    for start in range(0, configs.shape[0], _CHECK_ROWS):
        c0, c1, c2, c3 = _extremal_columns(d, configs[start:start + _CHECK_ROWS])
        if (lifted[c0] + lifted[c1] + lifted[c2] + lifted[c3]).any():
            raise ArithmeticError(
                f"d={d}: the null space of the rank-{rank} basis mod {_PRIME} does "
                f"not lift to exact annihilators; the rank over Q is unproven"
            )


def annihilators(spec: BinningSpec) -> np.ndarray:
    """4d + 1 integer vectors orthogonal to every maximizer's extremal vector.

    Rows are in the 4d^2 layout of _extremal_columns.  Row a*d + k is +1 on
    row k of block (a,1) and -1 on row k of block (a,2); row (2+b)*d + l is
    +1 on column l of block (1,b) and -1 on column l of block (2,b).  Each
    deterministic vector has one 1 per block, so both kinds vanish on it.
    The last row is z: with x_a(k) = [k not in R_a] and y_b(l) = [l not in
    S_b], it is (x1 + y1 - x1 y1, -x1 y2, -x2 y1, x2 y2) on the blocks.  An
    assignment has 1 + 2 z.v losing terms (terms equal to -1), and a
    maximizer, which scores 2, has exactly one, so z.v = 0.
    """
    d = spec.d
    rows = np.zeros((4 * d + 1, 2, 2, d, d), dtype=np.int8)
    k = np.arange(d)
    for side in range(2):
        rows[side * d + k, side, 0, k, :] = 1
        rows[side * d + k, side, 1, k, :] = -1
        rows[(2 + side) * d + k, 0, side, :, k] = 1
        rows[(2 + side) * d + k, 1, side, :, k] = -1
    x1, x2, y1, y2 = (1 - _binning_signs([spec])[0]) // 2
    z = rows[-1]
    z[0, 0] = np.add.outer(x1, y1) - np.outer(x1, y1)
    z[0, 1] = -np.outer(x1, y2)
    z[1, 0] = -np.outer(x2, y1)
    z[1, 1] = np.outer(x2, y2)
    return rows.reshape(4 * d + 1, -1)
