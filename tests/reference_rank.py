"""Exact integer rank by fraction-free elimination: the tests' reference route.

tightness_certificate proves its ranks modularly (a rank mod 2 or mod p
from below, exact annihilators from the lifted null space from above).  This
module recomputes ranks by an independent method for the tests to compare
against.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Iterable

import numpy as np

# int64 products in row elimination stay below this before the arbitrary
# precision fallback kicks in.
_INT64_SAFE = 2**62
_NORMALISE_ABOVE = 2**20


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
