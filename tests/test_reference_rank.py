"""The exact-rank reference route on its own: small matrices and overflow."""

from __future__ import annotations

import numpy as np

from reference_rank import ExactIntegerRank, exact_rank


class TestExactRank:
    def test_identity_rank(self):
        rows = [np.eye(4, dtype=np.int64)[i] for i in range(4)]
        assert exact_rank(rows, 4) == 4

    def test_dependent_rows_do_not_raise_rank(self):
        rows = [np.array([1, 2, 3]), np.array([2, 4, 6]), np.array([0, 1, 1])]
        assert exact_rank(rows, 3) == 2

    def test_add_reports_whether_row_was_independent(self):
        elim = ExactIntegerRank(3)
        assert elim.add(np.array([1, 1, 0]))
        assert not elim.add(np.array([2, 2, 0]))
        assert elim.add(np.array([0, 0, 5]))
        assert elim.rank == 2

    def test_huge_integers_are_exact(self):
        # Entries beyond int64 must flow through the arbitrary-precision
        # path without wrapping; both matrices are rigged so any overflow
        # would change the rank.
        assert exact_rank([np.array([2**70, 1], dtype=object),
                           np.array([2**70, 2], dtype=object)], 2) == 2
        assert exact_rank([np.array([2**70, 2**70], dtype=object),
                           np.array([1, 1], dtype=object)], 2) == 1

    def test_near_int64_boundary(self):
        big = 2**62 - 1
        rows = [np.array([big, big - 1]), np.array([big - 1, big])]
        assert exact_rank(rows, 2) == 2
