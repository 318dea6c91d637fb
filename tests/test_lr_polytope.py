"""Enumeration, closed-form counting, and two-sided rank certificates."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

import reference_rank
from binned_bell import cli, lr_polytope
from binned_bell.lr_polytope import (
    BinningSpec,
    CoefficientTensor,
    EnumerationLimitError,
    _all_values,
    _chsh_table,
    build_coefficients,
    count_max_configs,
    facet_threshold,
    lr_max,
    m_formula,
    tightness_certificate,
    zeta,
)
from binned_bell.qudit import BinningPreset
from reference_rank import ExactIntegerRank, _check_null_space, _modular_rank, annihilators

# Frozen enumeration oracles: (spec, lr_max, maximizer count, linear rank).
# Counts and ranks come from independent brute-force enumeration; the rank
# always matches the facet threshold 4d(d-1) for these inequalities.
T1 = lambda d: BinningSpec(d=d, r1=tuple(range(0, d, 2)), r2=tuple(range(0, d, 2)),
                           s1=tuple(range(0, d, 2)), s2=tuple(range(0, d, 2)))
ORACLES = [
    (T1(2), 2.0, 8, 8),
    (BinningSpec(d=3, r1=(0,), r2=(0,), s1=(0,), s2=(0,)), 2.0, 45, 24),
    (T1(4), 2.0, 128, 48),
    (T1(6), 2.0, 648, 120),
    (T1(8), 2.0, 2048, 224),
]


def random_spec(rng: np.random.Generator, d: int, min_size: int = 1) -> BinningSpec:
    def subset() -> tuple[int, ...]:
        size = int(rng.integers(min_size, d))
        return tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))

    return BinningSpec(d=d, r1=subset(), r2=subset(), s1=subset(), s2=subset())


def maximizers(spec: BinningSpec) -> np.ndarray:
    values = _all_values(build_coefficients(spec).eps)
    return np.argwhere(values == values.max())


def generators(spec: BinningSpec) -> np.ndarray:
    return lr_polytope._box_generators(lr_polytope._maximizer_boxes(spec))


def rank_bound(spec: BinningSpec) -> int:
    """The certificate's geometric bound: (2d-1)^2 if every assignment is a
    maximizer, else the facet threshold."""
    everything = m_formula(spec) == spec.d**4
    return (2 * spec.d - 1) ** 2 if everything else facet_threshold(spec.d)


def prefix_specs(d: int) -> list[BinningSpec]:
    """One spec per size tuple (n1, n2, m1, m2), each subset a prefix of 0..d-1."""
    return [BinningSpec(d, *(range(n) for n in sizes))
            for sizes in itertools.product(range(d), repeat=4)]


@pytest.fixture
def annihilator_calls(monkeypatch) -> list[BinningSpec]:
    """The spec of every _annihilator_rows call the test makes."""
    calls = []
    annihilator_rows = lr_polytope._annihilator_rows

    def spy(spec):
        calls.append(spec)
        return annihilator_rows(spec)

    monkeypatch.setattr(lr_polytope, "_annihilator_rows", spy)
    return calls


def deterministic_value(eps: np.ndarray, config) -> int:
    """Bell sum of one assignment (k1, k2, l1, l2), term by term from eps."""
    k1, k2, l1, l2 = config
    terms = (eps[0, 0, k1, l1], eps[0, 1, k1, l2], eps[1, 0, k2, l1], eps[1, 1, k2, l2])
    return sum(int(t) for t in terms)


def extremal_row(d: int, config) -> np.ndarray:
    """0/1 vector of an assignment in the 4d^2 layout: blocks (a, b) =
    (1,1), (1,2), (2,1), (2,2), block (a, b) with a 1 at k_a * d + l_b."""
    k1, k2, l1, l2 = config
    row = np.zeros((4, d * d), dtype=np.int64)
    for block, (k, l) in enumerate(((k1, l1), (k1, l2), (k2, l1), (k2, l2))):
        row[block, k * d + l] = 1
    return row.ravel()


def bit_row(d: int, config) -> int:
    """extremal_row as a Python int, bit c set for each column c holding a 1."""
    return sum(1 << int(c) for c in np.flatnonzero(extremal_row(d, config)))


class TestBinningSpec:
    def test_subsets_are_sorted_and_sized(self):
        spec = BinningSpec(d=4, r1=(2, 0), r2=(1,), s1=(3, 1), s2=(0,))
        assert spec.r1 == (0, 2)
        assert spec.s1 == (1, 3)
        assert spec.subset_sizes == (2, 1, 2, 1)

    def test_full_subset_rejected(self):
        with pytest.raises(ValueError, match="at most d-1"):
            BinningSpec(d=2, r1=(0, 1), r2=(0,), s1=(0,), s2=(0,))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BinningSpec(d=2, r1=(2,), r2=(0,), s1=(0,), s2=(0,))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            BinningSpec(d=3, r1=(0, 0), r2=(0,), s1=(0,), s2=(0,))

    def test_empty_subsets_allowed(self):
        spec = BinningSpec(d=3, r1=(), r2=(), s1=(), s2=())
        assert spec.subset_sizes == (0, 0, 0, 0)


class TestCoefficients:
    def test_zeta_signs(self):
        assert zeta((0, 2), 4).tolist() == [1, -1, 1, -1]
        assert zeta((), 3).tolist() == [-1, -1, -1]

    def test_entries_are_products_with_flipped_last_block(self):
        spec = T1(4)
        coeffs = build_coefficients(spec)
        za = zeta(spec.r1, 4)
        zb = zeta(spec.s2, 4)
        assert np.array_equal(coeffs.eps[0, 0], np.outer(za, zeta(spec.s1, 4)))
        assert np.array_equal(coeffs.eps[1, 1], -np.outer(zeta(spec.r2, 4), zb))

    def test_non_sign_entries_rejected(self):
        eps = np.ones((2, 2, 2, 2), dtype=np.int8)
        eps[0, 0, 0, 0] = 0
        with pytest.raises(ValueError):
            CoefficientTensor(d=2, eps=eps)


class TestDeterministicValues:
    def test_all_sixteen_assignments_give_plus_minus_two(self):
        """Every deterministic assignment hits one of the two extreme values.

        In particular (k1,k2,l1,l2) = (0,1,0,1) evaluates to -2: the last
        correlation enters with a flipped sign, which a term-by-term reading
        without that flip would miss.
        """
        coeffs = build_coefficients(T1(2))
        values = _all_values(coeffs.eps)
        for cfg in itertools.product(range(2), repeat=4):
            assert values[cfg] == deterministic_value(coeffs.eps, cfg)
        assert set(values.ravel().tolist()) == {-2, 2}
        assert values[0, 1, 0, 1] == -2

    def test_lr_max_is_two_for_binned_tensors(self):
        for spec, expected_max, _, _ in ORACLES:
            assert lr_max(build_coefficients(spec)) == expected_max

    def test_all_plus_tensor_reaches_four(self):
        # Not of the binned product form, so the classical bound 2 need not apply.
        eps = np.ones((2, 2, 2, 2), dtype=np.int8)
        assert lr_max(CoefficientTensor(d=2, eps=eps)) == 4.0


class TestChshTable:
    @staticmethod
    def loop_table(f11, f12, f21, f22) -> np.ndarray:
        shape = (f11.shape[0], f21.shape[0], f11.shape[1], f12.shape[1])
        out = np.empty(shape, dtype=np.result_type(f11, f12, f21, f22))
        for x1, x2, y1, y2 in itertools.product(*map(range, shape)):
            out[x1, x2, y1, y2] = f11[x1, y1] + f12[x1, y2] + f21[x2, y1] + f22[x2, y2]
        return out

    def test_matches_loop_on_floats_and_int16(self):
        # Unequal axis lengths, so a swapped index shows as a shape or value error.
        rng = np.random.default_rng(3)
        x1, x2, y1, y2 = 2, 3, 4, 5
        shapes = [(x1, y1), (x1, y2), (x2, y1), (x2, y2)]
        floats = [rng.normal(size=shape) for shape in shapes]
        ints = [rng.integers(-3, 4, size=shape).astype(np.int16) for shape in shapes]
        for f in (floats, ints):
            table = _chsh_table(*f)
            assert table.dtype == f[0].dtype
            assert np.array_equal(table, self.loop_table(*f))

    def test_negated_fourth_table_is_the_chsh_combination(self):
        # The displaced-parity grid passes (E, E, E, -E): bit for bit the
        # table of E11 + E12 + E21 - E22.
        e = np.random.default_rng(4).normal(size=(6, 6))
        table = _chsh_table(e, e, e, -e)
        for x1, x2, y1, y2 in itertools.product(range(6), repeat=4):
            expected = e[x1, y1] + e[x1, y2] + e[x2, y1] - e[x2, y2]
            assert table[x1, x2, y1, y2] == expected


class TestMaximizerCounting:
    @pytest.mark.parametrize("spec,_,count,__", ORACLES)
    def test_frozen_counts(self, spec, _, count, __):
        assert count_max_configs(build_coefficients(spec)) == count

    @pytest.mark.parametrize("spec,_,count,__", ORACLES)
    def test_formula_matches_frozen_counts(self, spec, _, count, __):
        assert m_formula(spec) == count

    def test_formula_matches_enumeration_on_random_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            spec = random_spec(rng, d)
            assert m_formula(spec) == count_max_configs(build_coefficients(spec))

    @pytest.mark.parametrize("spec", [
        BinningSpec(d=3, r1=(), r2=(), s1=(), s2=()),
        BinningSpec(d=2, r1=(0,), r2=(), s1=(1,), s2=()),
    ])
    def test_formula_holds_for_empty_subsets(self, spec):
        assert m_formula(spec) == count_max_configs(build_coefficients(spec))

    def test_count_is_relabeling_invariant(self):
        # Relabeling outcomes permutes assignments bijectively, so the
        # maximizer count cannot change.
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            spec = random_spec(rng, d)
            perm = rng.permutation(d)
            mapped = BinningSpec(
                d=d,
                r1=tuple(sorted(int(perm[i]) for i in spec.r1)),
                r2=tuple(sorted(int(perm[i]) for i in spec.r2)),
                s1=tuple(sorted(int(perm[i]) for i in spec.s1)),
                s2=tuple(sorted(int(perm[i]) for i in spec.s2)),
            )
            assert (count_max_configs(build_coefficients(mapped))
                    == count_max_configs(build_coefficients(spec)))

    def test_enumeration_limit_guard(self):
        # Each message names what the limit bounds: the enumerations count
        # d^4 assignments, the certificate enumerates none.
        coeffs = build_coefficients(T1(6))
        for call in (lr_max, count_max_configs):
            with pytest.raises(EnumerationLimitError, match=r"\(d\^4 = 1296 deterministic"):
                call(coeffs, limit=4)
        with pytest.raises(EnumerationLimitError, match=r"\(a rank over 4d\^2 = 144 columns\)"):
            tightness_certificate(T1(6), limit=4)


class TestExtremalVectors:
    def test_one_entry_per_block(self):
        blocks = extremal_row(3, (0, 1, 2, 0)).reshape(4, 9)
        assert np.array_equal(blocks.sum(axis=1), [1, 1, 1, 1])
        assert np.flatnonzero(blocks).tolist() == [2, 9 + 0, 18 + 5, 27 + 3]

    def test_injective_over_configs(self):
        for d in (2, 3):
            seen = {
                extremal_row(d, cfg).tobytes() for cfg in itertools.product(range(d), repeat=4)
            }
            assert len(seen) == d**4

    def test_modular_rank_columns_match_the_definition(self):
        # The certificate builds its rows through _extremal_columns.
        d = 3
        configs = np.array(list(itertools.product(range(d), repeat=4)))
        columns = np.stack(lr_polytope._extremal_columns(d, configs), axis=1)
        for config, cols in zip(configs, columns):
            assert cols.tolist() == np.flatnonzero(extremal_row(d, config)).tolist()

    @pytest.mark.parametrize("d", [2, 3])
    def test_span_of_all_vectors(self, d):
        """All d^4 deterministic vectors span a (2d-1)^2-dimensional space.

        Each party contributes 2d-1 independent marginals, so the facet
        threshold 4d(d-1) = (2d-1)^2 - 1 is exactly one less than full
        affine dimension.
        """
        elim = ExactIntegerRank(4 * d * d)
        for cfg in itertools.product(range(d), repeat=4):
            elim.add(extremal_row(d, cfg))
        assert elim.rank == (2 * d - 1) ** 2


class TestTightnessCertificate:
    @pytest.mark.parametrize("spec,_,count,rank", ORACLES)
    def test_frozen_certificates(self, spec, _, count, rank, annihilator_calls):
        report = tightness_certificate(spec)
        # Facets reach the bound over GF(2), without the annihilators.
        assert annihilator_calls == []
        assert report.lr_max == 2.0
        assert report.m_counted == count
        assert report.m_formula == count
        assert report.threshold == facet_threshold(spec.d)
        assert report.linear_rank == rank
        assert report.affine_rank == rank
        assert report.is_tight_by_count

    def test_rank_meets_threshold_on_random_specs(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            d = int(rng.integers(2, 6))
            report = tightness_certificate(random_spec(rng, d))
            assert report.linear_rank >= report.threshold
            assert report.m_counted >= report.threshold

    @staticmethod
    def reference_rank(spec: BinningSpec) -> int:
        """Exact rank of the maximizers, each found and built from the definition."""
        eps = build_coefficients(spec).eps
        configs = list(itertools.product(range(spec.d), repeat=4))
        values = [deterministic_value(eps, cfg) for cfg in configs]
        top = max(values)
        elim = ExactIntegerRank(4 * spec.d * spec.d)
        for cfg, value in zip(configs, values):
            if value == top:
                elim.add(extremal_row(spec.d, cfg))
        return elim.rank

    def test_ranks_match_exact_stream_on_random_specs(self):
        # With sizes 0..d-1 many specs fall short of the facet bound, so
        # their rank is proven from above by the annihilators.  The GF(2)
        # rank, unstopped (bound = number of columns), never exceeds the
        # exact one.
        shortfalls = 0
        for seed, min_size in ((13, 1), (17, 0)):
            rng = np.random.default_rng(seed)
            for d in range(2, 7):
                for _ in range(3):
                    spec = random_spec(rng, d, min_size)
                    report = tightness_certificate(spec)
                    rank = self.reference_rank(spec)
                    assert (report.linear_rank, report.affine_rank) == (rank, rank), spec
                    rows = (bit_row(d, config) for config in maximizers(spec))
                    assert lr_polytope._gf2_rank(rows, 4 * d * d) <= rank
                    shortfalls += rank < report.threshold
        assert shortfalls > 0

    def test_unproven_rank_raises(self, monkeypatch):
        # The reference modular stream: modulo 2 the lift to symmetric
        # residues loses the signs of the null space, so the exact check
        # fails and no rank may be reported.  The GF(2) rank falls short on
        # this spec, so the stream reaches that check below the bound.
        spec = BinningSpec(d=3, r1=(1,), r2=(), s1=(), s2=())
        rank = tightness_certificate(spec).linear_rank
        assert rank < 24
        assert _modular_rank(generators(spec), 3, 24) == rank
        monkeypatch.setattr(reference_rank, "_PRIME", 2)
        with pytest.raises(ArithmeticError):
            _modular_rank(generators(spec), 3, 24)

    def test_every_d3_spec_matches_the_modular_stream(self):
        # All 7^4 specs with subsets of size 0..2, shortfalls included,
        # against the reference modular stream.  It is deterministic, so
        # each generator set runs it once.
        memo = {}
        subsets = [s for n in range(3) for s in itertools.combinations(range(3), n)]
        ranks = set()
        for sets in itertools.product(subsets, repeat=4):
            spec = BinningSpec(3, *sets)
            configs, bound = generators(spec), rank_bound(spec)
            key = (configs.tobytes(), bound)
            if key not in memo:
                memo[key] = _modular_rank(configs, 3, bound)
            report = tightness_certificate(spec)
            assert report.linear_rank == report.affine_rank == memo[key], spec
            ranks.add(report.linear_rank)
        assert 24 in ranks and min(ranks) < 24

    def test_forced_gf2_shortfall_raises(self, monkeypatch, annihilator_calls):
        # A GF(2) rank one short of a facet's true rank leaves a gap to the
        # annihilator bound, so no rank may be reported.
        spec = T1(4)
        calls = []
        gf2_rank = lr_polytope._gf2_rank

        def short_on_generators(rows, bound):
            calls.append(bound)
            rank = gf2_rank(rows, bound)
            return rank - 1 if len(calls) == 1 else rank

        monkeypatch.setattr(lr_polytope, "_gf2_rank", short_on_generators)
        with pytest.raises(ArithmeticError, match=r"between 47 .* and 48 "):
            tightness_certificate(spec)
        assert annihilator_calls == [spec]
        assert calls == [48, 17]

    def test_every_free_column_is_checked(self):
        # A claimed basis that pivots on three of a row's four ones misses
        # one direction.  Only the annihilator of the fourth column exposes
        # it, so the reference check must raise wherever that column sits.
        d = 2
        ncols = 4 * d * d
        for config in itertools.product(range(d), repeat=4):
            columns = [int(c[0]) for c in lr_polytope._extremal_columns(d, np.array([config]))]
            for free in columns:
                pivots = [c for c in columns if c != free]
                basis = np.eye(ncols, dtype=np.int64)[pivots]
                row_of_pivot = np.full(ncols, len(pivots))
                row_of_pivot[pivots] = np.arange(len(pivots))
                with pytest.raises(ArithmeticError):
                    _check_null_space(np.array([config]), d, basis, row_of_pivot)

    @pytest.mark.parametrize("spec,rank", [
        # Passes the count (54 >= 24) but is not a facet.
        (BinningSpec(d=3, r1=(), r2=(), s1=(0,), s2=()), 20),
        (BinningSpec(d=4, r1=(1,), r2=(), s1=(0, 2), s2=(3,)), 40),
        (BinningSpec(d=2, r1=(0,), r2=(), s1=(1,), s2=()), 4),
        # Every assignment is a maximizer: the rank is the full (2d-1)^2.
        (BinningSpec(d=3, r1=(), r2=(), s1=(), s2=()), 25),
    ])
    def test_ranks_match_exact_stream_with_empty_subsets(self, spec, rank):
        report = tightness_certificate(spec)
        assert self.reference_rank(spec) == rank
        assert (report.linear_rank, report.affine_rank) == (rank, rank)
        assert report.is_tight_by_count == (report.m_counted >= report.threshold)

    def test_report_serialization_field_names(self):
        report = tightness_certificate(T1(2))
        assert list(report.to_dict()) == [
            "lr_max", "m_counted", "m_formula", "threshold",
            "linear_rank", "affine_rank", "is_tight_by_count",
        ]


class TestAnnihilators:
    """The 4d + 1 closed-form annihilators that prove every shortfall."""

    def test_every_annihilator_vanishes_on_every_maximizer(self):
        # Maximizers from the d^4 enumeration, each row built from the
        # definition; random specs with empty subsets allowed.
        rng = np.random.default_rng(43)
        for d in range(2, 6):
            for _ in range(12):
                spec = random_spec(rng, d, min_size=0)
                vectors = annihilators(spec).astype(np.int64)
                assert vectors.shape == (4 * d + 1, 4 * d * d)
                rows = np.array([extremal_row(d, config) for config in maximizers(spec)])
                assert not (vectors @ rows.T).any(), spec

    def test_bit_rows_are_the_annihilators_mod_2(self):
        # The package's closed-form bit rows against the reference integer
        # annihilators, row by row, and its integer z against their last row.
        rng = np.random.default_rng(53)
        for d in range(2, 9):
            for _ in range(6):
                spec = random_spec(rng, d, min_size=0)
                vectors = annihilators(spec)
                rows, z = lr_polytope._annihilator_rows(spec)
                assert rows == [sum(1 << int(c) for c in np.flatnonzero(vector & 1))
                                for vector in vectors], spec
                assert z.dtype.kind == "i" and (z == vectors[-1]).all(), spec

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_prefix_ranks_match_the_modular_stream(self, d):
        # Every size tuple at d, the shortfalls proven by the annihilators.
        shortfalls = 0
        for spec in prefix_specs(d):
            bound = rank_bound(spec)
            rank = tightness_certificate(spec).linear_rank
            assert rank == _modular_rank(generators(spec), d, bound), spec
            shortfalls += rank < bound
        assert shortfalls > 0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_prefix_ranks_match_the_exact_rank(self, d):
        # Every maximizer of the d^4 enumeration, fraction-free over Z.
        for spec in prefix_specs(d):
            elim = ExactIntegerRank(4 * d * d)
            for config in maximizers(spec):
                if elim.rank == rank_bound(spec):
                    break
                elim.add(extremal_row(d, config))
            assert tightness_certificate(spec).linear_rank == elim.rank, spec

    def test_annihilators_prove_the_facet_rank(self):
        # On a facet the annihilators meet the GF(2) rank too: the party rows
        # have rank 4d - 1 mod 2 and z adds the last one.  On the shortfalls
        # measured so far the party rows alone close the gap, so this is the
        # test that needs z.
        for d in range(2, 9):
            spec = T1(d)
            columns = lr_polytope._extremal_columns(d, generators(spec))
            lr_polytope._prove_shortfall(spec, columns, facet_threshold(d))
            with pytest.raises(ArithmeticError, match="between"):
                lr_polytope._prove_shortfall(spec, columns, facet_threshold(d) - 1)

    @pytest.mark.parametrize("spec,limit,rank", [
        (BinningSpec(32, (), range(16), range(16), range(16)), 32, 3457),
        (BinningSpec(64, (), range(32), range(32), range(32)), 64, 14081),
    ])
    def test_frozen_shortfalls(self, spec, limit, rank, annihilator_calls):
        report = tightness_certificate(spec, limit=limit)
        assert report.linear_rank == report.affine_rank == rank
        assert rank < report.threshold
        assert annihilator_calls == [spec]

    def test_shortfall_proof_memory_stays_small(self):
        # The annihilator bound alone proves 56833 at d = 128 from above.  A
        # dense (4d + 1) x 4d^2 int8 matrix of the annihilators is 34 MB.
        spec = BinningSpec(128, (), range(64), range(64), range(64))
        columns = lr_polytope._extremal_columns(128, generators(spec))
        tracemalloc.start()
        try:
            lr_polytope._prove_shortfall(spec, columns, 56833)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_facets_never_build_the_annihilators(self, annihilator_calls):
        # The t1/t3 presets and certify's random specs (nonempty subsets)
        # all reach the bound over GF(2).
        specs = [BinningPreset(kind, d).to_binning_spec()
                 for kind in ("t1", "t3") for d in range(2, 9)]
        rng = np.random.default_rng(47)
        specs += [cli._random_spec(rng, int(rng.integers(2, 7))) for _ in range(60)]
        for spec in specs:
            report = tightness_certificate(spec)
            assert report.linear_rank == report.threshold, spec
        assert annihilator_calls == []


class TestMaximizerBoxes:
    """The four boxes and their generators against the d^4 enumeration."""

    @staticmethod
    def specs_with_empty_subsets(seed: int, dims: range, per_d: int) -> list[BinningSpec]:
        rng = np.random.default_rng(seed)
        return [random_spec(rng, d, min_size=0) for d in dims for _ in range(per_d)]

    def test_boxes_partition_the_maximizers(self):
        # All 7^4 specs at d = 3, then random ones at d = 4..8.
        subsets = [s for n in range(3) for s in itertools.combinations(range(3), n)]
        specs = [BinningSpec(3, *sets) for sets in itertools.product(subsets, repeat=4)]
        specs += self.specs_with_empty_subsets(29, range(4, 9), 10)
        for spec in specs:
            boxes = [set(itertools.product(*box)) for box in lr_polytope._maximizer_boxes(spec)]
            union = set().union(*boxes)
            assert sum(map(len, boxes)) == len(union), spec
            assert union == set(map(tuple, maximizers(spec).tolist())), spec

    def test_generators_span_every_maximizer(self):
        for spec in self.specs_with_empty_subsets(31, range(2, 6), 4):
            d = spec.d
            generators = lr_polytope._box_generators(lr_polytope._maximizer_boxes(spec))
            elim = ExactIntegerRank(4 * d * d)
            for config in generators:
                elim.add(extremal_row(d, config))
            rank = elim.rank
            for config in maximizers(spec):
                elim.add(extremal_row(d, config))
            assert elim.rank == rank, spec

    def test_box_points_are_integer_combinations_of_generators(self):
        # v(x) = sum_ab v(x_ab) - sum_i v(x_i) + v(b), with b the base point.
        rng = np.random.default_rng(37)
        d = 5
        for spec in self.specs_with_empty_subsets(41, range(d, d + 1), 6):
            for box in filter(all, lr_polytope._maximizer_boxes(spec)):
                base = [side[0] for side in box]
                for _ in range(5):
                    x = [int(rng.choice(side)) for side in box]

                    def mixed(coordinates):
                        return extremal_row(d, [x[n] if n in coordinates else base[n]
                                                for n in range(4)])

                    blocks = ((0, 2), (0, 3), (1, 2), (1, 3))
                    combination = (sum(mixed(block) for block in blocks)
                                   - sum(mixed((n,)) for n in range(4)) + mixed(()))
                    assert np.array_equal(combination, extremal_row(d, x)), (spec, x)

    def test_report_counts_match_the_enumeration(self):
        for spec in self.specs_with_empty_subsets(31, range(2, 6), 4):
            coeffs = build_coefficients(spec)
            report = tightness_certificate(spec)
            assert report.lr_max == lr_max(coeffs)
            assert report.m_counted == count_max_configs(coeffs)

    def test_frozen_t1_d64(self):
        report = tightness_certificate(T1(64), limit=64)
        assert report.linear_rank == 16128
        assert report.m_counted == report.m_formula == 8388608
