"""Fourier-basis measurements, Bell operators, and phase optimization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from binned_bell.lr_polytope import CoefficientTensor, build_coefficients
from binned_bell.qudit import (
    SQRT8,
    BinningPreset,
    _KernelObjective,
    MeasurementBasis,
    PhaseSettings,
    bell_expectation,
    binned_observable,
    build_bell_operator,
    correlation_functions,
    fourier_basis,
    joint_probability,
    max_entangled_state,
    operator_identity_residual,
    optimize_phases,
    probability_kernel,
    sine_series_diagnostic,
    t1_cosine_form,
    verify_operator_identity,
)

OPTIMAL_PHASES = PhaseSettings(0.0, 0.5, -0.25, 0.25)

# Frozen best-found values from the seeded default search (window 2,
# 13-point grid, 3 restarts, seed 0); the odd-d deficit from 2*sqrt(2)
# shrinks as d grows.
FROZEN_OPTIMA = {2: 2.828427124746, 3: 2.517939955997, 5: 2.634761860822}


def t1_coeffs(d: int) -> CoefficientTensor:
    return build_coefficients(BinningPreset("t1", d).to_binning_spec())


def random_phases(rng: np.random.Generator) -> PhaseSettings:
    return PhaseSettings(*[float(v) for v in rng.uniform(-2.0, 2.0, size=4)])


def random_preset_free_spec(rng: np.random.Generator, d: int):
    from binned_bell.lr_polytope import BinningSpec

    def subset() -> tuple[int, ...]:
        size = int(rng.integers(1, d))
        return tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))

    return BinningSpec(d=d, r1=subset(), r2=subset(), s1=subset(), s2=subset())


class TestBases:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_columns_orthonormal(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            basis = MeasurementBasis.build(d, float(rng.uniform(-3, 3)))
            assert basis.gram_residual() < 1e-12

    def test_zero_offset_is_plain_fourier(self):
        u = fourier_basis(3, 0.0)
        omega = np.exp(2j * np.pi / 3)
        expected = np.array([[1, 1, 1], [1, omega, omega**2], [1, omega**2, omega**4]])
        assert np.allclose(u, expected / np.sqrt(3))

    def test_max_entangled_state_normalized(self):
        for d in (2, 5, 9):
            psi = max_entangled_state(d)
            assert abs(np.vdot(psi, psi) - 1.0) < 1e-14


class TestProbabilities:
    def test_distribution_normalized_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            phases = random_phases(rng)
            p = np.array([
                [joint_probability(d, phases, 1, 2, k, l) for l in range(d)]
                for k in range(d)
            ])
            assert p.min() >= -1e-15
            assert abs(p.sum() - 1.0) < 1e-12

    def test_resonant_pairs_hit_one_over_d(self):
        # With all phase offsets zero the amplitude collapses onto pairs
        # with k + l = 0 mod d, each carrying probability exactly 1/d.
        d = 5
        phases = PhaseSettings(0.0, 0.0, 0.0, 0.0)
        for k in range(d):
            for l in range(d):
                expected = 1.0 / d if (k + l) % d == 0 else 0.0
                assert abs(joint_probability(d, phases, 1, 1, k, l) - expected) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_kernel_periodicity_and_normalization(self, d):
        x = np.linspace(-1.3, 1.7, 11)
        assert np.allclose(probability_kernel(d, x), probability_kernel(d, x + d), atol=1e-12)
        assert np.all(probability_kernel(d, x) >= 0)
        assert abs(probability_kernel(d, np.array([0.0]))[0] - 1.0 / d) < 1e-14
        # Row sums of any probability matrix are uniform: sum_s K(s+t) = 1/d.
        for t in (0.0, 0.37, -1.2):
            total = probability_kernel(d, np.arange(d) + t).sum()
            assert abs(total - 1.0 / d) < 1e-12

    def test_kernel_route_matches_direct_route(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = int(rng.integers(2, 10))
            spec = random_preset_free_spec(rng, d)
            coeffs = build_coefficients(spec)
            phases = random_phases(rng)
            direct = bell_expectation(d, coeffs, phases, method="direct")
            kernel = bell_expectation(d, coeffs, phases, method="kernel")
            assert abs(direct - kernel) < 1e-10

    def test_first_power_sine_form_is_not_the_kernel(self):
        # The unsquared-sine variant is kept only as a diagnostic: it is not
        # a probability and disagrees with the Bell sum by O(1).
        d = 4
        phases = PhaseSettings(0.3, 0.7, 0.1, 0.9)
        direct = bell_expectation(d, t1_coeffs(d), phases)
        diagnostic = sine_series_diagnostic(d, t1_coeffs(d), phases)
        assert abs(diagnostic - direct) > 0.1


class TestChshReduction:
    def test_optimal_value_is_two_sqrt_two(self):
        value = bell_expectation(2, t1_coeffs(2), OPTIMAL_PHASES)
        assert abs(value - SQRT8) < 1e-9

    def test_correlators_at_optimum(self):
        corr = correlation_functions(2, OPTIMAL_PHASES)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert abs(corr.e11 - inv_sqrt2) < 1e-12
        assert abs(corr.e12 - inv_sqrt2) < 1e-12
        assert abs(corr.e21 - inv_sqrt2) < 1e-12
        assert abs(corr.e22 + inv_sqrt2) < 1e-12
        assert abs(corr.bell_combination() - SQRT8) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_cosine_form_matches_bell_sum_for_even_d(self, d):
        rng = np.random.default_rng(d + 20)
        for _ in range(8):
            phases = random_phases(rng)
            value = bell_expectation(d, t1_coeffs(d), phases)
            assert abs(value - t1_cosine_form(phases)) < 1e-10

    def test_cosine_form_peak(self):
        assert abs(t1_cosine_form(OPTIMAL_PHASES) - SQRT8) < 1e-14

    def test_parity_correlators_equal_t1_bell_sum_for_higher_even_d(self):
        rng = np.random.default_rng(77)
        for d in (4, 8):
            phases = random_phases(rng)
            combo = correlation_functions(d, phases).bell_combination()
            assert abs(combo - bell_expectation(d, t1_coeffs(d), phases)) < 1e-10


class TestBellOperator:
    def test_expectation_matches_probability_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(2, 8))
            spec = random_preset_free_spec(rng, d)
            coeffs = build_coefficients(spec)
            phases = random_phases(rng)
            operator = build_bell_operator(d, coeffs, phases)
            direct = bell_expectation(d, coeffs, phases)
            assert operator.hermiticity_residual() < 1e-12
            assert abs(operator.expectation(max_entangled_state(d)) - direct) < 1e-10

    def test_spectral_norm_within_quantum_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            d = int(rng.integers(2, 9))
            spec = random_preset_free_spec(rng, d)
            operator = build_bell_operator(d, build_coefficients(spec), random_phases(rng))
            assert operator.spectral_norm() <= SQRT8 + 1e-9

    def test_norm_is_attained_at_d2_optimum(self):
        operator = build_bell_operator(2, t1_coeffs(2), OPTIMAL_PHASES)
        eigenvalues = np.linalg.eigvalsh(operator.matrix)
        assert abs(eigenvalues[-1] - SQRT8) < 1e-12

    def test_binned_observable_is_involution(self):
        rng = np.random.default_rng(2)
        for d in (2, 4, 7):
            subset = tuple(range(0, d, 2))
            obs = binned_observable(d, float(rng.uniform(-1, 1)), subset)
            assert np.max(np.abs(obs - obs.conj().T)) < 1e-12
            assert np.max(np.abs(obs @ obs - np.eye(d))) < 1e-12
            eigenvalues = np.sort(np.linalg.eigvalsh(obs))
            assert np.allclose(np.abs(eigenvalues), 1.0, atol=1e-12)


class TestOperatorIdentity:
    def test_residual_small_for_random_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            spec = random_preset_free_spec(rng, d)
            residual = operator_identity_residual(spec, random_phases(rng))
            assert residual < 1e-9

    def test_verify_helper(self):
        spec = BinningPreset("t1", 4).to_binning_spec()
        assert verify_operator_identity(4, spec, OPTIMAL_PHASES)

    def test_flipped_last_block_breaks_identity(self):
        """The identity pins the sign convention of the fourth block.

        Flipping it leaves every single correlation valid but destroys the
        square/commutator structure, so the residual jumps to O(1).
        """
        spec = BinningPreset("t1", 4).to_binning_spec()
        coeffs = build_coefficients(spec)
        eps = coeffs.eps.copy()
        eps[1, 1] = -eps[1, 1]
        mutated = CoefficientTensor(d=4, eps=eps)
        residual = operator_identity_residual(spec, OPTIMAL_PHASES, coeffs=mutated)
        assert residual > 0.1


class TestPresets:
    def test_subsets(self):
        assert BinningPreset("t1", 6).subset() == (0, 2, 4)
        assert BinningPreset("t2", 8).subset() == (0, 1, 4, 5)
        assert BinningPreset("t3", 7).subset() == (0, 1, 2)

    def test_t2_rejected_at_d2(self):
        with pytest.raises(ValueError):
            BinningPreset("t2", 2).to_binning_spec()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BinningPreset("t4", 4)

    def test_t3_equals_t2_at_d4(self):
        assert BinningPreset("t3", 4).subset() == BinningPreset("t2", 4).subset()


class TestOptimization:
    def test_frozen_best_found_values(self):
        for d, frozen in FROZEN_OPTIMA.items():
            _, value = optimize_phases(
                d, BinningPreset("t1", d), window=2.0, grid_points=13, restarts=3, seed=0
            )
            assert abs(value - frozen) < 1e-9

    def test_even_d_reaches_quantum_bound(self):
        for d in (2, 4, 6):
            _, value = optimize_phases(
                d, BinningPreset("t1", d), window=2.0, grid_points=13, restarts=2, seed=0
            )
            assert abs(value - SQRT8) < 1e-6

    def test_returned_phases_reproduce_value(self):
        phases, value = optimize_phases(
            5, BinningPreset("t3", 5), window=2.0, grid_points=9, restarts=2, seed=1
        )
        direct = bell_expectation(5, build_coefficients(BinningPreset("t3", 5).to_binning_spec()), phases)
        assert abs(direct - value) < 1e-10

    def test_deterministic_for_fixed_seed(self):
        a = optimize_phases(3, BinningPreset("t1", 3), grid_points=9, restarts=2, seed=4)
        b = optimize_phases(3, BinningPreset("t1", 3), grid_points=9, restarts=2, seed=4)
        assert a == b

    def test_phase_reduction_preserves_value(self):
        d = 6
        coeffs = t1_coeffs(d)
        for phases in (PhaseSettings(7.3, -2.9, 11.0, 4.2), PhaseSettings(-1e-17, 0, 0, -3e-16)):
            reduced = phases.reduced(d)
            assert abs(bell_expectation(d, coeffs, phases) - bell_expectation(d, coeffs, reduced)) < 1e-10
            assert all(0.0 <= v < d for v in reduced.as_array())


def per_pair_objective(objective: _KernelObjective, x: np.ndarray) -> float:
    """The Bell sum as four separate pair_value calls (the reference route)."""
    a1, a2, b1, b2 = x
    return float(
        objective.pair_value(0, 0, a1 + b1)
        + objective.pair_value(0, 1, a1 + b2)
        + objective.pair_value(1, 0, a2 + b1)
        + objective.pair_value(1, 1, a2 + b2)
    )


class TestKernelObjective:
    @pytest.mark.parametrize(
        "kind,d",
        [("t1", 2), ("t3", 2)] + [(k, d) for d in (3, 8, 32) for k in ("t1", "t2", "t3")],
    )
    def test_bit_identical_to_per_pair_sum(self, kind, d):
        objective = _KernelObjective(build_coefficients(BinningPreset(kind, d).to_binning_spec()))
        rng = np.random.default_rng(d)
        points = list(rng.uniform(-d, 2 * d, size=(200, 4)))
        # Offsets within 1e-12..1e-8 of integers put every t_ab on or beside
        # the kernel's pole branch.
        for _ in range(200):
            near = rng.choice([-1.0, 1.0], size=4) * 10.0 ** rng.uniform(-12, -8.3, size=4)
            points.append(rng.integers(-d, 2 * d, size=4) + near)
        for x in points:
            assert objective(x) == per_pair_objective(objective, x)

    @pytest.mark.parametrize("kind,d", [("t2", 8), ("t3", 5)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_search_path_unchanged_by_fused_evaluation(self, monkeypatch, kind, d, seed):
        fused = optimize_phases(d, BinningPreset(kind, d), seed=seed)
        monkeypatch.setattr(_KernelObjective, "__call__", per_pair_objective)
        assert optimize_phases(d, BinningPreset(kind, d), seed=seed) == fused
