"""Fourier-basis measurements, Bell operators, and phase optimization."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import binned_bell
from binned_bell import cli, qudit
from binned_bell.cv import _bell_value, _search_displacements
from binned_bell.lr_polytope import CoefficientTensor, build_coefficients
from binned_bell.qudit import (
    SQRT8,
    BinningPreset,
    _KernelObjective,
    _nelder_mead_lockstep,
    _probability_matrix,
    MeasurementBasis,
    PhaseSettings,
    bell_expectation,
    binned_observable,
    build_bell_operator,
    fourier_basis,
    operator_identity_residual,
    optimize_phases,
    probability_kernel,
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


def parity_correlators(d: int, phases: PhaseSettings) -> list[float]:
    """E_ab = sum_kl (-1)^(k+l) P_ab(k, l) for ab = 11, 12, 21, 22."""
    sign = np.fromfunction(lambda k, l: (-1.0) ** (k + l), (d, d))
    return [
        float((sign * _probability_matrix(d, alpha, beta)).sum())
        for alpha in (phases.alpha1, phases.alpha2)
        for beta in (phases.beta1, phases.beta2)
    ]


def cosine_form(phases: PhaseSettings) -> float:
    """cos(pi(a1+b1)) + cos(pi(a1+b2)) + cos(pi(a2+b1)) - cos(pi(a2+b2))."""
    a1, a2, b1, b2 = phases.as_array()
    return float(np.cos(np.pi * (a1 + b1)) + np.cos(np.pi * (a1 + b2))
                 + np.cos(np.pi * (a2 + b1)) - np.cos(np.pi * (a2 + b2)))


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


class TestProbabilities:
    def test_distribution_normalized_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            phases = random_phases(rng)
            p = _probability_matrix(d, phases.alpha1, phases.beta2)
            assert p.min() >= -1e-15
            assert abs(p.sum() - 1.0) < 1e-12

    def test_resonant_pairs_hit_one_over_d(self):
        # With all phase offsets zero the amplitude collapses onto pairs
        # with k + l = 0 mod d, each carrying probability exactly 1/d.
        d = 5
        p = _probability_matrix(d, 0.0, 0.0)
        for k in range(d):
            for l in range(d):
                expected = 1.0 / d if (k + l) % d == 0 else 0.0
                assert abs(p[k, l] - expected) < 1e-12

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


class TestChshReduction:
    def test_optimal_value_is_two_sqrt_two(self):
        value = bell_expectation(2, t1_coeffs(2), OPTIMAL_PHASES)
        assert abs(value - SQRT8) < 1e-9

    def test_correlators_at_optimum(self):
        e11, e12, e21, e22 = parity_correlators(2, OPTIMAL_PHASES)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert abs(e11 - inv_sqrt2) < 1e-12
        assert abs(e12 - inv_sqrt2) < 1e-12
        assert abs(e21 - inv_sqrt2) < 1e-12
        assert abs(e22 + inv_sqrt2) < 1e-12
        assert abs(e11 + e12 + e21 - e22 - SQRT8) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_cosine_form_matches_bell_sum_for_even_d(self, d):
        rng = np.random.default_rng(d + 20)
        for _ in range(8):
            phases = random_phases(rng)
            value = bell_expectation(d, t1_coeffs(d), phases)
            assert abs(value - cosine_form(phases)) < 1e-10

    def test_cosine_form_peak(self):
        assert abs(cosine_form(OPTIMAL_PHASES) - SQRT8) < 1e-14
        for d in (4, 6, 8):
            assert abs(bell_expectation(d, t1_coeffs(d), OPTIMAL_PHASES) - SQRT8) < 1e-12

    def test_parity_correlators_equal_t1_bell_sum_for_higher_even_d(self):
        rng = np.random.default_rng(77)
        for d in (4, 8):
            phases = random_phases(rng)
            e11, e12, e21, e22 = parity_correlators(d, phases)
            combo = e11 + e12 + e21 - e22
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
            # |psi> = sum_j |jj> / sqrt(d) in the kron(A, B) layout
            psi = np.eye(d).ravel() / math.sqrt(d)
            assert abs(np.vdot(psi, operator.matrix @ psi) - direct) < 1e-10

    def test_spectral_norm_within_quantum_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            d = int(rng.integers(2, 9))
            spec = random_preset_free_spec(rng, d)
            operator = build_bell_operator(d, build_coefficients(spec), random_phases(rng))
            assert operator.spectral_norm() <= SQRT8 + 1e-9

    def test_dimension_above_limit_refused_before_building(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a Fourier basis was built")

        coeffs = t1_coeffs(65)
        monkeypatch.setattr(qudit, "fourier_basis", unreachable)
        with pytest.raises(ValueError, match="d=65 exceeds the dense-operator limit 64"):
            build_bell_operator(65, coeffs, OPTIMAL_PHASES)

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
            phases = random_phases(rng)
            operator = build_bell_operator(d, build_coefficients(spec), phases)
            residual = operator_identity_residual(operator, spec, phases)
            assert residual < 1e-9

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
        operator = build_bell_operator(4, mutated, OPTIMAL_PHASES)
        residual = operator_identity_residual(operator, spec, OPTIMAL_PHASES)
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


def per_pair_batch(objective: _KernelObjective, x) -> np.ndarray:
    """per_pair_objective point by point over stacked points of shape (..., 4)."""
    x = np.asarray(x, dtype=float)
    values = [per_pair_objective(objective, p) for p in x.reshape(-1, 4)]
    return np.array(values).reshape(x.shape[:-1])


def objective_points(d: int, rng: np.random.Generator) -> np.ndarray:
    """200 random points and 200 within 1e-12..1e-8 of integer offsets.

    The near-integer offsets put every t_ab on or beside the kernel's pole
    branch.
    """
    points = rng.uniform(-d, 2 * d, size=(200, 4))
    near = rng.choice([-1.0, 1.0], size=(200, 4)) * 10.0 ** rng.uniform(-12, -8.3, size=(200, 4))
    return np.vstack([points, rng.integers(-d, 2 * d, size=(200, 4)) + near])


class TestKernelObjective:
    @pytest.mark.parametrize(
        "kind,d",
        [("t1", 2), ("t3", 2)] + [(k, d) for d in (3, 8, 32) for k in ("t1", "t2", "t3")],
    )
    def test_bit_identical_to_per_pair_sum(self, kind, d):
        objective = _KernelObjective(build_coefficients(BinningPreset(kind, d).to_binning_spec()))
        points = objective_points(d, np.random.default_rng(d))
        reference = per_pair_batch(objective, points)
        for x, expected in zip(points, reference):
            assert objective(x) == expected
        # Stacked calls, as the lockstep search makes them, give the same
        # bits as one point at a time, whatever the batch shape.
        assert np.array_equal(objective(points), reference)
        assert np.array_equal(objective(points[:42]), reference[:42])
        assert np.array_equal(objective(points.reshape(20, 20, 4)), reference.reshape(20, 20))

    @pytest.mark.parametrize("kind,d", [("t2", 8), ("t3", 5)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_search_path_unchanged_by_fused_evaluation(self, monkeypatch, kind, d, seed):
        fused = optimize_phases(d, BinningPreset(kind, d), seed=seed)
        monkeypatch.setattr(_KernelObjective, "__call__", per_pair_batch)
        assert optimize_phases(d, BinningPreset(kind, d), seed=seed) == fused


def scipy_nelder_mead(func, x0, *, maxiter=4000, maxfev=8000):
    """One start of the parent search: scipy's Nelder-Mead on func.

    Returns the result and every value scipy evaluated.
    """
    from scipy.optimize import minimize

    seen = []

    def recorded(x):
        seen.append(func(x))
        return seen[-1]

    res = minimize(
        recorded,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": maxiter, "maxfev": maxfev},
    )
    return res, seen


def assert_lockstep_matches_scipy(func, starts, sim, fsim, **caps) -> set[str]:
    """Compare each start's final simplex, x and fun with scipy's, by ==.

    Returns how scipy's runs were cut mid-iteration: a dropped expansion
    leaves an evaluated value below the returned one, and a partial shrink
    leaves a moved vertex whose stored value is stale.
    """
    cut = set()
    for x0, s, f in zip(starts, sim, fsim):
        res, seen = scipy_nelder_mead(func, x0, **caps)
        ref_sim, ref_fsim = res.final_simplex
        assert np.array_equal(s, ref_sim) and np.array_equal(f, ref_fsim), caps
        assert np.array_equal(s[0], res.x) and f.min() == res.fun, caps
        if seen and min(seen) < res.fun:
            cut.add("expansion")
        if np.any(np.isfinite(f) & (func(s) != f)):
            cut.add("shrink")
    return cut


def lockstep_starts(seed: int, n: int = 4) -> np.ndarray:
    """A grid-like start with zero coordinates, then seeded random starts."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.resize([0.0, 0.5, 1.25, 0.0], n), rng.uniform(0.0, 2.0, size=(4, n))])


CV_SEARCHES = {"cv-free": (False, False, 4), "cv-anchored": (True, False, 2),
               "cv-complex": (False, True, 8)}


def search_objective(kind: str, d: int):
    """The minimized objective of a search and its number of parameters.

    kind t1/t2/t3 is the phase search at dimension d; a cv-* kind is the
    closed-form displaced-parity search of that arrangement at squeezing
    r = d / 10.
    """
    if kind not in CV_SEARCHES:
        objective = _KernelObjective(build_coefficients(BinningPreset(kind, d).to_binning_spec()))
        return (lambda x: -objective(x)), 4
    anchor_zero, complex_displacements, n = CV_SEARCHES[kind]
    r = d / 10
    return (
        lambda x: -_bell_value(r, _search_displacements(x, anchor_zero, complex_displacements))
    ), n


class TestLockstepNelderMead:
    @pytest.mark.parametrize(
        "kind,d",
        [("t1", 2), ("t3", 2)]
        + [(k, d) for d in (5, 8, 32) for k in ("t1", "t2", "t3")]
        + [(k, d) for d in (9, 14) for k in CV_SEARCHES],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_start_matches_scipy_bit_for_bit(self, kind, d, seed):
        func, n = search_objective(kind, d)
        # Displacements near the optimum are well below 1 at these squeezings.
        starts = lockstep_starts(seed, n) * (0.25 if kind in CV_SEARCHES else 1.0)
        sim, fsim = _nelder_mead_lockstep(func, starts, maxiter=4000, maxfev=8000)
        assert_lockstep_matches_scipy(func, starts, sim, fsim)

    @pytest.mark.parametrize(
        "func",
        [lambda x: np.zeros(np.shape(x)[:-1]), lambda x: np.floor(2 * x).sum(axis=-1)],
        ids=["constant", "staircase"],
    )
    def test_ties_resolve_like_scipy(self, func):
        # Equal values at every vertex: scipy's argsort (not a stable sort)
        # orders the ties, and failed contractions shrink the simplex.
        starts = lockstep_starts(5)
        sim, fsim = _nelder_mead_lockstep(func, starts, maxiter=4000, maxfev=8000)
        assert_lockstep_matches_scipy(func, starts, sim, fsim)

    def test_non_finite_values_resolve_like_scipy(self):
        # A bowl with NaN and +inf on slabs the searches cross and -inf on a
        # corner they fall into.  NaN fails every comparison, so it sorts
        # last; on the plateau x3 > 1.6, NaN cells finer than the tolerance
        # leave a NaN worst vertex when the rest of the simplex has
        # converged, and the convergence test must not pass over it.  A -inf
        # simplex never converges.
        def func(x):
            value = sum((x[..., k] - 0.7) ** 2 for k in range(4))
            plateau = x[..., 3] > 1.6
            value = np.where(plateau, -1.0, value)
            value = np.where(plateau & (np.floor(x[..., 0] * 2.0**34) % 2 == 1), np.nan, value)
            value = np.where((1.0 < x[..., 0]) & (x[..., 0] < 1.15), np.nan, value)
            value = np.where((1.3 < x[..., 1]) & (x[..., 1] < 1.45), np.inf, value)
            return np.where((x[..., 2] < 0.25) & (x[..., 3] < 0.25), -np.inf, value)

        boundary = [[0.97, 0.7, 0.7, 0.7], [0.7, 1.25, 0.7, 0.7], [0.7, 0.7, 0.7, 1.8]]
        starts = np.vstack([lockstep_starts(0), boundary])
        caps = {"maxiter": 1000, "maxfev": 2000}
        sim, fsim = _nelder_mead_lockstep(func, starts, **caps)
        seen_all, escaped = [], False
        for x0, s, f in zip(starts, sim, fsim):
            # scipy's convergence test subtracts inf from inf here.
            with np.errstate(invalid="ignore"):
                res, seen = scipy_nelder_mead(func, x0, **caps)
            ref_sim, ref_fsim = res.final_simplex
            assert np.array_equal(s, ref_sim) and np.array_equal(f, ref_fsim, equal_nan=True)
            seen_all += seen
            escaped |= not np.all(np.isfinite(seen)) and np.all(np.isfinite(f))
        seen_all = np.array(seen_all)
        assert np.isnan(seen_all).any() and np.isposinf(seen_all).any()
        assert np.isneginf(seen_all).any() and escaped

    @pytest.mark.parametrize("kind,d", [("t3", 5), ("cv-complex", 9)])
    def test_func_gets_one_float64_batch_per_round(self, kind, d):
        func, n = search_objective(kind, d)
        batches = []

        def recording(x):
            batches.append(x)
            return func(x)

        starts = lockstep_starts(1, n) * (0.25 if kind in CV_SEARCHES else 1.0)
        sim, fsim = _nelder_mead_lockstep(recording, starts, maxiter=40, maxfev=80)
        assert batches
        for x in batches:
            assert type(x) is np.ndarray and x.dtype == np.float64 and x.flags.c_contiguous
            assert x.ndim == 2 and 1 <= len(x) <= len(starts) * (n + 1) and x.shape[1] == n
        assert sim.dtype == fsim.dtype == np.float64
        assert sim.shape == (len(starts), n + 1, n) and fsim.shape == (len(starts), n + 1)

    def test_caps_cut_starts_mid_iteration_like_scipy(self, monkeypatch):
        objective = _KernelObjective(build_coefficients(BinningPreset("t3", 5).to_binning_spec()))
        calls = []

        def recording(func, starts, **caps):
            sim, fsim = lockstep(func, starts, **caps)
            calls.append((starts, caps, sim, fsim))
            return sim, fsim

        lockstep = qudit._nelder_mead_lockstep
        monkeypatch.setattr(qudit, "_nelder_mead_lockstep", recording)
        cut = set()
        # maxfev below the 5 initial evaluations, at every count over the
        # first iterations (expansions) and at 137..140, where a start of
        # this search is inside a shrink; maxiter 1 runs no iteration.
        fevs = [*range(3, 30), *range(137, 141)]
        for maxiter, maxfev in [(4000, f) for f in fevs] + [(1, 8000), (6, 8000)]:
            monkeypatch.setattr(qudit, "_NM_MAXITER", maxiter)
            monkeypatch.setattr(qudit, "_NM_MAXFEV", maxfev)
            optimize_phases(5, "t3", seed=3)
            starts, caps, sim, fsim = calls[-1]
            assert (caps["maxiter"], caps["maxfev"]) == (maxiter, maxfev)
            cut |= assert_lockstep_matches_scipy(
                lambda x: -objective(x), starts, sim, fsim, maxiter=maxiter, maxfev=maxfev
            )
        assert cut == {"expansion", "shrink"}

    def test_qudit_search_leaves_scipy_optimize_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(binned_bell.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys; from binned_bell.qudit import optimize_phases; "
            "from binned_bell.cv import bw_displaced_parity_max; "
            "optimize_phases(8, 't3'); bw_displaced_parity_max(9, 0.3, restarts=1); "
            "print('scipy.optimize' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


# `scan-qudit --seed 3 --format csv` rows, one dimension per run, recorded
# from the scipy-driven search that the lockstep search replaced.
GOLDEN_SCAN_ROWS = {
    ("t1", 5): "5,t1,2.634761860821528,0.63031149405095832,1.1040393386619933,0.13282458330446184,0.6065524288828581",
    ("t1", 16): "16,t1,2.8284271247461898,0.85683287282713461,0.35683286676317993,1.3931671383652469,0.89316713577579676",
    ("t2", 5): "5,t2,2.3023289861005587,0.18488970399540317,0.56847932379360522,4.6233154773175391,0.0069051097704184482",
    ("t2", 16): "16,t2,2.3776412907378841,2.6057282124378416,0.20572820886473439,0.19427178900048847,0.59427178548692372",
    ("t3", 5): "5,t3,2.0367941960810416,0.17055120124176049,2.4070966397320017,1.5213030279636057,3.7578484585764329",
    ("t3", 16): "16,t3,2.0708002439692734,2.422743571882934,15.989506491120858,6.7169816245186951,1.1502187404992918",
}


@pytest.mark.parametrize("kind,d", sorted(GOLDEN_SCAN_ROWS))
def test_scan_qudit_csv_rows_frozen(capsys, kind, d):
    code = cli.main(["scan-qudit", "--binning", kind, "--dmin", str(d), "--dmax", str(d),
                     "--seed", "3", "--format", "csv"])
    assert code == 0
    header = "d,binning,value,alpha1,alpha2,beta1,beta2"
    assert capsys.readouterr().out == f"{header}\n{GOLDEN_SCAN_ROWS[kind, d]}\n"
