"""Squeezed-state phase-parity tests, thresholds, displaced-parity search."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from binned_bell import cv
from binned_bell.lr_polytope import build_coefficients
from binned_bell.qudit import BinningPreset, PhaseSettings, bell_expectation
from binned_bell.cv import (
    SQRT8,
    AngleDegeneracyWarning,
    CvScenario,
    FockCutoffError,
    PhaseParityOperator,
    TruncatedTmss,
    _annihilation,
    _DisplacementTables,
    bw_bell_value,
    bw_displaced_parity_max,
    cv_bell_expectation,
    displaced_parity_matrix,
    phase_state,
    required_fock_cutoff,
    squeezing_threshold,
    tmss_bell_closed_form,
    tmss_tail_mass,
    violation_boundary_r,
)

# Frozen closed-form oracle: s=9, r=2 evaluates the explicit expression.
S9_R2 = 4.0 * math.sqrt(2.0) * math.tanh(2.0) ** 5 / (1.0 + math.tanh(2.0) ** 10)


class TestPhaseStates:
    def test_s1_states(self):
        assert np.allclose(phase_state(1, 0.0, 0), [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.allclose(phase_state(1, 0.0, 1), [1 / math.sqrt(2), -1 / math.sqrt(2)])

    @pytest.mark.parametrize("s", [1, 3, 9])
    def test_gram_identity(self, s):
        rng = np.random.default_rng(s)
        theta = float(rng.uniform(0, 2 * math.pi))
        states = np.column_stack([phase_state(s, theta, k) for k in range(s + 1)])
        gram = states.conj().T @ states
        assert np.max(np.abs(gram - np.eye(s + 1))) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            phase_state(3, 0.0, 4)

    def test_even_cutoff_rejected(self):
        with pytest.raises(ValueError):
            phase_state(2, 0.0, 0)


class TestParityOperator:
    @pytest.mark.parametrize("s", [1, 3, 9, 49, 99])
    def test_involution_and_spectrum(self, s):
        rng = np.random.default_rng(s)
        op = PhaseParityOperator.build(s, float(rng.uniform(0, 2 * math.pi)))
        assert op.hermiticity_residual() < 1e-12
        assert op.involution_residual() < 1e-10
        eigenvalues = np.sort(np.linalg.eigvalsh(op.matrix))
        assert np.allclose(np.abs(eigenvalues), 1.0, atol=1e-10)
        # Parity over s+1 phase states splits evenly for odd s.
        assert abs(float(np.trace(op.matrix).real)) < 1e-10


class TestTruncatedState:
    def test_normalization_sweep(self):
        for s in range(1, 100, 2):
            for r in (0.01, 0.5, 2.0, 10.0):
                assert TruncatedTmss.build(s, r).normalization_error() < 1e-12

    def test_amplitudes_strictly_decreasing(self):
        amp = TruncatedTmss.build(9, 1.3).amplitudes
        assert np.all(np.diff(amp) < 0)

    def test_zero_squeezing_is_vacuum(self):
        amp = TruncatedTmss.build(3, 0.0).amplitudes
        assert amp.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_large_r_tends_to_maximally_entangled(self):
        amp = TruncatedTmss.build(5, 12.0).amplitudes
        assert np.max(np.abs(amp - 1 / math.sqrt(6))) < 1e-9


class TestScenario:
    def test_reference_angles(self):
        scn = CvScenario.with_reference_angles(9, 1.0)
        assert scn.theta == 0.0
        assert abs(scn.theta_p - math.pi / 10) < 1e-15
        assert abs(scn.phi + math.pi / 20) < 1e-15
        assert abs(scn.phi_p - math.pi / 20) < 1e-15

    def test_even_cutoff_rejected(self):
        with pytest.raises(ValueError):
            CvScenario.with_reference_angles(2, 1.0)

    def test_nonpositive_squeezing_rejected(self):
        with pytest.raises(ValueError):
            CvScenario.with_reference_angles(1, 0.0)

    def test_degeneracy_warning_for_large_cutoff(self):
        with pytest.warns(AngleDegeneracyWarning):
            cv_bell_expectation(CvScenario.with_reference_angles(99, 1.0))

    def test_no_warning_for_small_cutoff(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AngleDegeneracyWarning)
            cv_bell_expectation(CvScenario.with_reference_angles(9, 1.0))


class TestClosedForm:
    def test_s1_special_value(self):
        # tanh r = 1/sqrt(2) turns the expression into 8/3.
        r = math.atanh(1.0 / math.sqrt(2.0))
        assert abs(tmss_bell_closed_form(1, r) - 8.0 / 3.0) < 1e-12

    def test_s9_r2_frozen(self):
        assert abs(tmss_bell_closed_form(9, 2.0) - S9_R2) < 1e-15

    def test_supremum_is_quantum_bound(self):
        assert abs(tmss_bell_closed_form(1, 20.0) - SQRT8) < 1e-12
        for s in (1, 9, 99):
            assert tmss_bell_closed_form(s, 6.0) < SQRT8

    @pytest.mark.parametrize("s", [1, 9, 99])
    def test_strictly_increasing_in_r(self, s):
        grid = np.linspace(0.05, 6.0, 240)
        values = [tmss_bell_closed_form(s, float(r)) for r in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_r_leading_order(self):
        # Denominator is 1 + O(r^(s+1)), so the small-r value follows the
        # leading power alone.
        r = 0.05
        assert abs(tmss_bell_closed_form(99, r) - 4 * math.sqrt(2) * math.tanh(r) ** 50) < 1e-60


class TestContractionAgreement:
    @pytest.mark.parametrize("s", [1, 9, 99])
    def test_matches_closed_form_at_reference_angles(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AngleDegeneracyWarning)
            for r in (0.1, 0.7, 1.9, 3.3, 5.0):
                scn = CvScenario.with_reference_angles(s, r)
                assert abs(cv_bell_expectation(scn) - tmss_bell_closed_form(s, r)) < 1e-10

    def test_discrete_consistency_at_strong_squeezing(self):
        # r -> infinity turns the state into the (s+1)-dimensional maximally
        # entangled state and the reference angles into the sharp-binning
        # optimum, so the discrete and continuous routes must meet.
        for s in (1, 3, 9):
            d = s + 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AngleDegeneracyWarning)
                continuous = cv_bell_expectation(CvScenario.with_reference_angles(s, 10.0))
            coeffs = build_coefficients(BinningPreset("t1", d).to_binning_spec())
            discrete = bell_expectation(d, coeffs, PhaseSettings(0.0, 0.5, -0.25, 0.25))
            assert abs(continuous - discrete) < 1e-6


class TestThreshold:
    def test_round_trip_across_cutoffs_and_deltas(self):
        for s in range(1, 100, 2):
            for delta in (1e-2, 1e-3, 1e-4):
                th = squeezing_threshold(s, delta)
                assert 0.0 < th.f_value < 1.0
                assert th.r_min > 0.0
                assert abs(tmss_bell_closed_form(s, th.r_min) - (SQRT8 - delta)) <= 1e-9

    def test_r_min_grows_with_cutoff(self):
        values = [squeezing_threshold(s, 1e-3).r_min for s in (1, 9, 33, 99)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0.0, -0.5, SQRT8 - 2.0, 1.0])
    def test_delta_range(self, bad):
        with pytest.raises(ValueError):
            squeezing_threshold(1, bad)

    def test_nan_round_trip_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(cv, "tmss_bell_closed_form", lambda s, r: math.nan)
        with pytest.raises(ArithmeticError, match="round trip"):
            squeezing_threshold(9, 1e-3)

    @pytest.mark.parametrize("s", [1, 9, 99])
    def test_violation_boundary(self, s):
        assert abs(tmss_bell_closed_form(s, violation_boundary_r(s)) - 2.0) < 1e-12


class TestDisplacedParity:
    def test_matches_conjugation_definition(self):
        cutoff = 20
        a = _annihilation(cutoff + 1)
        parity = np.diag(np.where(np.arange(cutoff + 1) % 2 == 0, 1.0, -1.0))
        rng = np.random.default_rng(4)
        for _ in range(5):
            alpha = complex(rng.normal(), rng.normal()) * 0.4
            d_op = scipy.linalg.expm(alpha * a.conj().T - np.conjugate(alpha) * a)
            direct = d_op @ parity @ d_op.conj().T
            assert np.max(np.abs(direct - displaced_parity_matrix(cutoff, alpha))) < 1e-12

    @pytest.mark.parametrize("cutoff", [5, 40])
    def test_real_alpha_matches_complex_generator(self, cutoff):
        # Real alpha exponentiates the real generator and returns a real matrix.
        a = _annihilation(cutoff + 1)
        signs = np.where(np.arange(cutoff + 1) % 2 == 0, 1.0, -1.0)
        for alpha in (0.37, -0.8, complex(0.21), 0.0):
            op = displaced_parity_matrix(cutoff, alpha)
            assert op.dtype == np.float64
            generator = 2.0 * complex(alpha) * (a.T - a).astype(complex)
            assert np.max(np.abs(op - scipy.linalg.expm(generator) * signs)) < 1e-13

    def test_is_involution(self):
        op = displaced_parity_matrix(15, 0.3 - 0.2j)
        assert np.max(np.abs(op @ op - np.eye(16))) < 1e-12

    def test_correlations_bounded_by_one(self):
        rng = np.random.default_rng(8)
        cutoff = required_fock_cutoff(0.8)
        tables = _DisplacementTables(cutoff, 0.8)
        alphas = rng.uniform(-1, 1, size=6)
        table = tables.correlation_table(alphas, alphas)
        assert np.max(np.abs(table)) <= 1.0 + 1e-12

    def test_fast_tables_match_definition_route(self):
        r = 0.9
        cutoff = required_fock_cutoff(r)
        tables = _DisplacementTables(cutoff, r)
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, size=4)
            fast = tables.bell_value(x)
            reference = bw_bell_value(
                cutoff, r, (complex(x[0]), complex(x[1])), (complex(x[2]), complex(x[3]))
            )
            assert abs(fast - reference) < 1e-10

    def test_tail_mass_formula(self):
        r = 1.1
        t = math.tanh(r)
        assert abs(tmss_tail_mass(7, r) - t**16) < 1e-15
        cutoff = required_fock_cutoff(r)
        assert tmss_tail_mass(cutoff, r) < 1e-10
        assert tmss_tail_mass(cutoff - 1, r) >= 1e-10

    def test_insufficient_cutoff_refused_with_estimate(self):
        needed = required_fock_cutoff(1.5)
        with pytest.raises(FockCutoffError, match=str(needed)):
            bw_bell_value(30, 1.5, (0.0, 0.1), (0.0, 0.1))
        # tanh(20.0) rounds to 1, so no cutoff bounds the tail: the estimate
        # names the largest usable squeezing instead of dividing by zero.
        for estimate in (
            lambda: required_fock_cutoff(20.0),
            lambda: bw_bell_value(30, 20.0, (0.0, 0.1), (0.0, 0.1)),
            lambda: bw_displaced_parity_max(30, 20.0),
        ):
            with pytest.raises(ValueError, match=r"largest usable r is 19\.\d+"):
                estimate()

    def test_zero_squeezing_gives_classical_bound(self):
        # Product (vacuum) state: the best the combination can do is 2.
        assert abs(bw_displaced_parity_max(4, 0.0, restarts=2) - 2.0) < 1e-9

    def test_moderate_squeezing_plateau(self):
        r = 1.6
        value = bw_displaced_parity_max(required_fock_cutoff(r), r, restarts=2, seed=0)
        assert 2.31 <= value <= 2.33

    def test_anchored_arrangement_is_weaker(self):
        r = 1.6
        cutoff = required_fock_cutoff(r)
        anchored = bw_displaced_parity_max(cutoff, r, anchor_zero=True, restarts=2, seed=0)
        free = bw_displaced_parity_max(cutoff, r, restarts=2, seed=0)
        assert anchored < free
        assert abs(anchored - 2.19) < 0.01

    def test_complex_displacements_find_no_surplus(self):
        # The optimum sits on a real-displacement slice, so the 8-parameter
        # search lands on the same plateau.
        r = 1.0
        cutoff = required_fock_cutoff(r)
        real_value = bw_displaced_parity_max(cutoff, r, restarts=2, seed=0)
        complex_value = bw_displaced_parity_max(
            cutoff, r, complex_displacements=True, restarts=4, seed=2
        )
        assert complex_value <= real_value + 1e-6
        assert abs(complex_value - real_value) < 1e-3


class TestSpectralDisplacement:
    @pytest.mark.parametrize("cutoff", [5, 20, required_fock_cutoff(1.2)])
    def test_matches_definition_for_complex_alpha(self, cutoff):
        rng = np.random.default_rng(cutoff)
        alphas = (rng.normal(size=6) + 1j * rng.normal(size=6)) * 0.4
        signs = np.where(np.arange(cutoff + 1) % 2 == 0, 1.0, -1.0)
        spectral = _DisplacementTables(cutoff, 1.2).displacements(alphas) * signs
        for alpha, op in zip(alphas, spectral):
            assert np.max(np.abs(op - displaced_parity_matrix(cutoff, alpha))) < 1e-12

    def test_complex_objective_matches_definition_route(self):
        r = 0.9
        cutoff = required_fock_cutoff(r)
        tables = _DisplacementTables(cutoff, r)
        rng = np.random.default_rng(21)
        for _ in range(5):
            z = rng.uniform(-0.8, 0.8, size=4) + 1j * rng.uniform(-0.8, 0.8, size=4)
            reference = bw_bell_value(cutoff, r, (z[0], z[1]), (z[2], z[3]))
            assert abs(tables.bell_value(z) - reference) < 1e-10

    @pytest.mark.parametrize("cutoff", [5, 34, 314])
    def test_real_points_match_complex_route(self, cutoff):
        # The real route C W C'^T - S W S'^T against D(2 alpha) from
        # `displacements` at the same points; 314 is the cutoff of r = 2.0.
        tables = _DisplacementTables(cutoff, 2.0)
        points = np.random.default_rng(cutoff).uniform(-0.8, 0.8, size=(4, 4))
        real = tables.bell_value(points)
        for x, value in zip(points, real):
            assert abs(value - tables.bell_value(x.astype(complex))) < 1e-12

    @pytest.mark.parametrize("cutoff", [5, required_fock_cutoff(0.9)])
    def test_batched_bell_value_equals_per_point(self, cutoff):
        # The search evaluates a whole round of points in one call, so each
        # value must be the bits of its point alone, whatever the batch.
        tables = _DisplacementTables(cutoff, 0.9)
        rng = np.random.default_rng(cutoff)
        real = rng.uniform(-0.8, 0.8, size=(12, 4))
        for points in (real, real + 1j * rng.uniform(-0.8, 0.8, size=(12, 4))):
            single = np.array([tables.bell_value(x) for x in points])
            assert np.array_equal(tables.bell_value(points), single)
            assert np.array_equal(tables.bell_value(points[:5]), single[:5])
            assert np.array_equal(tables.bell_value(points.reshape(3, 4, 4)), single.reshape(3, 4))
        # Real points: the same bits as the grid route's correlation table.
        for x, value in zip(real, tables.bell_value(real)):
            table = tables.correlation_table(x[:2], x[2:])
            assert value == table[0, 0] + table[0, 1] + table[1, 0] - table[1, 1]

    def test_real_search_values_frozen(self):
        # r = 2.0 runs at Fock dimension 315, the largest of the suite.
        for r, free_value, anchored_value in (
            (1.6, 2.3229086636061798, 2.189941932433116),
            (2.0, 2.3241737345852087, 2.190427774691133),
        ):
            cutoff = required_fock_cutoff(r)
            free = bw_displaced_parity_max(cutoff, r, restarts=3, seed=0)
            anchored = bw_displaced_parity_max(cutoff, r, anchor_zero=True, restarts=3, seed=0)
            assert abs(free - free_value) < 1e-12
            assert abs(anchored - anchored_value) < 1e-12


class TestDisplacedParityGuards:
    R = 0.5

    def search(self, **kwargs):
        return bw_displaced_parity_max(required_fock_cutoff(self.R), self.R, **kwargs)

    def test_negative_restarts_rejected_for_complex_search(self):
        with pytest.raises(ValueError, match="restarts"):
            self.search(complex_displacements=True, restarts=-1)

    def test_negative_restarts_rejected_for_real_search(self):
        with pytest.raises(ValueError, match="restarts"):
            self.search(restarts=-1)

    def test_anchor_with_complex_displacements_rejected(self):
        with pytest.raises(ValueError, match="anchor_zero"):
            self.search(anchor_zero=True, complex_displacements=True)

    def test_nan_from_spectral_route_fails_the_check(self, monkeypatch):
        def nan_values(tables, x):
            return np.full(np.shape(x)[:-1], np.nan)

        monkeypatch.setattr(_DisplacementTables, "bell_value", nan_values)
        with pytest.raises(ArithmeticError, match="disagrees"):
            self.search(restarts=0)
