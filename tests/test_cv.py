"""Squeezed-state phase-parity tests, thresholds, displaced-parity search."""

from __future__ import annotations

import math
import re
import warnings
from collections import namedtuple
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from binned_bell import cli, cv
from binned_bell._newton import newton_ascent
from binned_bell.lr_polytope import _chsh_table, build_coefficients
from binned_bell.qudit import BinningPreset, PhaseSettings, bell_expectation
from binned_bell.cv import (
    DEFAULT_TAIL_MASS,
    SQRT8,
    AngleDegeneracyWarning,
    CvScenario,
    FockCutoffError,
    TruncatedTmss,
    _bell_derivatives,
    _bell_value,
    _best_displacements,
    _exponent_forms,
    _grid_starts,
    _parity_correlation,
    _phase_parity_matrix,
    bw_bell_value,
    bw_displaced_parity_max,
    cv_bell_expectation,
    displaced_parity_matrix,
    required_fock_cutoff,
    squeezing_threshold,
    tmss_bell_closed_form,
    tmss_tail_mass,
    violation_boundary_r,
)
from reference_complex_search import (
    GAUGE_COORDINATES,
    best_complex_displacements,
    complex_exponent_forms,
    complex_search,
    complex_view,
)
from reference_nelder_mead import nelder_mead_lockstep
import reference_displaced_parity as dense

# Frozen closed-form oracle: s=9, r=2 evaluates the explicit expression.
S9_R2 = 4.0 * math.sqrt(2.0) * math.tanh(2.0) ** 5 / (1.0 + math.tanh(2.0) ** 10)


def phase_states(s: int, theta: float) -> np.ndarray:
    """Columns |theta, k> = sum_n exp(i n theta_k) |n> / sqrt(s+1), k = 0..s."""
    n = np.arange(s + 1)[:, None]
    theta_k = theta + 2.0 * math.pi * np.arange(s + 1)[None, :] / (s + 1)
    return np.exp(1j * n * theta_k) / math.sqrt(s + 1)


def annihilation(dim: int) -> np.ndarray:
    """The truncated annihilation operator: a|n> = sqrt(n) |n-1>."""
    a = np.zeros((dim, dim))
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def search_box(r: float) -> float:
    """Half-width of the displacement box the search seeds from."""
    return max(1.2 * math.exp(-r), 0.05)


class TestPhaseStates:
    def test_s1_states(self):
        # At theta = 0 the s = 1 phase states are (|0> +/- |1>)/sqrt(2), so
        # their parity is sigma_x.
        assert np.allclose(phase_states(1, 0.0), [[1, 1], [1, -1]] / np.sqrt(2))
        assert np.allclose(_phase_parity_matrix(1, 0.0), [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("s", [1, 3, 9])
    def test_gram_identity(self, s):
        rng = np.random.default_rng(s)
        theta = float(rng.uniform(0, 2 * math.pi))
        states = phase_states(s, theta)
        gram = states.conj().T @ states
        assert np.max(np.abs(gram - np.eye(s + 1))) < 1e-12
        # The parity is diagonal in the phase basis with signs (-1)^k.
        in_basis = states.conj().T @ _phase_parity_matrix(s, theta) @ states
        signs = np.diag(np.where(np.arange(s + 1) % 2 == 0, 1.0, -1.0))
        assert np.max(np.abs(in_basis - signs)) < 1e-12


class TestParityOperator:
    @pytest.mark.parametrize("s", [1, 3, 9, 49, 99])
    def test_involution_and_spectrum(self, s):
        rng = np.random.default_rng(s)
        matrix = _phase_parity_matrix(s, float(rng.uniform(0, 2 * math.pi)))
        assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
        assert np.max(np.abs(matrix @ matrix - np.eye(s + 1))) < 1e-10
        eigenvalues = np.sort(np.linalg.eigvalsh(matrix))
        assert np.allclose(np.abs(eigenvalues), 1.0, atol=1e-10)
        # Parity over s+1 phase states splits evenly for odd s.
        assert abs(float(np.trace(matrix).real)) < 1e-10


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

    def test_every_angle_gives_a_chsh_cosine(self):
        # Pi(theta) has entries only on m - n = +-h, h = (s+1)/2, so each
        # correlation is C cos(h(theta + phi)) with C = B(s, r) / 2 sqrt 2,
        # and no choice of angles exceeds the closed form B(s, r).  The
        # phases n theta round to about n |theta| ulps, n <= s.
        rng = np.random.default_rng(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AngleDegeneracyWarning)
            for _ in range(400):
                s = 2 * int(rng.integers(0, 20)) + 1
                r = float(rng.uniform(0.01, 5.0))
                angles = rng.uniform(-math.pi, math.pi, size=4).tolist()
                theta, theta_p, phi, phi_p = angles
                closed = tmss_bell_closed_form(s, r)

                def e(x, y):
                    return closed / SQRT8 * math.cos((s + 1) / 2 * (x + y))

                value = cv_bell_expectation(CvScenario(s, r, *angles))
                expected = e(theta, phi) + e(theta, phi_p) + e(theta_p, phi) - e(theta_p, phi_p)
                tolerance = 4.0 * (s + 1) * max(map(abs, angles)) * np.finfo(float).eps
                assert abs(value - expected) <= tolerance, (s, r, angles)
                assert value <= closed + 1e-14

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
        a = annihilation(cutoff + 1)
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
        a = annihilation(cutoff + 1)
        signs = np.where(np.arange(cutoff + 1) % 2 == 0, 1.0, -1.0)
        for alpha in (0.37, -0.8, complex(0.21), 0.0):
            op = displaced_parity_matrix(cutoff, alpha)
            assert op.dtype == np.float64
            generator = 2.0 * complex(alpha) * (a.T - a).astype(complex)
            assert np.max(np.abs(op - scipy.linalg.expm(generator) * signs)) < 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 0.3, -0.2, 0.1 + 0.05j, -1.1 + 0.4j])
    def test_matches_generator_exponential_at_largest_cutoff(self, alpha):
        # Cutoff 314 is the reference's Fock space at r = 2.0, the largest
        # the searches run at.  Negative and complex alpha take the rotation
        # R = diag(e^{i n arg alpha}); real alpha stays float64.
        cutoff = 314
        a = annihilation(cutoff + 1)
        generator = 2.0 * (alpha * a.T - np.conjugate(alpha) * a)
        signs = np.where(np.arange(cutoff + 1) % 2 == 0, 1.0, -1.0)
        op = displaced_parity_matrix(cutoff, alpha)
        assert op.dtype == (np.float64 if isinstance(alpha, float) else np.complex128)
        assert np.max(np.abs(op - scipy.linalg.expm(generator) * signs)) < 1e-13

    def test_bell_value_takes_one_eigendecomposition(self, monkeypatch):
        # The four correlations share one SVD of T's odd-even block B^T,
        # padded square, which gives the eigendecomposition of T; no eigh of
        # the full T runs.
        calls = []

        def counting(name, function):
            def counted(matrix, *args, **kwargs):
                calls.append((name, matrix.shape))
                return function(matrix, *args, **kwargs)
            return counted

        def svd_of(dim):
            return ("svd", ((dim + 1) // 2, (dim + 1) // 2))

        cv._displacement_spectrum.cache_clear()
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        cutoff = required_fock_cutoff(0.8)
        assert cutoff % 2 == 0  # an odd Fock dimension, then an even one
        bw_bell_value(cutoff, 0.8, (0.1, -0.2 + 0.1j), (0.0, -0.3))
        assert calls == [svd_of(cutoff + 1)]
        # The last cutoff's decomposition is kept: a second check there, as
        # the anchored search makes after the free one, runs no SVD.
        bw_bell_value(cutoff, 0.8, (0.0, 0.2), (0.1, -0.1))
        assert calls == [svd_of(cutoff + 1)]
        bw_bell_value(cutoff + 1, 0.8, (0.0, 0.2), (0.1, -0.1))
        assert calls == [svd_of(cutoff + 1), svd_of(cutoff + 2)]
        for array in cv._displacement_spectrum(cutoff + 2):
            assert not array.flags.writeable

    def test_is_involution(self):
        op = displaced_parity_matrix(15, 0.3 - 0.2j)
        assert np.max(np.abs(op @ op - np.eye(16))) < 1e-12

    def test_correlations_bounded_by_one(self):
        rng = np.random.default_rng(8)
        for r in (0.0, 0.8, 2.0):
            alphas = rng.uniform(-1, 1, size=6) + 1j * rng.uniform(-1, 1, size=6)
            for a in (alphas.real, alphas):
                table = _parity_correlation(r, a[:, None], a[None, :])
                assert np.all((table > 0.0) & (table <= 1.0))

    @pytest.mark.parametrize("r", [0.8, 1.2, 1.6, 2.0])
    def test_closed_form_matches_definition_route(self, r):
        # At the tail-mass cutoff the reference still drops up to 1e-10 of
        # the state and truncates the displacement too: at r = 0.8 and
        # cutoff 28, points across the search box miss by up to 2.4e-9.
        # 32 more levels leave under 2e-11.
        cutoff = required_fock_cutoff(r) + 32
        rng = np.random.default_rng(14)
        for x in rng.uniform(-search_box(r), search_box(r), size=(3, 4)):
            reference = bw_bell_value(cutoff, r, tuple(x[:2]), tuple(x[2:]))
            assert abs(_bell_value(r, x) - reference) < 1e-10

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

    def test_complex_search_starts_from_real_optimum(self):
        # The reference complex search's first start is the real grid
        # optimum, so it reaches the real value.
        r = 0.6
        cutoff = required_fock_cutoff(r)
        real_value = bw_displaced_parity_max(cutoff, r, restarts=3, seed=0)
        z = best_complex_displacements(r, 0)
        complex_value = bw_bell_value(cutoff, r, tuple(z[:2]), tuple(z[2:]))
        assert complex_value >= real_value - 1e-9

    def test_small_squeezing_returns_physical_maximum(self):
        # The optimum of the untruncated state at r = 0.3; a search on the
        # truncated generator at this cutoff found 2.1447278 instead.
        assert abs(bw_displaced_parity_max(9, 0.3, restarts=3, seed=0) - 2.133522) < 1e-6

    def test_small_cutoff_refusal_names_both_values(self):
        # At r = 0.1 the tail-mass cutoff 4 is too small for the reference
        # at the optimum; cutoff 8 is enough.  The search itself does not
        # depend on the cutoff.
        assert required_fock_cutoff(0.1) == 4
        with pytest.raises(ArithmeticError, match="raise cutoff_fock") as refusal:
            bw_displaced_parity_max(4, 0.1, restarts=3, seed=0)
        closed, reference = re.search(
            r"closed form ([0-9.]+) disagrees with the truncated reference ([0-9.]+) "
            r"at cutoff_fock=4",
            str(refusal.value),
        ).groups()
        assert abs(float(closed) - float(reference)) > 1e-8
        assert abs(bw_displaced_parity_max(8, 0.1, restarts=3, seed=0) - float(closed)) < 1e-15

    def test_complex_displacements_find_no_surplus(self):
        # The optimum sits on a real-displacement slice, so the reference
        # complex search lands on the same plateau.
        r = 1.0
        cutoff = required_fock_cutoff(r)
        real_value = bw_displaced_parity_max(cutoff, r, restarts=2, seed=0)
        z = best_complex_displacements(r, 4)
        complex_value = bw_bell_value(cutoff, r, tuple(z[:2]), tuple(z[2:]))
        assert complex_value <= real_value + 1e-6
        assert abs(complex_value - real_value) < 1e-3


def admissible_r(cutoff: int, rng: np.random.Generator) -> float:
    """A squeezing drawn below the largest r whose tail mass the cutoff admits."""
    return float(rng.uniform(0.0, math.atanh(DEFAULT_TAIL_MASS ** (0.5 / (cutoff + 1)))))


def random_settings(rng: np.random.Generator, r: float, kind: str) -> np.ndarray:
    """(alpha, alpha', beta, beta') in the search box: real, negative or complex."""
    z = rng.uniform(-search_box(r), search_box(r), size=4)
    if kind == "negative":
        return -np.abs(z)
    if kind == "complex":
        return z + 1j * rng.uniform(-search_box(r), search_box(r), size=4)
    return z


# The optima of the perfbench cv-parity workload: (r, anchor_zero, restarts).
CV_PARITY_OPTIMA = [(r, anchor, 3) for r in (0.8, 1.2, 1.6, 2.0) for anchor in (False, True)]
CV_PARITY_OPTIMA += [(0.6, False, 3), (0.6, False, 0), (0.8, False, 0)]


class TestDenseReference:
    """The contraction route against the dense matrices it replaced.

    The values are held to 1e-14.  The largest gap here is 6.9e-15, and
    8.3e-15 over eight more seeds of the same draws at cutoffs 1-314.  An
    SVD of the tall B in place of the padded B^T gave 1.6e-14 there, at odd
    Fock dimensions.
    """

    # Every cutoff to 40, then a stride to 314, the largest the searches
    # use (r = 2.0); both parities of the Fock dimension throughout.
    CUTOFFS = list(range(1, 41)) + list(range(41, 315, 9)) + [313, 314]

    @pytest.mark.parametrize("kind", ["real", "negative", "complex"])
    def test_bell_value_matches_dense_matrices(self, kind):
        rng = np.random.default_rng(["real", "negative", "complex"].index(kind) + 90)
        for cutoff in self.CUTOFFS:
            r = admissible_r(cutoff, rng)
            z = random_settings(rng, r, kind)
            args = (cutoff, r, tuple(z[:2]), tuple(z[2:]))
            assert abs(bw_bell_value(*args) - dense.bell_value(*args)) <= 1e-14, args

    def test_bell_value_matches_dense_matrices_at_cv_parity_optima(self):
        for r, anchor_zero, restarts in CV_PARITY_OPTIMA:
            z = _best_displacements(r, anchor_zero, restarts)
            args = (required_fock_cutoff(r), r, tuple(z[:2]), tuple(z[2:]))
            assert abs(bw_bell_value(*args) - dense.bell_value(*args)) <= 1e-14, args

    def test_mixed_phases_match_dense_matrices(self):
        # Phase sums that repeat, vanish and change between the four terms,
        # purely imaginary settings and the second and third quadrants.
        settings = [((0.3j, -0.2), (0.1 - 0.2j, -0.4j)),
                    ((-0.3 + 0.1j, 0.2 - 0.1j), (0.3 - 0.1j, -0.2 + 0.1j)),
                    ((-0.25 - 0.1j, 0.0), (0.0, 0.15 + 0.2j))]
        for cutoff in (27, 28):
            for alphas, betas in settings:
                args = (cutoff, 0.5, alphas, betas)
                assert abs(bw_bell_value(*args) - dense.bell_value(*args)) <= 1e-14, args

    def test_parity_matrix_matches_dense_matrices(self):
        rng = np.random.default_rng(93)
        for cutoff in self.CUTOFFS[::3]:
            for kind in ("real", "negative", "complex"):
                for alpha in random_settings(rng, admissible_r(cutoff, rng), kind)[:2]:
                    op = displaced_parity_matrix(cutoff, alpha)
                    expected = dense.displaced_parity(cutoff, alpha)
                    assert op.dtype == expected.dtype
                    assert np.max(np.abs(op - expected)) <= 1e-13, (cutoff, alpha)


class TestSpectralDisplacement:
    def test_complex_objective_matches_definition_route(self):
        # 32 levels above the tail-mass cutoff, as for real points.
        rng = np.random.default_rng(21)
        for r in (0.8, 1.2, 1.6, 2.0):
            cutoff = required_fock_cutoff(r) + 32
            for params in rng.uniform(-search_box(r), search_box(r), size=(2, 8)):
                z = complex_view(params)
                reference = bw_bell_value(cutoff, r, (z[0], z[1]), (z[2], z[3]))
                assert abs(_bell_value(r, z) - reference) < 1e-10

    @pytest.mark.parametrize("seed", [5, 34, 314])
    def test_real_points_match_complex_route(self, seed):
        # A real point and the same point with zero imaginary parts give the
        # same bits, so the reference complex search's first start sits on
        # the real search's grid optimum with the real value.
        rng = np.random.default_rng(seed)
        for r in (0.0, 0.9, 2.0):
            points = rng.uniform(-0.8, 0.8, size=(4, 4))
            params = np.stack([points, np.zeros_like(points)], axis=-1).reshape(4, 8)
            complex_points = complex_view(params)
            assert np.array_equal(_bell_value(r, points), _bell_value(r, complex_points))

    @pytest.mark.parametrize("seed", [5, 34])
    def test_batched_bell_value_equals_per_point(self, seed):
        # The search evaluates a whole round of points in one call, so each
        # value must be the bits of its point alone, whatever the batch.
        rng = np.random.default_rng(seed)
        real = rng.uniform(-0.8, 0.8, size=(12, 4))
        for points in (real, real + 1j * rng.uniform(-0.8, 0.8, size=(12, 4))):
            single = np.array([_bell_value(0.9, x) for x in points])
            assert np.array_equal(_bell_value(0.9, points), single)
            assert np.array_equal(_bell_value(0.9, points[:5]), single[:5])
            assert np.array_equal(_bell_value(0.9, points.reshape(3, 4, 4)), single.reshape(3, 4))
        # Real points: the same bits as the grid's correlation table.
        for x, value in zip(real, _bell_value(0.9, real)):
            table = _parity_correlation(0.9, x[:2, None], x[None, 2:])
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


class TestBuiltOnce:
    """Operators that depend only on s and the angles, or on the Fock
    dimension, are built once, and the cheaper forms keep every bit."""

    def scan(self, capsys, s: int) -> str:
        argv = ["scan-cv", "--s", str(s), "--rmin", "0.1", "--rmax", "3.0", "--steps", "30"]
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def test_scan_builds_each_parity_matrix_once(self, capsys):
        cv._phase_parity_matrix.cache_clear()
        first = self.scan(capsys, 9)
        info = cv._phase_parity_matrix.cache_info()
        assert (info.misses, info.hits) == (4, 4 * 30 - 4)
        scenario = CvScenario.with_reference_angles(9, 1.0)
        for theta in (scenario.theta, scenario.theta_p, scenario.phi, scenario.phi_p):
            matrix = _phase_parity_matrix(9, theta)
            assert not matrix.flags.writeable
            assert np.array_equal(matrix, _phase_parity_matrix.__wrapped__(9, theta))
        # A scan at another cutoff evicts all four, and the cutoff is part
        # of the key, so the next scan at s = 9 rebuilds the same bytes.
        self.scan(capsys, 61)
        assert self.scan(capsys, 9) == first
        assert cv._phase_parity_matrix.cache_info().misses == 12

    @pytest.mark.parametrize("r", [0.0, 0.05, 0.6, 2.0, 3.0])
    def test_row_wise_grid_start_same_bits_as_full_table(self, r):
        # The reference is the whole 21^4 table and its first maximum in C
        # order; at r = 0 many entries tie for it.
        grid = np.linspace(-search_box(r), search_box(r), cv._GRID_POINTS)
        table = _parity_correlation(r, grid[:, None], grid[None, :])
        full = _chsh_table(table, table, table, -table)
        best = grid[np.array(np.unravel_index(np.argmax(full), full.shape))]
        assert np.array_equal(cv._grid_starts(r, False, search_box(r), 1)[0], best)
        if r == 0.0:
            assert np.count_nonzero(full == full.max()) > 1
        # Further starts are the first maxima of the next-best alpha rows.
        rows = full.reshape(cv._GRID_POINTS, -1)
        order = np.argsort(-rows.max(axis=1), kind="stable")[:5]
        expected = [grid[np.array((i, *np.unravel_index(np.argmax(rows[i]), full.shape[1:])))]
                    for i in order]
        assert np.array_equal(cv._grid_starts(r, False, search_box(r), 5), expected)

    @pytest.mark.parametrize("r", [0.0, 0.6, 2.0])
    def test_anchored_grid_starts_are_row_maxima(self, r):
        grid = np.linspace(-search_box(r), search_box(r), cv._GRID_POINTS)
        e = lambda a, b: _parity_correlation(r, a, b)
        combo = 1.0 + e(0.0, grid)[None, :] + e(grid, 0.0)[:, None] - e(grid[:, None], grid[None, :])
        order = np.argsort(-combo.max(axis=1), kind="stable")
        expected = [(grid[i], grid[np.argmax(combo[i])]) for i in order]
        assert np.array_equal(cv._grid_starts(r, True, search_box(r), 30), expected)

    def test_search_displacements_same_bits_as_stacked_forms(self):
        # The reference search's complex view keeps the sign of a zero part
        # that re + 1j * im drops; no Bell value, closed form or reference,
        # may read it.
        rng = np.random.default_rng(41)
        wide = rng.uniform(-0.8, 0.8, size=(6, 16))
        wide[:, 1:8:2] = [0.0, -0.0, 0.0, -0.0]
        wide[1::2, 0:8:2] = -0.0
        integers = rng.integers(-1, 2, size=(5, 8))
        signs_differ = False
        for params in (wide[:, :8], wide[:, ::2], wide.T[::2].T, integers):
            stacked = params[..., 0::2] + 1j * params[..., 1::2]
            z = complex_view(params)
            signs_differ |= np.any(np.signbit(z.real) != np.signbit(stacked.real))
            signs_differ |= np.any(np.signbit(z.imag) != np.signbit(stacked.imag))
            for r in (0.0, 0.9, 2.0):
                assert np.array_equal(_bell_value(r, z), _bell_value(r, stacked))
        assert signs_differ
        cutoff = required_fock_cutoff(0.9)
        params = wide[:2, :8]
        for view, stacked in zip(complex_view(params), params[..., 0::2] + 1j * params[..., 1::2]):
            assert bw_bell_value(cutoff, 0.9, tuple(view[:2]), tuple(view[2:])) == bw_bell_value(
                cutoff, 0.9, tuple(stacked[:2]), tuple(stacked[2:]))


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

    def test_nan_from_closed_form_fails_the_check(self, monkeypatch):
        def nan_values(r, alpha, beta):
            return np.full(np.broadcast(alpha, beta).shape, np.nan)

        monkeypatch.setattr(cv, "_parity_correlation", nan_values)
        with pytest.raises(ArithmeticError, match="disagrees"):
            self.search(restarts=0)


# Arrangements of the displaced-parity search: keyword arguments of
# bw_displaced_parity_max, the exponent forms over all coordinates, the
# coordinates the search moves, and the search, which returns
# (alpha, alpha', beta, beta') for (r, restarts).  The complex arrangement's
# search is the reference of reference_complex_search; for its keyword the
# package runs the free search.
Arrangement = namedtuple("Arrangement", "kwargs forms coordinates search")
ARRANGEMENTS = {
    "free": Arrangement({}, _exponent_forms, [0, 1, 2, 3],
                        lambda r, restarts: _best_displacements(r, False, restarts)),
    "anchored": Arrangement({"anchor_zero": True}, _exponent_forms, [1, 3],
                            lambda r, restarts: _best_displacements(r, True, restarts)),
    "complex": Arrangement({"complex_displacements": True}, complex_exponent_forms,
                           GAUGE_COORDINATES, best_complex_displacements),
}


def search_forms(r: float, arrangement: str) -> np.ndarray:
    a = ARRANGEMENTS[arrangement]
    return a.forms(r)[:, a.coordinates][:, :, a.coordinates]


def full_displacements(arrangement: str, x: np.ndarray) -> np.ndarray:
    """(alpha, alpha', beta, beta') from the moved coordinates x[..., :]; complex
    from interleaved parts for the complex arrangement, real otherwise."""
    is_complex = arrangement == "complex"
    v = np.zeros(np.shape(x)[:-1] + (8 if is_complex else 4,))
    v[..., ARRANGEMENTS[arrangement].coordinates] = x
    return complex_view(v) if is_complex else v


class TestBellDerivatives:
    @pytest.mark.parametrize("arrangement", sorted(ARRANGEMENTS))
    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0])
    def test_gradient_and_hessian_match_central_differences(self, arrangement, r):
        forms = search_forms(r, arrangement)
        fgh = partial(_bell_derivatives, forms)
        rng = np.random.default_rng(int(10 * r) + len(arrangement))
        for x in rng.uniform(-search_box(r), search_box(r), size=(4, forms.shape[1])):
            value, grad, hess = fgh(x)
            z = full_displacements(arrangement, x)
            assert value == pytest.approx(float(_bell_value(r, z)), abs=1e-14)
            # The curvature grows like cosh 2r, so the step shrinks like exp(-r).
            h = 1e-5 * search_box(r)
            steps = h * np.eye(len(x))
            fd_grad = np.array([fgh(x + e)[0] - fgh(x - e)[0] for e in steps]) / (2 * h)
            fd_hess = np.array([fgh(x + e)[1] - fgh(x - e)[1] for e in steps]) / (2 * h)
            scale = 4.0 * math.cosh(2.0 * r)
            assert np.abs(grad - fd_grad).max() < 1e-7 * scale
            assert np.abs(hess - fd_hess).max() < 1e-7 * scale**2 * search_box(r)


class TestComplexGauge:
    @pytest.mark.parametrize("r", np.round(np.linspace(0.1, 3.0, 8), 3).tolist())
    def test_imaginary_block_is_singular_only_along_the_rotation(self, r):
        # At the real optimum the Bell sum is even in the imaginary parts
        # (y, y', w, w'), so their gradient vanishes.  Their Hessian block is
        # negative semidefinite, not definite: alpha -> alpha e^{i phi},
        # beta -> beta e^{-i phi} moves along y = phi x, w = -phi u without
        # changing the sum.  On the rest of the block it is negative definite.
        z = _best_displacements(r, False, 0)
        v = np.zeros(8)
        v[0::2] = z
        _, grad, hess = _bell_derivatives(complex_exponent_forms(r), v)
        assert np.all(grad[1::2] == 0.0)
        lam, vectors = np.linalg.eigh(hess[1::2, 1::2])
        rotation = np.array([z[0], z[1], -z[2], -z[3]]) / np.linalg.norm(z)
        assert abs(lam[-1]) <= 1e-13 * abs(lam[0])
        assert abs(vectors[:, -1] @ rotation) > 1.0 - 1e-12
        assert lam[-2] < -1e-7 * abs(lam[0])

    @pytest.mark.parametrize("r", [0.3, 0.6, 1.0, 1.6])
    def test_complex_search_returns_the_real_value(self, r):
        # complex_displacements runs the real search, so every bit agrees.
        # The reference complex search from the same grid starts stays on
        # the real slice and ends at the real value to rounding.
        cutoff = required_fock_cutoff(r) + (5 if r < 0.5 else 0)
        real = bw_displaced_parity_max(cutoff, r, restarts=1)
        assert bw_displaced_parity_max(cutoff, r, complex_displacements=True, restarts=1) == real
        z = best_complex_displacements(r, 1)
        assert abs(bw_bell_value(cutoff, r, tuple(z[:2]), tuple(z[2:])) - real) <= 1e-15

    def test_real_forms_are_the_real_block_of_the_complex_forms(self):
        for r in (0.0, 0.3, 1.0, 2.0, 5.0):
            assert np.array_equal(_exponent_forms(r), complex_exponent_forms(r)[:, 0::2, 0::2])

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.8, 2.0])
    def test_random_complex_starts_end_no_higher_than_the_real_optimum(self, r):
        # Every complex point rotates to Im alpha = 0 without changing the
        # sum, so random starts in the other 7 coordinates cover them all.
        real = float(_bell_value(r, _best_displacements(r, False, 4)))
        rng = np.random.default_rng(int(100 * r))
        starts = rng.uniform(-search_box(r), search_box(r), size=(24, len(GAUGE_COORDINATES)))
        for x0 in starts:
            assert float(_bell_value(r, complex_search(r, [x0]))) <= real + 1e-12


class TestNewtonSafeguards:
    @pytest.mark.parametrize("arrangement", sorted(ARRANGEMENTS))
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.8, 2.0])
    def test_no_search_returns_less_than_its_grid_start(self, arrangement, r):
        kwargs = ARRANGEMENTS[arrangement].kwargs
        grid_best = _grid_starts(r, kwargs.get("anchor_zero", False), search_box(r), 1)[0]
        z = grid_best if len(grid_best) == 4 else np.array([0.0, grid_best[0], 0.0, grid_best[1]])
        cutoff = required_fock_cutoff(r) + 5
        value = bw_displaced_parity_max(cutoff, r, restarts=2, **kwargs)
        found = float(_bell_value(r, ARRANGEMENTS[arrangement].search(r, 2)))
        assert min(value, found) >= float(_bell_value(r, z)) - 1e-12

    def test_indefinite_start_still_ascends(self):
        fgh = partial(_bell_derivatives, search_forms(1.0, "free"))
        found = 0
        for x in np.random.default_rng(3).uniform(-0.5, 0.5, size=(200, 4)):
            value, grad, hess = fgh(x)
            if np.linalg.eigvalsh(hess)[-1] <= 0 or grad @ np.linalg.solve(hess, grad) <= 0:
                continue  # only points where -H^-1 g descends
            found += 1
            _, first = newton_ascent(fgh, x, xtol=1e-16, max_steps=1)
            assert first > value
        assert found >= 5

    @pytest.mark.parametrize("arrangement", sorted(ARRANGEMENTS))
    def test_seed_changes_no_output(self, arrangement):
        r = 0.8
        kwargs = ARRANGEMENTS[arrangement].kwargs
        values = {bw_displaced_parity_max(required_fock_cutoff(r), r, restarts=2, seed=seed,
                                          **kwargs) for seed in (0, 1, 12345)}
        assert len(values) == 1

    @pytest.mark.parametrize("arrangement", sorted(ARRANGEMENTS))
    def test_no_search_ends_below_the_reference_simplex(self, arrangement):
        # The derivative-free reference from the search's first grid start,
        # over all of the arrangement's real parameters.
        anchor_zero = arrangement == "anchored"
        for r in (0.0, 0.3, 0.8, 1.5, 2.0):
            start = _grid_starts(r, anchor_zero, search_box(r), 1)
            if arrangement == "complex":
                # All eight parameters, imaginary parts 0: the simplex fixes no gauge.
                start, to_z = np.insert(start, [1, 2, 3, 4], 0.0, axis=1), complex_view
            else:
                to_z = partial(full_displacements, arrangement)

            def minus_bell(x):
                return -_bell_value(r, to_z(x))

            _, fsim = nelder_mead_lockstep(minus_bell, start, maxiter=4000, maxfev=8000)
            z = ARRANGEMENTS[arrangement].search(r, 0)
            assert float(_bell_value(r, z)) >= -fsim[0, 0] - 1e-14, (arrangement, r)
