"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is asserted at its stated tolerance.  Tolerances and targets
are fixed here on purpose; if a target cannot be met by a faithful
implementation the test stays red rather than being weakened.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from binned_bell.lr_polytope import (
    BinningSpec,
    CoefficientTensor,
    build_coefficients,
    count_max_configs,
    facet_threshold,
    lr_max,
    m_formula,
    tightness_certificate,
)
from binned_bell.qudit import (
    SQRT8,
    BinningPreset,
    PhaseSettings,
    bell_expectation,
    build_bell_operator,
    operator_identity_residual,
    optimize_phases,
)
from binned_bell.cv import (
    AngleDegeneracyWarning,
    CvScenario,
    bw_displaced_parity_max,
    cv_bell_expectation,
    required_fock_cutoff,
    squeezing_threshold,
    tmss_bell_closed_form,
)

OPTIMAL_PHASES = PhaseSettings(0.0, 0.5, -0.25, 0.25)


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_spec(rng: np.random.Generator, d: int) -> BinningSpec:
    def subset() -> tuple[int, ...]:
        size = int(rng.integers(1, d))
        return tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))

    return BinningSpec(d=d, r1=subset(), r2=subset(), s1=subset(), s2=subset())


def test_criterion_1_chsh_reduction():
    """d=2 sharp binning at the optimal phases is the CHSH test."""
    coeffs = build_coefficients(BinningPreset("t1", 2).to_binning_spec())
    value = bell_expectation(2, coeffs, OPTIMAL_PHASES)
    classical = lr_max(coeffs)
    counted = count_max_configs(coeffs)
    ok = (
        abs(value - SQRT8) <= 1e-9
        and classical == 2.0
        and counted == m_formula(BinningPreset("t1", 2).to_binning_spec()) == 8
        and counted == facet_threshold(2)
    )
    _criterion(1, ok, f"quantum value {value:.12f}, classical bound {classical}, M {counted}")


def test_criterion_2_t1_curve():
    """Sharp binning reaches 2*sqrt(2) for even d; odd-d deficit shrinks."""
    deficits = {}
    for d in range(2, 17):
        _, value = optimize_phases(d, BinningPreset("t1", d))
        deficits[d] = SQRT8 - value
    even_ok = all(abs(deficits[d]) <= 1e-6 for d in range(2, 17, 2))
    odd_ok = all(deficits[d] > 0 for d in range(3, 16, 2))
    trend_ok = deficits[9] < deficits[3]
    _criterion(
        2,
        even_ok and odd_ok and trend_ok,
        f"even max deviation {max(abs(deficits[d]) for d in range(2, 17, 2)):.2e}, "
        f"odd deficits d=3: {deficits[3]:.4f} d=9: {deficits[9]:.4f}",
    )


def test_criterion_3_t2_t3_curves():
    """Best-found block-binning value at d=32 and half-binning trend.

    Target values: 2.31 +/- 0.02 for the period-4 block binning at d=32,
    and a crossing below the classical bound 2 by d* <= 16 for the
    half-split binning.  The search is a global one over one full period
    (a gauge-fixed grid of 16 d points per phase, then a simplex
    refinement); the assertions record the targets, not the search's reach.
    """
    _, t2_value = optimize_phases(32, BinningPreset("t2", 32))
    t3_values = {}
    for d in range(4, 17, 2):
        _, value = optimize_phases(d, BinningPreset("t3", d))
        t3_values[d] = value
    d_star = next((d for d in sorted(t3_values) if t3_values[d] < 2.0), None)
    t2_ok = abs(t2_value - 2.31) <= 0.02
    t3_ok = d_star is not None and d_star <= 16
    _criterion(
        3,
        t2_ok and t3_ok,
        f"t2 at d=32 best-found {t2_value:.6f} (target 2.31 +/- 0.02); "
        f"t3 values {[round(v, 4) for v in t3_values.values()]} for d=4..16, "
        f"first d below 2: {d_star}",
    )


def test_criterion_4_tightness_certification():
    """Counted maximizers match the closed form and certify facets."""
    rng = np.random.default_rng(2024)
    samples = 0
    count_ok = True
    for _ in range(200):
        d = int(rng.integers(2, 9))
        spec = _random_spec(rng, d)
        counted = count_max_configs(build_coefficients(spec))
        samples += 1
        if counted != m_formula(spec) or counted < facet_threshold(d):
            count_ok = False
            break
    ranks = {}
    for d in (2, 4, 6, 8):
        report = tightness_certificate(BinningPreset("t1", d).to_binning_spec())
        ranks[d] = (report.linear_rank, report.threshold)
    rank_ok = all(rank >= threshold for rank, threshold in ranks.values())
    _criterion(
        4,
        count_ok and rank_ok,
        f"{samples} random specs counted==formula>=threshold; "
        f"t1 ranks {[r for r, _ in ranks.values()]} vs thresholds "
        f"{[t for _, t in ranks.values()]}",
    )


def test_criterion_5_operator_suite():
    """Squared-operator identity and the spectral norm bound, 100 draws."""
    rng = np.random.default_rng(99)
    worst_residual = 0.0
    worst_norm = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 11))
        spec = _random_spec(rng, d)
        phases = PhaseSettings(*[float(v) for v in rng.uniform(-2, 2, size=4)])
        operator = build_bell_operator(d, build_coefficients(spec), phases)
        worst_residual = max(worst_residual, operator_identity_residual(operator, spec, phases))
        worst_norm = max(worst_norm, operator.spectral_norm())
    ok = worst_residual <= 1e-9 and worst_norm <= SQRT8 + 1e-9
    _criterion(
        5, ok, f"worst identity residual {worst_residual:.2e}, worst norm {worst_norm:.12f}"
    )


def test_criterion_6_cv_contraction_agreement():
    """Schmidt-form contraction equals the closed form on the scan grid."""
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AngleDegeneracyWarning)
        for s in (1, 9, 99):
            for step in range(1, 51):
                r = 0.1 * step
                scn = CvScenario.with_reference_angles(s, r)
                worst = max(worst, abs(cv_bell_expectation(scn) - tmss_bell_closed_form(s, r)))
    _criterion(6, worst <= 1e-10, f"max deviation {worst:.2e} over r in 0.1..5.0, s in 1/9/99")


def test_criterion_7_threshold_round_trip():
    """Inverting the closed form recovers the target value everywhere."""
    worst = 0.0
    for s in range(1, 100, 2):
        for delta in (1e-2, 1e-3, 1e-4):
            th = squeezing_threshold(s, delta)
            worst = max(worst, abs(tmss_bell_closed_form(s, th.r_min) - (SQRT8 - delta)))
    _criterion(7, worst <= 1e-9, f"max round-trip residual {worst:.2e} for odd s <= 99")


def test_criterion_8_bw_comparison():
    """Displaced-parity optimum plateaus near 2.32, never past 2.33."""
    values = {}
    for r in (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0):
        cutoff = required_fock_cutoff(r)
        values[r] = bw_displaced_parity_max(cutoff, r, restarts=3, seed=0)
    best = max(values.values())
    ok = 2.31 <= best <= 2.33 and all(v <= 2.33 for v in values.values())
    _criterion(
        8,
        ok,
        f"best {best:.6f} over r grid; per-r values "
        f"{[round(v, 4) for v in values.values()]}",
    )


def test_criterion_9_mutation_sensitivity():
    """Flipping the fourth block's sign must break the operator identity."""
    spec = BinningPreset("t1", 4).to_binning_spec()
    coeffs = build_coefficients(spec)
    eps = coeffs.eps.copy()
    eps[1, 1] = -eps[1, 1]
    mutated = CoefficientTensor(d=4, eps=eps)
    clean = operator_identity_residual(
        build_bell_operator(4, coeffs, OPTIMAL_PHASES), spec, OPTIMAL_PHASES
    )
    broken = operator_identity_residual(
        build_bell_operator(4, mutated, OPTIMAL_PHASES), spec, OPTIMAL_PHASES
    )
    ok = clean <= 1e-9 and broken > 1e-9
    _criterion(9, ok, f"clean residual {clean:.2e}, mutated residual {broken:.2e}")
