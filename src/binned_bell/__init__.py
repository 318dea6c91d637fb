"""Binned Bell inequalities: LR-polytope certificates and quantum violations.

Layers:

- `lr_polytope`: coefficient tensors from outcome binning, exact
  local-realistic bounds, maximizer counts, and integer-rank tightness
  certificates.
- `qudit`: Fourier-basis measurements on the maximally entangled state,
  Bell operators, and phase optimization of the quantum value.
- `cv`: truncated two-mode squeezed states with phase-parity
  measurements, squeezing thresholds, and the displaced-parity comparison.
- `cli`: deterministic CSV/JSON scans and certification suites.
"""

from .lr_polytope import (
    BinningSpec,
    CoefficientTensor,
    EnumerationLimitError,
    TightnessReport,
    build_coefficients,
    count_max_configs,
    facet_threshold,
    lr_max,
    m_formula,
    tightness_certificate,
)
from .qudit import (
    BellOperatorMatrix,
    BinningPreset,
    MeasurementBasis,
    PhaseSettings,
    bell_expectation,
    build_bell_operator,
    fourier_basis,
    operator_identity_residual,
    optimize_phases,
    probability_kernel,
)
from .cv import (
    AngleDegeneracyWarning,
    CvScenario,
    FockCutoffError,
    TruncatedTmss,
    ViolationThreshold,
    bw_bell_value,
    bw_displaced_parity_max,
    cv_bell_expectation,
    required_fock_cutoff,
    squeezing_threshold,
    tmss_bell_closed_form,
    violation_boundary_r,
)

__version__ = "0.1.0"

__all__ = [
    "BinningSpec",
    "CoefficientTensor",
    "EnumerationLimitError",
    "TightnessReport",
    "build_coefficients",
    "count_max_configs",
    "facet_threshold",
    "lr_max",
    "m_formula",
    "tightness_certificate",
    "BellOperatorMatrix",
    "BinningPreset",
    "MeasurementBasis",
    "PhaseSettings",
    "bell_expectation",
    "build_bell_operator",
    "fourier_basis",
    "operator_identity_residual",
    "optimize_phases",
    "probability_kernel",
    "AngleDegeneracyWarning",
    "CvScenario",
    "FockCutoffError",
    "TruncatedTmss",
    "ViolationThreshold",
    "bw_bell_value",
    "bw_displaced_parity_max",
    "cv_bell_expectation",
    "required_fock_cutoff",
    "squeezing_threshold",
    "tmss_bell_closed_form",
    "violation_boundary_r",
    "__version__",
]
