"""hetasym: detector-asymmetry analysis for LLO CV-QKD heterodyne receivers.

Simulates asymmetric heterodyne detection of a phase-swept reference
signal, estimates and corrects the reference phase, propagates the residual
error into excess noise and the asymptotic secret-key rate, and quantifies
state degradation via maximum-likelihood tomography, Wigner reconstruction,
and fidelity.
"""

__version__ = "0.1.0"

from .detector import (
    HeterodyneModel,
    gains_from_percent,
    percent_difference,
    simulate_heterodyne,
)
from .errors import NumericalDomainError, ValidationError
from .keyrate import (
    KeyRateBreakdown,
    KeyRateParams,
    chi_het,
    g_entropy,
    holevo_bound,
    key_rate,
    key_rate_curve,
    max_distance,
    mutual_information,
    symplectic_spectrum,
    transmittance,
)
from .phase import (
    PhaseNoiseBudget,
    detection_phase_variance,
    drift_phase_variance,
    estimate_phase,
    excess_noise_from_phase_variance,
    min_max_scale,
    path_phase_variance,
    phase_variance_from_excess_noise,
    wrap_phase,
)
from .tomography import (
    DensityMatrix,
    MLEResult,
    PhaseTaggedSamples,
    WignerGrid,
    fidelity,
    fit_coherent,
    ideal_coherent_state,
    mle_reconstruct,
    quadrature_projector,
    required_coherent_dim,
    samples_from_trace,
    wigner,
)
from .traces import (
    QuadratureTrace,
    ReferenceSignalSpec,
    make_phase_ramp,
)

__all__ = [
    "__version__",
    "HeterodyneModel",
    "gains_from_percent",
    "percent_difference",
    "simulate_heterodyne",
    "NumericalDomainError",
    "ValidationError",
    "KeyRateBreakdown",
    "KeyRateParams",
    "chi_het",
    "g_entropy",
    "holevo_bound",
    "key_rate",
    "key_rate_curve",
    "max_distance",
    "mutual_information",
    "symplectic_spectrum",
    "transmittance",
    "PhaseNoiseBudget",
    "detection_phase_variance",
    "drift_phase_variance",
    "estimate_phase",
    "excess_noise_from_phase_variance",
    "min_max_scale",
    "path_phase_variance",
    "phase_variance_from_excess_noise",
    "wrap_phase",
    "DensityMatrix",
    "MLEResult",
    "PhaseTaggedSamples",
    "WignerGrid",
    "fidelity",
    "fit_coherent",
    "ideal_coherent_state",
    "mle_reconstruct",
    "quadrature_projector",
    "required_coherent_dim",
    "samples_from_trace",
    "wigner",
    "QuadratureTrace",
    "ReferenceSignalSpec",
    "make_phase_ramp",
]
