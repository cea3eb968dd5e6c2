"""hetasym: detector-asymmetry analysis for LLO CV-QKD heterodyne receivers.

Simulates asymmetric heterodyne detection of a phase-swept reference
signal, estimates and corrects the reference phase, propagates the residual
error into excess noise and the asymptotic secret-key rate, and quantifies
state degradation via maximum-likelihood tomography, Wigner reconstruction,
and fidelity.

Each exported name is imported from its submodule on first use, so
``import hetasym`` loads neither the submodules nor numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "detector": ("HeterodyneModel", "gains_from_percent", "percent_difference",
                 "simulate_heterodyne"),
    "errors": ("NumericalDomainError", "ValidationError"),
    "keyrate": ("KeyRateParams", "chi_het", "holevo_bound", "key_rate", "key_rate_curve",
                "max_distance", "mutual_information", "symplectic_spectrum"),
    "phase": ("detection_phase_variance", "drift_phase_variance", "estimate_phase",
              "excess_noise_from_phase_variance", "min_max_scale",
              "phase_variance_from_excess_noise", "wrap_phase"),
    "tomography": ("DensityMatrix", "PhaseTaggedSamples", "WignerGrid", "fidelity",
                   "fit_coherent", "ideal_coherent_state", "mle_reconstruct",
                   "quadrature_projector", "samples_from_trace", "wigner"),
    "traces": ("QuadratureTrace", "ReferenceSignalSpec", "make_phase_ramp"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """Import an exported name from its submodule (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
