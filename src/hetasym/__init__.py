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

# A name is exported when the README's library example or the CLI uses it, a
# public function takes it as an argument, or perfbench imports it from the
# package; the stages of the analyses stay private in their modules.
_EXPORTS = {
    "detector": ("HeterodyneModel", "simulate_heterodyne"),
    "errors": ("NumericalDomainError", "ValidationError"),
    "keyrate": ("KeyRateParams", "key_rate", "key_rate_curve", "max_distance"),
    "phase": ("analyze_sweep",),
    "tomography": ("DensityMatrix", "analyze_tomography", "fidelity", "quadrature_projector",
                   "samples_from_trace"),
    "traces": ("QuadratureTrace", "make_phase_ramp"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """Import an exported name from its submodule (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
