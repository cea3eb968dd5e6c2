"""The library and the CLI share one operating point: every library default
that mirrors a config key equals that key's ``RunConfig()`` default, so the
README library example and the CLI compute at the same point."""

import inspect

import pytest

from hetasym import (
    HeterodyneModel,
    KeyRateParams,
    ReferenceSignalSpec,
    estimate_phase,
    gains_from_percent,
    mle_reconstruct,
    samples_from_trace,
)
from hetasym.config import RunConfig


def default_of(function, name: str):
    return inspect.signature(function).parameters[name].default


CONFIG = RunConfig()
DETECTOR = HeterodyneModel()

#: library default and RunConfig default, by the library name
PAIRS = {
    **{f"KeyRateParams.{key}": (getattr(KeyRateParams(), key), getattr(CONFIG, key))
       for key in ("v_a", "beta", "xi_line", "eta", "v_elec", "alpha_db_per_km")},
    "HeterodyneModel.noise_var": (DETECTOR.noise_var, CONFIG.noise_var),
    "HeterodyneModel.hybrid_phase_error": (DETECTOR.hybrid_phase_error,
                                           CONFIG.hybrid_phase_error),
    "HeterodyneModel.gains": ((DETECTOR.gain_x, DETECTOR.gain_p),
                              gains_from_percent(CONFIG.asymmetry_percent)),
    "mle_reconstruct.max_iter": (default_of(mle_reconstruct, "max_iter"), CONFIG.max_iter),
    "mle_reconstruct.tol": (default_of(mle_reconstruct, "tol"), CONFIG.tol),
    **{f"samples_from_trace.{key}": (default_of(samples_from_trace, key), getattr(CONFIG, key))
       for key in ("use_true_phase", "block", "amplitude_scale")},
    "estimate_phase.block": (default_of(estimate_phase, "block"), CONFIG.block),
    "ReferenceSignalSpec.ramp.pulses_per_phase": (
        default_of(ReferenceSignalSpec.ramp, "pulses_per_phase"), CONFIG.pulses_per_phase),
}


@pytest.mark.parametrize("name", PAIRS)
def test_library_default_equals_config_default(name):
    library, config = PAIRS[name]
    assert library == config
