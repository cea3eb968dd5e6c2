"""The library and the CLI share one operating point: every library default
that mirrors a config key is written as that key's ``RunConfig`` default
(``RunConfig.<key>``), so the README library example and the CLI compute at
the same point and no default restates a value that could drift from the
config."""

import ast
import inspect

import pytest

from hetasym import (
    HeterodyneModel,
    KeyRateParams,
    analyze_sweep,
    analyze_tomography,
    make_phase_ramp,
    samples_from_trace,
)
from hetasym.config import RunConfig
from hetasym.phase import _estimate_phase
from hetasym.tomography import _mle_reconstruct


def default_source(owner, name: str) -> str:
    """The source text of the default of parameter or field ``name`` of the
    function or dataclass ``owner``."""
    node = ast.parse(inspect.getsource(owner)).body[0]
    if isinstance(node, ast.ClassDef):
        return next(ast.unparse(item.value) for item in node.body
                    if isinstance(item, ast.AnnAssign) and item.target.id == name)
    args = node.args.args
    return ast.unparse(node.args.defaults[[a.arg for a in args].index(name) - len(args)])


def default_of(function, name: str):
    return inspect.signature(function).parameters[name].default


CONFIG = RunConfig()
DETECTOR = HeterodyneModel()


def pair(library, config, owner, name):
    """library default, RunConfig default and the source of the library default"""
    return library, config, default_source(owner, name)


#: (library default, RunConfig default, default source) by the library name
PAIRS = {
    **{f"KeyRateParams.{key}": pair(getattr(KeyRateParams(), key), getattr(CONFIG, key),
                                    KeyRateParams, key)
       for key in ("v_a", "beta", "xi_line", "eta", "v_elec", "alpha_db_per_km")},
    **{f"HeterodyneModel.{key}": pair(getattr(DETECTOR, key), getattr(CONFIG, key),
                                      HeterodyneModel, key)
       for key in ("asymmetry_percent", "noise_var", "hybrid_phase_error")},
    **{f"mle_reconstruct.{key}": pair(default_of(_mle_reconstruct, key), getattr(CONFIG, key),
                                      _mle_reconstruct, key)
       for key in ("max_iter", "tol")},
    **{f"samples_from_trace.{key}": pair(default_of(samples_from_trace, key),
                                         getattr(CONFIG, key), samples_from_trace, key)
       for key in ("use_true_phase", "block", "amplitude_scale")},
    "estimate_phase.block": pair(default_of(_estimate_phase, "block"), CONFIG.block,
                                 _estimate_phase, "block"),
    **{f"analyze_sweep.{key}": pair(default_of(analyze_sweep, key), getattr(CONFIG, key),
                                    analyze_sweep, key)
       for key in ("block", "v_a", "v_drift_rad2")},
    **{f"analyze_tomography.{key}": pair(default_of(analyze_tomography, key),
                                         getattr(CONFIG, key), analyze_tomography, key)
       for key in ("dim", "use_true_phase", "block", "amplitude_scale", "max_iter", "tol",
                   "wigner_extent", "wigner_points")},
    "make_phase_ramp.pulses_per_phase": pair(default_of(make_phase_ramp, "pulses_per_phase"),
                                             CONFIG.pulses_per_phase,
                                             make_phase_ramp, "pulses_per_phase"),
}


@pytest.mark.parametrize("name", PAIRS)
def test_library_default_equals_config_default(name):
    library, config, source = PAIRS[name]
    assert library == config
    # written as the config default, not as a literal of the same value
    assert source == f"RunConfig.{name.split('.')[1]}"
