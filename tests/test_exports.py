"""The package's export table: lazy, complete, and closed to removed names."""

import os
import subprocess
import sys

import pytest

import hetasym


def test_import_loads_no_submodule_and_not_numpy():
    code = ("import sys, hetasym; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('hetasym.') or m.split('.')[0] == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", hetasym.__all__)
def test_every_export_resolves(name):
    assert getattr(hetasym, name) is not None


def test_benchmark_imports_resolve():
    # perfbench/checks.py imports these two from the package and does not
    # catch ImportError, so dropping either export would fail every
    # tomography benchmark run
    from hetasym import quadrature_projector, samples_from_trace
    from hetasym import tomography
    assert quadrature_projector is tomography.quadrature_projector
    assert samples_from_trace is tomography.samples_from_trace


@pytest.mark.parametrize("name", [
    "path_phase_variance", "required_coherent_dim", "KeyRateBreakdown", "MLEResult",
    "g_entropy", "transmittance", "chi_het", "holevo_bound", "mutual_information",
    "symplectic_spectrum", "PhaseNoiseBudget", "ReferenceSignalSpec", "gains_from_percent",
    "SweepAnalysis", "no_such_name",
])
def test_unknown_or_removed_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(hetasym, name)
