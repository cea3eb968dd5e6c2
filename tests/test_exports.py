"""The package's export table: lazy, complete, and closed to removed names."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hetasym

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    # the benchmark imports these names and patches keyrate.key_rate by name,
    # catching no ImportError or AttributeError; tier-1 does not run it, so
    # an export dropped from under it would fail only the benchmark
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hetasym":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert getattr(module, alias.name, None) is not None, (path.name, alias.name)
                    imported.append(alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "hetasym":
                        importlib.import_module(alias.name)
    assert imported  # the walk found the benchmark's imports
    from hetasym import keyrate
    assert callable(keyrate.key_rate)


@pytest.mark.parametrize("name", [
    "path_phase_variance", "required_coherent_dim", "KeyRateBreakdown", "MLEResult",
    "g_entropy", "transmittance", "chi_het", "holevo_bound", "mutual_information",
    "symplectic_spectrum", "PhaseNoiseBudget", "ReferenceSignalSpec", "gains_from_percent",
    "SweepAnalysis", "percent_difference", "detection_phase_variance", "drift_phase_variance",
    "estimate_phase", "excess_noise_from_phase_variance", "min_max_scale", "fit_coherent",
    "ideal_coherent_state", "mle_reconstruct", "wigner", "phase_variance_from_excess_noise",
    "WignerGrid", "PhaseTaggedSamples", "no_such_name",
])
def test_unknown_or_removed_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(hetasym, name)
