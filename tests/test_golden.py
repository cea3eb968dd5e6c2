"""Golden-output pin: SHA-256 of every file of a reduced README pipeline.

The determinism test compares two runs of the same code, so it cannot see a
refactor that changes the numbers.  These hashes were taken before the CSV
writers and the key-rate sweep were rewritten column-at-a-time; any change to
an output byte (number formatting, row order, header lines, arithmetic order)
fails here.  A change that alters outputs on purpose updates the hashes and
says why.

Tomography is left out: its MLE and Wigner sums go through BLAS, whose last
bits depend on the library build and thread count.  The density and Wigner
writers are pinned on fixed inputs instead.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hetasym.cli import main
from hetasym.config import RunConfig
from hetasym.csvio import write_density_csv, write_wigner_csv
from hetasym.tomography import DensityMatrix, WignerGrid

PIPELINE_SHA256 = {
    "raw.csv":
        "e42d4c672ba5a4df7ddd77a203d362a30a7b7286d93c17153d6916dce00eba07",
    "scaled.csv":
        "b1821821fdcf1f5a3f7beaab4ec0e84037cfe11e3b47314f2ca359a2f887ef12",
    "scaled.report.txt":
        "2d9b746b9e64e14e5652c79eef6a21d0da56e3bba91d2d8f5db48ae76d066048",
    "deviation.csv":
        "512b1e6ffab92aebe1ae2ed5fa21602eeac5a22e20d04bb2d787272528b344cd",
    "rates.csv":
        "1d9037bbb69375371c6580dbaade01a2f6b7c642f41b9981b4ee500e06307ac8",
}

WRITER_SHA256 = {
    "rho.csv":
        "4637de826e394a35a54ddf7de95902c4489ec9d0cff791b996b39b642bacd648",
    "wigner.csv":
        "7cb63bbe9389aa8b48b3e5e4e21f15a14bd8cf903e5b0a9954f29b85761fca07",
}


def sha256_of(paths) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


# numpy picks its SIMD kernels at run time, and some of them (arctan2, exp,
# log1p, ... under AVX-512) give other last bits than below that level; the
# pinned bytes must not depend on which level the host has
SIMD_LEVELS = {
    "avx2": "AVX512_SPR AVX512_ICL X86_V4",
    "below_avx2": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
}


def readme_chain(tmp_path) -> list:
    """Write the configs of the reduced README pipeline; return its argv lists."""
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("amplitude_sq = 552.0\nn_phases = 2000\nasymmetry_percent = 14.29\n"
                       "seed = 7\n", encoding="utf-8")
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text("distance_max_km = 100.0\ndistance_step_km = 2.5\n", encoding="utf-8")
    raw = tmp_path / "raw.csv"
    steps = [
        ["simulate", "--config", run_cfg, "--out", raw],
        ["scale", raw, "--config", run_cfg, "--out", tmp_path / "scaled.csv"],
        ["phase-deviation", raw, "--config", run_cfg, "--out", tmp_path / "deviation.csv"],
        ["keyrate-sweep", "--config", sweep_cfg, "--out", tmp_path / "rates.csv"],
    ]
    return [[str(arg) for arg in argv] for argv in steps]


def test_readme_chain_outputs_pinned(tmp_path):
    for argv in readme_chain(tmp_path):
        assert main(argv) == 0
    assert sha256_of(tmp_path / name for name in PIPELINE_SHA256) == PIPELINE_SHA256


@pytest.mark.parametrize("level", SIMD_LEVELS)
def test_readme_chain_pinned_at_lower_simd_level(tmp_path, level):
    code = ("import json, sys\nfrom hetasym.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               NPY_DISABLE_CPU_FEATURES=SIMD_LEVELS[level])
    subprocess.run([sys.executable, "-c", code, json.dumps(readme_chain(tmp_path))],
                   env=env, check=True, capture_output=True)
    assert sha256_of(tmp_path / name for name in PIPELINE_SHA256) == PIPELINE_SHA256


def test_density_and_wigner_writers_pinned(tmp_path):
    rho = DensityMatrix(np.array([
        [0.5, 0.1 + 0.05j, -0.03j],
        [0.1 - 0.05j, 0.3, -0.02 + 0.07j],
        [0.03j, -0.02 - 0.07j, 0.2],
    ]))
    # rational arithmetic only, so the values are the same on every host
    axis = np.arange(-3, 4) * 0.5
    xx, pp = np.meshgrid(axis, axis, indexing="ij")
    grid = WignerGrid(axis, 0.25 * (1.0 - xx * xx) / (1.0 + xx * xx + pp * pp))
    config = RunConfig()
    write_density_csv(tmp_path / "rho.csv", rho, "tomography", config)
    write_wigner_csv(tmp_path / "wigner.csv", grid, "tomography", config)
    assert sha256_of(tmp_path / name for name in WRITER_SHA256) == WRITER_SHA256
