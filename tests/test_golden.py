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
        "e8868b36c168f05178681dbc4fe90816874ef1c1a650903a1e7255d789ff8626",
    "scaled.csv":
        "8a41cb4c1ecc35e460a972ecc931d7b774a8458fcb5ef9a42bb3457f3e61129c",
    "scaled.report.txt":
        "83fc4e7e0847c072d257a5f0864452bdcad5445034d798326d8c90fee40c08e8",
    "deviation.csv":
        "a8998059a24a042fe74cd79605cfcdef665bdf9b6ec779d903f59d10f8c7a4a0",
    "rates.csv":
        "167e3736f73b024ef1a64fb2a8f1f3d833064adf7fcb3e6eb23b698ba8d5661e",
}

WRITER_SHA256 = {
    "rho.csv":
        "c4faacada88ccccdcb9ea777d7e1e1a7e0cd4c9cd845925f7bab093eb654f201",
    "wigner.csv":
        "1cff4d6c471ed5bdd34fd9c267b2b1f4473e8fcbba6ab48777fe9bc01528de80",
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
