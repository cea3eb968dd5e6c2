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
        "2096ea7def06f6c76f937a2cc414f6783f4fee68cdf4c442b4d9f5ab48329e4a",
    "scaled.csv":
        "90348539b9950e2c39f4b69b30fd978c07b2e7607db556e8112887065f9848a9",
    "scaled.report.txt":
        "71fe1d5626d01be8a5c5c861a5022126f174da026a0c2f729098dfb08d0be517",
    "deviation.csv":
        "dc23cf4058f3da6bdffcc7bbc0f981e6bf00752608d166014b15c161245cb374",
    "rates.csv":
        "283e2a4b8869f216ce913b826a296ef91f82d683454cb089eb16a846b52797cc",
}

WRITER_SHA256 = {
    "rho.csv":
        "ac04e6b28c448c08443cd07011acba9dc479771370c82b32b574e027264e5cd7",
    "wigner.csv":
        "ea28ddad7924e4b318130ba1c9e7f26ef549101bb7734781db01800fd5ef876f",
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
    x_axis = np.arange(-3, 4) * 0.5
    p_axis = np.arange(-2, 3) * 0.25 + 0.1
    xx, pp = np.meshgrid(x_axis, p_axis, indexing="ij")
    grid = WignerGrid(x_axis, p_axis, 0.25 * (1.0 - xx * xx) / (1.0 + xx * xx + pp * pp))
    config = RunConfig()
    write_density_csv(tmp_path / "rho.csv", rho, "tomography", config)
    write_wigner_csv(tmp_path / "wigner.csv", grid, "tomography", config)
    assert sha256_of(tmp_path / name for name in WRITER_SHA256) == WRITER_SHA256
