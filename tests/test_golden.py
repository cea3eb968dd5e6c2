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

import numpy as np

from hetasym.cli import main
from hetasym.config import RunConfig
from hetasym.csvio import write_density_csv, write_wigner_csv
from hetasym.tomography import DensityMatrix, WignerGrid

PIPELINE_SHA256 = {
    "raw.csv":
        "3c93931f6c193b9e755d110e107c8ea3339b324741949a67926ae190270b3020",
    "scaled.csv":
        "68fe21f432f718344482cb83ec5a3377854d1b5b8ba5f0aa91c3c1a4b3bd7cd8",
    "scaled.report.txt":
        "6f8d465693322dadf32e38bf1eb2d20e53e4c8b2aee116fa71fbd1b0aec0ac0f",
    "deviation.csv":
        "4b44301fc595ff82927a1eee96c3e9c2a72c4e6fe2f68d5122e5d4410145ad9b",
    "rates.csv":
        "509ba26d380752b1e9098415a682a5ff0f57e129f0e1c0ad3686fd4c059e01ad",
}

WRITER_SHA256 = {
    "rho.csv":
        "c40634fa9bd142c0f27d3e61554621fc74557d5ccefee51f12fa2cd01dd7647b",
    "wigner.csv":
        "f4f4a4794287dc47b88b68abad251d8207b162d5477b9c55f0b02a13e41fc7c4",
}


def sha256_of(paths) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def test_readme_chain_outputs_pinned(tmp_path):
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
    for argv in steps:
        assert main([str(arg) for arg in argv]) == 0
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
