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
        "ef2a4060b05953682e061e7bec1b28a0489dcc256a9a05beacab3d9cc4b08222",
    "scaled.csv":
        "e18624c34d2ee3a694d97019f435809603209e22cdf98c0a7739ac43c90806c8",
    "scaled.report.txt":
        "4856d97ea2f4dccd50afce2a169d4ace329dfcfc4e12057b5ab7d065c26dd810",
    "deviation.csv":
        "81643f2e9d4381fec216e83dda0fce393c59346a0bb8e5d918301f05e4cdd9d7",
    "rates.csv":
        "8aa2e1e0507445b196eb46790fdccee1bd3ccf47afc49953f52f6405415f9769",
}

WRITER_SHA256 = {
    "rho.csv":
        "ef31d7fafb60fd774d650b7cbdc47c41ffd467a6a5ef0016cdea3bdec08071fd",
    "wigner.csv":
        "a394960d75abd7f9e5af540d968ba7a0dad6faf9c248508103226f9b48aab216",
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
    comments = ["converged: true", "iterations: 3"]
    write_density_csv(tmp_path / "rho.csv", rho, "tomography", config, extra_comments=comments)
    write_wigner_csv(tmp_path / "wigner.csv", grid, "tomography", config,
                     extra_comments=comments)
    assert sha256_of(tmp_path / name for name in WRITER_SHA256) == WRITER_SHA256
