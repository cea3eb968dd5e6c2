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
        "885538287449870890c5f4e54cf380fc62698988822a5b4c2ba473951a112513",
    "scaled.csv":
        "202dc1cc634b4177c53ddb22a3a27e7b73ab62a306b9c20b347ed0fed62c7b50",
    "scaled.report.txt":
        "1857005dfe80631ed5e804e53628d6fe1a06fc1a5bc68892873f283894799b9c",
    "deviation.csv":
        "3a3c26b514bb0b6e910fa8a81f73eb430b317f4ae8ad354a99ba2ae51cdab3d3",
    "rates.csv":
        "bfc04463c97aac96020e38e5aa504029a8cc35695c93573ca5a5192e32b3036b",
}

WRITER_SHA256 = {
    "rho.csv":
        "15904300a372d39d96827731664036a50aa8c20b96e7efeb3b9715fa56a8a40d",
    "wigner.csv":
        "61f9dc0630c85d7dff9afd35cb91ea34ffdf25dd3b96c16ee11751dfdba69b08",
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
