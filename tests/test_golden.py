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
        "032584bb3bd73ca6fe37397d7040cecb1fe4749ed2ab92ba05c8dea7099a0ec0",
    "scaled.csv":
        "82cc12d96249e457e9d6d09c541d59ede36b6a271c2151ae6640b02af14ae483",
    "scaled.report.txt":
        "dea8be07c4d38defba53c73e51f3c8998fbdf2b25c229e29e3df80c996bf7096",
    "deviation.csv":
        "3f4b030febff5593dffb8b5b5545e86fd98f20eb9124c9e9407365bb900e0593",
    "rates.csv":
        "76c66993e3984195b872631c73fee98a96c5fe4f03dc3b2110bbdad9567f19a0",
}

WRITER_SHA256 = {
    "rho.csv":
        "9665f5b332b6066fc7ee6bea63e29a1f3ee6f7ee38446933e67ae184976edfa0",
    "wigner.csv":
        "b8f304bcd0986c4ace7c010e5019153ea0c3c2e0bd98f02fe80b85456e898ff1",
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
