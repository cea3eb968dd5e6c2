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
        "9056c6ee6cb4ac6389111dab6522a45bfd17441eab29d7c4727f06d67220f16f",
    "scaled.csv":
        "49d2c1f1c235d6de7290b2d1f539ac0eb955e148c8c256920244c645bedbe293",
    "scaled.report.txt":
        "92733171e4ea9e851205317c038c178ecea2ffaaac41dd35c0b9ad70d52ce8a9",
    "deviation.csv":
        "4c76112306c8ac14a731ad0adef85d4a23028b005fc89813fcc4d678af70a5eb",
    "rates.csv":
        "6431bf2814ba9f6c79d3005f046b4876222d18564569acc7f7df6d382b1bcf45",
}

WRITER_SHA256 = {
    "rho.csv":
        "258c81970515353aaeb88ff8f507007b67d715c4604c70b06226a84305d4d182",
    "wigner.csv":
        "9a09ba67caf7ea5f1c73f0a5b59e073d713e93f3fe7b28694d501042c44fc790",
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
