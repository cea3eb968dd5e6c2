"""Output checks, output hashes, the MLE optimality gap and the environment
record.  Nothing here is timed.

Each check returns a list of failure messages; an empty list is a pass.  A
failed check is counted and reported, and never aborts the run.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np


def read_report(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    return entries


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """(header names, float rows) of a hetasym CSV, parsed with numpy alone so
    the check does not trust the program's own reader."""
    comments = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                header = line.strip().split(",")
                break
            comments += 1
        else:
            raise ValueError(f"{path}: no header row")
    return header, np.loadtxt(path, delimiter=",", skiprows=comments + 1, ndmin=2)


def check_scale(d: Path) -> list[str]:
    header, rows = read_table(d / "scaled.csv")
    x, p = rows[:, header.index("x")], rows[:, header.index("p")]
    if x.min() != p.min() or x.max() != p.max():
        return [f"scale: min/max X ({x.min()!r}, {x.max()!r}) differ from min/max P "
                f"({p.min()!r}, {p.max()!r})"]
    return []


def check_phase_deviation(d: Path, expected_rows: int) -> list[str]:
    header, rows = read_table(d / "deviation.csv")
    failures = []
    if rows.shape[0] != expected_rows:
        failures.append(f"phase-deviation: {rows.shape[0]} rows, expected {expected_rows}")
    delta = rows[:, header.index("delta_theta")]
    if not np.all(np.abs(delta) <= math.pi):
        failures.append(f"phase-deviation: {int((np.abs(delta) > math.pi).sum())} rows "
                        "with |delta_theta| > pi")
    return failures


def check_keyrate(d: Path, expected_rows: int, expected_columns: int) -> list[str]:
    header, rows = read_table(d / "rates.csv")
    failures = []
    if rows.shape != (expected_rows, expected_columns + 1):
        failures.append(f"keyrate-sweep: grid {rows.shape}, expected "
                        f"({expected_rows}, {expected_columns + 1})")
        return failures
    xi = np.array([float(name.removeprefix("rate_xi_")) for name in header[1:]])
    rates = rows[:, 1:][:, np.argsort(xi)]
    increases = np.diff(rates, axis=1) > 0.0
    if increases.any():
        failures.append(f"keyrate-sweep: rate increases with xi_det at "
                        f"{int(increases.any(axis=1).sum())} distances")
    return failures


def check_tomography(d: Path) -> list[str]:
    report = read_report(d / "tomo.report.txt")
    failures = []
    if report.get("converged") != "true":
        failures.append(f"tomography: converged = {report.get('converged')}")
    norm = float(report.get("wigner_normalization", "nan"))
    if not abs(norm - 1.0) <= 1e-3:
        failures.append(f"tomography: wigner_normalization = {norm!r}")
    return failures


def check_fidelity(stdout: str) -> list[str]:
    for line in stdout.splitlines():
        if line.startswith("fidelity_sqrt = "):
            value = float(line.split("=", 1)[1])
            return [] if abs(value - 1.0) <= 1e-9 else [f"fidelity(rho, rho) = {value!r}"]
    return [f"fidelity: no fidelity_sqrt line in {stdout!r}"]


def mle_gap(d: Path) -> float:
    """lambda_max(R(rho)) - 1 for the written reconstruction: the bound on how
    much per-sample log-likelihood the solver left on the table.  Recomputed
    from the output files with the package's public functions."""
    from hetasym import quadrature_projector, samples_from_trace
    from hetasym.config import load_config
    from hetasym.csvio import read_density_csv, read_trace_csv

    config = load_config(str(d / "analysis.cfg"), env={})
    rho = read_density_csv(d / "tomo.rho.csv").matrix
    samples = samples_from_trace(read_trace_csv(d / "raw.csv"),
                                 use_true_phase=config.use_true_phase, block=config.block,
                                 amplitude_scale=config.amplitude_scale)
    psi = quadrature_projector(samples.theta, samples.x, rho.shape[0])
    probs = np.einsum("ij,ij->i", psi.conj(), psi @ rho.T).real
    r = (psi / probs[:, None]).T @ psi.conj() / samples.n
    return float(np.linalg.eigvalsh(0.5 * (r + r.conj().T)).max() - 1.0)


def output_hashes(d: Path) -> dict[str, str]:
    """SHA-256 of every output file of an instance (configs excluded)."""
    hashes = {}
    for path in sorted(d.iterdir()):
        if path.is_file() and path.suffix != ".cfg" and not path.name.startswith("_"):
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def environment(seed: int) -> dict:
    """Where and how the numbers were taken."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {key: os.environ.get(key, "unset") for key in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
    }
