"""Workload definitions: the generated configs and the CLI command sequence of
each workload, at full size and at the tiny size of the smoke mode.

A workload is run as a set of instances.  Every instance gets its own
simulation seed, derived from the benchmark's ``--seed`` and the instance
number, so the same ``--seed`` always gives the same inputs.  The tomography
workloads use many small instances because the MLE iteration count depends
strongly on the data (roughly 200 to 1100 iterations across seeds at the
grouped settings): the median over many instances is steady where a single
large instance is not.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int                 # instances in one pass over the workload
    traced_instances: int          # the first instances, traced in --trace 1
    simulate: dict                 # keys of run.cfg (the simulated trace)
    analysis: dict = field(default_factory=dict)  # keys of the analysis config
    commands: tuple = ()           # command names after "simulate"

    def steps(self, d: Path) -> list[tuple[str, list[str]]]:
        """(command, argv) pairs of one instance whose files live in ``d``."""
        run_cfg, raw = str(d / "run.cfg"), str(d / "raw.csv")
        steps = [("simulate", ["simulate", "--config", run_cfg, "--out", raw])]
        for command in self.commands:
            if command == "scale":
                argv = ["scale", raw, "--config", run_cfg, "--out", str(d / "scaled.csv")]
            elif command == "phase-deviation":
                argv = ["phase-deviation", raw, "--config", run_cfg,
                        "--out", str(d / "deviation.csv")]
            elif command == "keyrate-sweep":
                argv = ["keyrate-sweep", "--config", str(d / "analysis.cfg"),
                        "--out", str(d / "rates.csv")]
            elif command == "tomography":
                argv = ["tomography", raw, "--config", str(d / "analysis.cfg"),
                        "--out", str(d / "tomo")]
            elif command == "fidelity":
                rho = str(d / "tomo.rho.csv")
                argv = ["fidelity", rho, rho]
            else:
                raise ValueError(f"unknown command {command!r}")
            steps.append((command, argv))
        return steps

    def write_configs(self, d: Path, sim_seed: int) -> None:
        d.mkdir(parents=True, exist_ok=True)
        _write_cfg(d / "run.cfg", {**self.simulate, "seed": sim_seed})
        if self.analysis:
            _write_cfg(d / "analysis.cfg", self.analysis)


def _write_cfg(path: Path, entries: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")


def instance_seed(workload: str, seed: int, index: int) -> int:
    """Simulation seed of one instance: a hash of the workload, the benchmark
    seed and the instance number, so instances and seeds never share data."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


# README quick-start steps 1-4: the asymmetry -> xi_det -> key-rate chain, at
# a quarter of the README's 200,000 samples and 0.01 km step, so that a 30 s
# run holds about ten passes for the per-command medians.
_CSV_SIMULATE = {"amplitude_sq": 552.0, "n_phases": 50_000, "asymmetry_percent": 14.29}
_CSV_SWEEP = {"distance_min_km": 0.0, "distance_max_km": 100.0, "distance_step_km": 0.04}

# A weak coherent reference (amplitude_sq = 4 SNU is alpha = 1 after the
# sqrt(2) ingestion scale).  25 phases x 400 pulses repeat every tag 400
# times, which selects the grouped MLE engine.
_GROUPED_SIMULATE = {"amplitude_sq": 4.0, "n_phases": 25, "pulses_per_phase": 400,
                     "asymmetry_percent": 0.0}
_GROUPED_TOMO = {"dim": 15, "tol": 1e-10}

# One pulse per phase over many phases: tags barely repeat (a continuously
# drifting LLO phase), which selects the dense MLE engine.
_DENSE_SIMULATE = {"amplitude_sq": 4.0, "n_phases": 12_500, "pulses_per_phase": 1,
                   "asymmetry_percent": 14.29}
_DENSE_TOMO = {"dim": 20, "tol": 1e-10}

FULL = {
    "csv_pipeline": Workload(
        "csv_pipeline",
        instances=1,
        traced_instances=1,
        simulate=_CSV_SIMULATE,
        analysis=_CSV_SWEEP,
        commands=("scale", "phase-deviation", "keyrate-sweep"),
    ),
    "tomo_grouped": Workload(
        "tomo_grouped",
        instances=14,
        traced_instances=10,
        simulate=_GROUPED_SIMULATE,
        analysis=_GROUPED_TOMO,
        commands=("tomography",),
    ),
    "tomo_dense": Workload(
        "tomo_dense",
        instances=11,
        traced_instances=6,
        simulate=_DENSE_SIMULATE,
        analysis=_DENSE_TOMO,
        commands=("tomography", "fidelity"),
    ),
}

# The same command sequences at a size that runs in seconds (smoke mode).
TINY = {
    "csv_pipeline": Workload(
        "csv_pipeline", instances=1, traced_instances=1,
        simulate={**_CSV_SIMULATE, "n_phases": 2000},
        analysis={**_CSV_SWEEP, "distance_max_km": 10.0, "distance_step_km": 0.1},
        commands=FULL["csv_pipeline"].commands,
    ),
    "tomo_grouped": Workload(
        "tomo_grouped", instances=2, traced_instances=2,
        simulate={**_GROUPED_SIMULATE, "pulses_per_phase": 40},
        analysis={**_GROUPED_TOMO, "dim": 13, "wigner_points": 31},
        commands=FULL["tomo_grouped"].commands,
    ),
    "tomo_dense": Workload(
        "tomo_dense", instances=2, traced_instances=2,
        simulate={**_DENSE_SIMULATE, "n_phases": 1000},
        analysis={**_DENSE_TOMO, "dim": 13, "wigner_points": 31},
        commands=FULL["tomo_dense"].commands,
    ),
}
