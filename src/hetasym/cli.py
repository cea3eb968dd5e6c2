"""Command-line front end.

Subcommands: simulate, scale, phase-deviation, keyrate-sweep, tomography,
fidelity.  The command line names files only: the inputs, ``--config`` and
``--out``; every value comes from the config file or ``HETASYM_<KEY>``.
Every command is deterministic under a fixed config and seed; re-runs
produce byte-identical files.  Exit codes: 0 success, 2 invalid
input or configuration, 3 numerical failure (non-convergence or domain
error).

At module level only the shared modules that need no numpy are imported:
config, csvio and errors.  Each command imports the rest of what it runs
when it is called, so ``--version`` and ``keyrate-sweep`` never load numpy
and no command loads another command's code.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config, render
from .csvio import (
    read_density_csv,
    read_trace_csv,
    write_density_csv,
    write_report,
    write_table,
    write_trace_csv,
    write_wigner_csv,
)
from .errors import NumericalDomainError, ValidationError, non_negative, positive

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
#: Most distances in one sweep: 10**6 by 6 xi_det values take about 35 s and 290 MiB.
_MAX_DISTANCES = 10**6


def cmd_simulate(config: RunConfig, out: str) -> int:
    from .detector import HeterodyneModel, simulate_heterodyne
    from .traces import make_phase_ramp

    phases = make_phase_ramp(config.n_phases, config.pulses_per_phase)
    det = HeterodyneModel(config.asymmetry_percent, config.hybrid_phase_error, config.noise_var)
    trace = simulate_heterodyne(config.amplitude_sq, phases, det, config.seed)
    write_trace_csv(out, trace, "simulate", config)
    print(f"simulate: wrote {trace.n} samples to {out}")
    return EXIT_OK


def _side_path(out: str, suffix: str) -> Path:
    """--out with a trailing .csv dropped and suffix appended: scaled.csv gives
    scaled.report.txt, tomo gives tomo.rho.csv and run.1 gives run.1.report.txt."""
    path = Path(out)
    if not path.name:  # "" and "/" name a directory, not a file
        raise ValidationError(f"--out {out!r} names no file")
    return path.with_name((path.stem if path.suffix == ".csv" else path.name) + suffix)


def _analyze_sweep(config: RunConfig, input_path: str):
    """analyze_sweep of the trace at input_path, at the config's values."""
    from .phase import analyze_sweep

    return analyze_sweep(read_trace_csv(input_path), config.block, config.v_a,
                         config.v_drift_rad2)


def cmd_scale(config: RunConfig, input_path: str, out: str) -> int:
    sweep = _analyze_sweep(config, input_path)
    write_trace_csv(out, sweep.scaled, "scale", config,
                    comments=[("source", Path(input_path).name)])
    report_path = _side_path(out, ".report.txt")
    write_report(report_path, "scale", config, sweep.report())
    print(f"scale: asymmetry {sweep.asymmetry_percent:.2f}%, v_det {sweep.v_det_rad2:.6e} "
          f"rad^2, xi_det {sweep.xi_det_snu:.6f} SNU -> {out}, {report_path}")
    return EXIT_OK


def cmd_phase_deviation(config: RunConfig, input_path: str, out: str) -> int:
    sweep = _analyze_sweep(config, input_path)
    dropped = sweep.undefined_blocks_dropped
    write_table(out, "phase-deviation", config, ["theta_scaled", "delta_theta"],
                sweep.theta_scaled, sweep.delta_theta,
                comments=[("undefined_blocks_dropped", dropped)])
    if dropped:
        print(f"phase-deviation: dropped {dropped} undefined blocks", file=sys.stderr)
    print(f"phase-deviation: wrote {sweep.theta_scaled.size} rows to {out}")
    return EXIT_OK


def cmd_keyrate_sweep(config: RunConfig, out: str) -> int:
    from .keyrate import KeyRateParams, key_rate_curve, max_distance

    positive("distance_step_km", config.distance_step_km)
    non_negative("distance_min_km", config.distance_min_km)
    if config.distance_max_km < config.distance_min_km:
        raise ValidationError(f"distance_max_km must be >= distance_min_km, got "
                              f"{config.distance_max_km} < {config.distance_min_km}")
    xi_values = config.xi_det_list()
    span = (config.distance_max_km - config.distance_min_km) / config.distance_step_km
    # an overflowed (inf) span fails this test too
    if not span < _MAX_DISTANCES:
        raise ValidationError(f"distance_step_km = {config.distance_step_km} is too small: "
                              f"the sweep would have more than {_MAX_DISTANCES} distances")
    # floor, with slack for 0.3 / 0.1 = 2.999..., so no row passes distance_max_km
    steps = math.floor(span + 1e-9)
    distances = [config.distance_min_km + i * config.distance_step_km for i in range(steps + 1)]
    columns, comments = [], []
    for xi in xi_values:
        params = KeyRateParams(
            v_a=config.v_a, beta=config.beta, xi_line=config.xi_line, xi_det=xi,
            eta=config.eta, v_elec=config.v_elec, alpha_db_per_km=config.alpha_db_per_km,
        )
        columns.append(key_rate_curve(params, distances))
        # render writes an unbounded cutoff (math.inf) as "inf"
        comments.append((f"max_distance_km xi_det={render(xi)}", max_distance(params)))
    names = ["distance_km"] + [f"rate_xi_{render(xi)}" for xi in xi_values]
    write_table(out, "keyrate-sweep", config, names, distances, *columns,
                comments=comments)
    print(f"keyrate-sweep: {len(distances)} distances x {len(xi_values)} xi_det -> {out}")
    return EXIT_OK


def cmd_tomography(config: RunConfig, input_path: str, out: str) -> int:
    from .tomography import analyze_tomography

    rho_path, wig_path, report_path = (_side_path(out, suffix)
                                       for suffix in (".rho.csv", ".wigner.csv", ".report.txt"))
    analysis = analyze_tomography(read_trace_csv(input_path), config.dim,
                                  config.use_true_phase, config.block, config.amplitude_scale,
                                  config.max_iter, config.tol, config.wigner_extent,
                                  config.wigner_points)
    result = analysis.result
    write_density_csv(rho_path, result.rho, "tomography", config)
    write_wigner_csv(wig_path, analysis.grid, "tomography", config)
    write_report(report_path, "tomography", config, analysis.report())
    print(f"tomography: fidelity(sqrt) {analysis.fidelity_sqrt:.4f}, "
          f"converged={result.converged} -> {rho_path}, {wig_path}, {report_path}")
    if not result.converged:
        print(f"tomography: optimality gap {result.gap:.3e} not certified below tol "
              f"{config.tol:g} after {result.iterations} iterations (outputs retained)",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_fidelity(rho_path: str, sigma_path: str) -> int:
    from .tomography import fidelity

    rho = read_density_csv(rho_path)
    sigma = read_density_csv(sigma_path)
    value = fidelity(rho, sigma)
    print(f"fidelity_sqrt = {render(value)}")
    print(f"fidelity_squared = {render(value * value)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetasym",
        description="Detector-asymmetry analysis for LLO CV-QKD heterodyne receivers.",
    )
    parser.add_argument("--version", action="version", version=f"hetasym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--out", metavar="PATH", default="out.csv",
                       help="output path (or prefix for tomography)")
        return p

    command("simulate", "simulate a phase-swept heterodyne trace")
    command("scale", "symmetrize a trace and report the asymmetry budget").add_argument(
        "input", help="trace CSV")
    command("phase-deviation", "asymmetric-vs-scaled phase deviation rows").add_argument(
        "input", help="trace CSV")
    command("keyrate-sweep", "rate vs distance for a set of xi_det values")
    command("tomography", "MLE reconstruction, Wigner grid and fidelity report").add_argument(
        "input", help="trace CSV")

    p = sub.add_parser("fidelity", help="fidelity between two stored density matrices")
    p.add_argument("rho", help="density-matrix CSV")
    p.add_argument("sigma", help="density-matrix CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fidelity":
            return cmd_fidelity(args.rho, args.sigma)
        config = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(config, args.out)
        if args.command == "scale":
            return cmd_scale(config, args.input, args.out)
        if args.command == "phase-deviation":
            return cmd_phase_deviation(config, args.input, args.out)
        if args.command == "keyrate-sweep":
            return cmd_keyrate_sweep(config, args.out)
        # argparse has already rejected any command not named above
        return cmd_tomography(config, args.input, args.out)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalDomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
