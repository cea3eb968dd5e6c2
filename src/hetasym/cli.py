"""Command-line front end.

Subcommands: simulate, scale, phase-deviation, keyrate-sweep, tomography,
fidelity.  Every command is deterministic under a fixed config and seed;
re-runs produce byte-identical files.  Exit codes: 0 success, 2 invalid
input or configuration, 3 numerical failure (non-convergence or domain
error).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .csvio import (
    CsvLines,
    fmt,
    header_lines,
    read_density_csv,
    read_trace_csv,
    write_density_csv,
    write_lines,
    write_report,
    write_trace_csv,
    write_wigner_csv,
)
from .detector import HeterodyneModel, gains_from_percent, percent_difference, simulate_heterodyne
from .errors import NumericalDomainError, ValidationError
from .keyrate import KeyRateParams, key_rate_curve, max_distance
from .phase import (
    PhaseNoiseBudget,
    detection_phase_variance,
    drift_phase_variance,
    estimate_phase,
    excess_noise_from_phase_variance,
    min_max_scale,
    wrap_phase,
)
from .tomography import (
    fidelity,
    fit_coherent,
    ideal_coherent_state,
    mle_reconstruct,
    samples_from_trace,
    wigner,
)
from .traces import ReferenceSignalSpec, spans_full_rotation

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _detector_from_config(config: RunConfig) -> HeterodyneModel:
    return HeterodyneModel(
        *gains_from_percent(config.asymmetry_percent),
        hybrid_phase_error=config.hybrid_phase_error,
        shot_noise_var=config.shot_noise_var,
        elec_noise_var=config.elec_noise_var,
    )


def _signal_from_config(config: RunConfig) -> ReferenceSignalSpec:
    return ReferenceSignalSpec.ramp(
        config.amplitude_sq,
        config.n_phases,
        config.phase_start,
        config.phase_stop,
        config.pulses_per_phase,
    )


def cmd_simulate(config: RunConfig) -> int:
    trace = simulate_heterodyne(_signal_from_config(config), _detector_from_config(config),
                                config.seed)
    write_trace_csv(config.out, trace, "simulate", config)
    print(f"simulate: wrote {trace.n} samples to {config.out}")
    return EXIT_OK


def _read_full_sweep(input_path: str):
    """The trace at ``input_path``; when it carries ``phase_true``, the sweep
    must cover a full rotation, because the min-max spans of a partial sweep
    misstate the asymmetry."""
    trace = read_trace_csv(input_path)
    if trace.phase_true is not None and not spans_full_rotation(trace.phase_true):
        raise ValidationError(f"{input_path}: phase_true does not cover a full rotation, "
                              "so the quadrature spans cannot measure the asymmetry")
    return trace


def _paired_block_phases(trace, scaled, block):
    """Block phase estimates of the asymmetric and scaled traces with
    undefined blocks dropped pairwise; returns (scaled, asym, dropped)."""
    est_asym = estimate_phase(trace, block=block)
    est_scaled = estimate_phase(scaled, block=block)
    keep = np.isfinite(est_asym) & np.isfinite(est_scaled)
    return est_scaled[keep], est_asym[keep], int((~keep).sum())


def cmd_scale(config: RunConfig, input_path: str) -> int:
    trace = _read_full_sweep(input_path)
    scaled = min_max_scale(trace)
    span_x = float(trace.x.max() - trace.x.min())
    span_p = float(trace.p.max() - trace.p.min())
    asym_percent = percent_difference(span_x, span_p)
    theta_scaled, theta_asym, dropped = _paired_block_phases(trace, scaled, config.block)
    if theta_scaled.size < 2:
        raise ValidationError("too few defined phase blocks to estimate the detection variance")
    v_det = detection_phase_variance(theta_scaled, theta_asym)
    xi_det = excess_noise_from_phase_variance(config.v_a, v_det)
    budget = PhaseNoiseBudget(
        v_drift=drift_phase_variance(config.linewidth_a, config.linewidth_b,
                                     config.pulse_separation),
        v_det=v_det,
    )
    write_trace_csv(config.out, scaled, "scale", config,
                    extra_comments=[f"source: {Path(input_path).name}"])
    report_path = Path(config.out).with_suffix(".report.txt")
    entries = [
        ("span_x", fmt(span_x)),
        ("span_p", fmt(span_p)),
        ("asymmetry_percent", fmt(asym_percent)),
        ("undefined_blocks_dropped", str(dropped)),
        ("v_det_rad2", fmt(v_det)),
        ("xi_det_snu", fmt(xi_det)),
        ("v_drift_rad2", fmt(budget.v_drift)),
        ("v_total_rad2", fmt(budget.v_total)),
        ("xi_total_snu", fmt(budget.excess_noise(config.v_a))),
    ]
    write_report(report_path, "scale", config, entries)
    print(f"scale: asymmetry {asym_percent:.2f}%, v_det {v_det:.6e} rad^2, "
          f"xi_det {xi_det:.6f} SNU -> {config.out}, {report_path}")
    return EXIT_OK


def cmd_phase_deviation(config: RunConfig, input_path: str) -> int:
    trace = _read_full_sweep(input_path)
    scaled = min_max_scale(trace)
    theta_scaled, theta_asym, dropped = _paired_block_phases(trace, scaled, config.block)
    delta = wrap_phase(theta_asym - theta_scaled)
    lines = header_lines("phase-deviation", config)
    lines.append(f"# undefined_blocks_skipped: {dropped}")
    lines.append("theta_scaled,delta_theta")
    write_lines(config.out, CsvLines(lines, theta_scaled, delta))
    if dropped:
        print(f"phase-deviation: skipped {dropped} undefined blocks", file=sys.stderr)
    print(f"phase-deviation: wrote {theta_scaled.size} rows to {config.out}")
    return EXIT_OK


def cmd_keyrate_sweep(config: RunConfig) -> int:
    if not (config.distance_step_km > 0) or config.distance_max_km < config.distance_min_km:
        raise ValidationError("bad distance grid")
    xi_values = config.xi_det_list()
    # floor, with slack for 0.3 / 0.1 = 2.999..., so no row passes distance_max_km
    steps = math.floor((config.distance_max_km - config.distance_min_km)
                       / config.distance_step_km + 1e-9)
    distances = [config.distance_min_km + i * config.distance_step_km for i in range(steps + 1)]
    lines = header_lines("keyrate-sweep", config)
    columns = []
    for xi in xi_values:
        params = KeyRateParams(
            v_a=config.v_a, beta=config.beta, xi_line=config.xi_line, xi_det=xi,
            eta=config.eta, v_elec=config.v_elec, alpha_db_per_km=config.alpha_db_per_km,
        )
        columns.append(key_rate_curve(params, distances))
        # fmt renders an unbounded cutoff (math.inf) as "inf"
        cutoff = max_distance(params, config.max_distance_resolution_km)
        lines.append(f"# max_distance_km xi_det={fmt(xi)}: {fmt(cutoff)}")
    lines.append("distance_km," + ",".join(f"rate_xi_{fmt(xi)}" for xi in xi_values))
    write_lines(config.out, CsvLines(lines, distances, *columns))
    print(f"keyrate-sweep: {len(distances)} distances x {len(xi_values)} xi_det -> {config.out}")
    return EXIT_OK


def cmd_tomography(config: RunConfig, input_path: str) -> int:
    trace = read_trace_csv(input_path)
    samples = samples_from_trace(
        trace,
        use_true_phase=config.use_true_phase,
        block=config.block,
        amplitude_scale=config.amplitude_scale,
    )
    result = mle_reconstruct(samples, config.dim, max_iter=config.max_iter, tol=config.tol)
    alpha_fit = fit_coherent(result.rho)
    reference = ideal_coherent_state(alpha_fit, config.dim)
    fid_sqrt = fidelity(result.rho, reference, "sqrt")
    fid_squared = fidelity(result.rho, reference, "squared")
    axis = np.linspace(-config.wigner_extent, config.wigner_extent, config.wigner_points)
    grid = wigner(result.rho, axis, axis)

    out_base = Path(config.out)
    rho_path = out_base.with_suffix(".rho.csv")
    wig_path = out_base.with_suffix(".wigner.csv")
    report_path = out_base.with_suffix(".report.txt")
    diag = [f"converged: {str(result.converged).lower()}", f"iterations: {result.iterations}"]
    write_density_csv(rho_path, result.rho, "tomography", config, extra_comments=diag)
    write_wigner_csv(wig_path, grid, "tomography", config, extra_comments=diag)
    entries = [
        ("alpha_fit_re", fmt(alpha_fit.real)),
        ("alpha_fit_im", fmt(alpha_fit.imag)),
        ("fidelity_sqrt", fmt(fid_sqrt)),
        ("fidelity_squared", fmt(fid_squared)),
        ("converged", "true" if result.converged else "false"),
        ("iterations", str(result.iterations)),
        ("final_log_likelihood", fmt(result.log_likelihood[-1])),
        ("floored_probabilities", str(result.floored)),
        ("samples_dropped", str(2 * trace.n - samples.n)),
        ("engine", "grouped" if result.grouped else "dense"),
        ("rank_one_steps", str(result.rank_one_steps)),
        ("optimality_gap", fmt(result.gap)),
        ("wigner_normalization", fmt(grid.normalization())),
    ]
    write_report(report_path, "tomography", config, entries)
    print(f"tomography: fidelity(sqrt) {fid_sqrt:.4f}, converged={result.converged} "
          f"-> {rho_path}, {wig_path}, {report_path}")
    if not result.converged:
        print(f"tomography: optimality gap {result.gap:.3e} not certified below tol "
              f"{config.tol:g} after {result.iterations} iterations (outputs retained)",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_fidelity(config: RunConfig, rho_path: str, sigma_path: str) -> int:
    rho = read_density_csv(rho_path)
    sigma = read_density_csv(sigma_path)
    value = fidelity(rho, sigma, config.convention)
    print(f"fidelity_{config.convention} = {fmt(value)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetasym",
        description="Detector-asymmetry analysis for LLO CV-QKD heterodyne receivers.",
    )
    parser.add_argument("--version", action="version", version=f"hetasym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--out", metavar="PATH", help="output path (or prefix for tomography)")

    p = sub.add_parser("simulate", help="simulate a phase-swept heterodyne trace")
    common(p)

    p = sub.add_parser("scale", help="symmetrize a trace and report the asymmetry budget")
    common(p)
    p.add_argument("input", help="trace CSV")

    p = sub.add_parser("phase-deviation", help="asymmetric-vs-scaled phase deviation rows")
    common(p)
    p.add_argument("input", help="trace CSV")

    p = sub.add_parser("keyrate-sweep", help="rate vs distance for a set of xi_det values")
    common(p)

    p = sub.add_parser("tomography", help="MLE reconstruction, Wigner grid and fidelity report")
    common(p)
    p.add_argument("input", help="trace CSV")
    p.add_argument("--dim", type=int, metavar="N", help="Fock cutoff + 1")

    p = sub.add_parser("fidelity", help="fidelity between two stored density matrices")
    common(p)
    p.add_argument("rho", help="density-matrix CSV")
    p.add_argument("sigma", help="density-matrix CSV")
    p.add_argument("--convention", choices=("sqrt", "squared"), help="fidelity convention")
    return parser


def _apply_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out = args.out
    if getattr(args, "dim", None) is not None:
        config.dim = args.dim
    if getattr(args, "convention", None) is not None:
        config.convention = args.convention
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _apply_flags(load_config(args.config), args)
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "scale":
            return cmd_scale(config, args.input)
        if args.command == "phase-deviation":
            return cmd_phase_deviation(config, args.input)
        if args.command == "keyrate-sweep":
            return cmd_keyrate_sweep(config)
        if args.command == "tomography":
            return cmd_tomography(config, args.input)
        if args.command == "fidelity":
            return cmd_fidelity(config, args.rho, args.sigma)
        raise ValidationError(f"unknown command {args.command!r}")
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalDomainError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
