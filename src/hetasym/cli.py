"""Command-line front end.

Subcommands: simulate, scale, phase-deviation, keyrate-sweep, tomography,
fidelity.  The command line names files only: the inputs, ``--config`` and
``--out``; every value comes from the config file or ``HETASYM_<KEY>``.
Every command is deterministic under a fixed config and seed; re-runs
produce byte-identical files.  Exit codes: 0 success, 2 invalid
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
from .detector import HeterodyneModel, gains_from_percent, percent_difference, simulate_heterodyne
from .errors import NumericalDomainError, ValidationError, integer_at_least, positive
from .keyrate import KeyRateParams, key_rate_curve, max_distance
from .phase import (
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
#: Most distances in one sweep: 10**6 by 6 xi_det values take about 50 s and 300 MiB.
_MAX_DISTANCES = 10**6


def cmd_simulate(config: RunConfig, out: str) -> int:
    signal = ReferenceSignalSpec.ramp(config.amplitude_sq, config.n_phases,
                                      config.pulses_per_phase)
    detector = HeterodyneModel(*gains_from_percent(config.asymmetry_percent),
                               hybrid_phase_error=config.hybrid_phase_error,
                               noise_var=config.noise_var)
    trace = simulate_heterodyne(signal, detector, config.seed)
    write_trace_csv(out, trace, "simulate", config)
    print(f"simulate: wrote {trace.n} samples to {out}")
    return EXIT_OK


def _sweep_phases(config: RunConfig, input_path: str):
    """The trace at ``input_path``, its min-max scaled copy, and the phases
    of their ``config.block``-sample blocks with undefined blocks dropped
    pairwise: (trace, scaled, theta_scaled, theta_asym, dropped).

    The sweep must cover a full rotation densely, because the min-max spans
    of a partial or coarse sweep misstate the asymmetry.  The sweep is
    ``phase_true`` when the trace carries it, and otherwise the defined
    asymmetric block phases.  At least two blocks must have a phase in both
    traces, so the deviation has a variance."""
    trace = read_trace_csv(input_path)
    theta_asym = estimate_phase(trace, config.block)
    if trace.phase_true is not None:
        phases, what = trace.phase_true, "phase_true does"
    else:
        phases, what = theta_asym[np.isfinite(theta_asym)], "the estimated block phases do"
    if not spans_full_rotation(phases):
        raise ValidationError(f"{input_path}: {what} not cover a full rotation densely "
                              "enough for the quadrature spans to measure the asymmetry")
    scaled = min_max_scale(trace)
    theta_scaled = estimate_phase(scaled, config.block)
    keep = np.isfinite(theta_asym) & np.isfinite(theta_scaled)
    defined = int(keep.sum())
    if defined < 2:
        raise ValidationError(f"{input_path}: too few defined phase blocks: {defined} of "
                              f"{keep.size} have a phase before and after scaling, and the "
                              "phase deviation needs at least 2")
    return trace, scaled, theta_scaled[keep], theta_asym[keep], keep.size - defined


def cmd_scale(config: RunConfig, input_path: str, out: str) -> int:
    trace, scaled, theta_scaled, theta_asym, dropped = _sweep_phases(config, input_path)
    span_x = float(trace.x.max() - trace.x.min())
    span_p = float(trace.p.max() - trace.p.min())
    asym_percent = percent_difference(span_x, span_p)
    v_det = detection_phase_variance(theta_scaled, theta_asym)
    xi_det = excess_noise_from_phase_variance(config.v_a, v_det)
    v_drift = drift_phase_variance(config.linewidth_a, config.linewidth_b,
                                   config.pulse_separation)
    v_total = v_drift + v_det
    xi_total = excess_noise_from_phase_variance(config.v_a, v_total)
    write_trace_csv(out, scaled, "scale", config, comments=[("source", Path(input_path).name)])
    report_path = Path(out).with_suffix(".report.txt")
    entries = [
        ("span_x", span_x),
        ("span_p", span_p),
        ("asymmetry_percent", asym_percent),
        ("undefined_blocks_dropped", dropped),
        ("v_det_rad2", v_det),
        ("xi_det_snu", xi_det),
        ("v_drift_rad2", v_drift),
        ("v_total_rad2", v_total),
        ("xi_total_snu", xi_total),
    ]
    write_report(report_path, "scale", config, entries)
    print(f"scale: asymmetry {asym_percent:.2f}%, v_det {v_det:.6e} rad^2, "
          f"xi_det {xi_det:.6f} SNU -> {out}, {report_path}")
    return EXIT_OK


def cmd_phase_deviation(config: RunConfig, input_path: str, out: str) -> int:
    _, _, theta_scaled, theta_asym, dropped = _sweep_phases(config, input_path)
    delta = wrap_phase(theta_asym - theta_scaled)
    write_table(out, "phase-deviation", config, ["theta_scaled", "delta_theta"],
                theta_scaled, delta, comments=[("undefined_blocks_dropped", dropped)])
    if dropped:
        print(f"phase-deviation: dropped {dropped} undefined blocks", file=sys.stderr)
    print(f"phase-deviation: wrote {theta_scaled.size} rows to {out}")
    return EXIT_OK


def cmd_keyrate_sweep(config: RunConfig, out: str) -> int:
    positive("distance_step_km", config.distance_step_km)
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
    wigner_points = integer_at_least("wigner_points", config.wigner_points, 2)
    positive("wigner_extent", config.wigner_extent)
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
    fid_sqrt = fidelity(result.rho, reference)
    axis = np.linspace(-config.wigner_extent, config.wigner_extent, wigner_points)
    grid = wigner(result.rho, axis, axis)

    out_base = Path(out)
    rho_path = out_base.with_suffix(".rho.csv")
    wig_path = out_base.with_suffix(".wigner.csv")
    report_path = out_base.with_suffix(".report.txt")
    write_density_csv(rho_path, result.rho, "tomography", config)
    write_wigner_csv(wig_path, grid, "tomography", config)
    entries = [
        ("alpha_fit_re", alpha_fit.real),
        ("alpha_fit_im", alpha_fit.imag),
        ("fidelity_sqrt", fid_sqrt),
        ("fidelity_squared", fid_sqrt * fid_sqrt),
        ("converged", result.converged),
        ("iterations", result.iterations),
        ("final_log_likelihood", result.log_likelihood[-1]),
        ("floored_probabilities", result.floored),
        ("samples_dropped", 2 * trace.n - samples.n),
        ("engine", "grouped" if result.grouped else "dense"),
        ("rank_one_steps", result.rank_one_steps),
        ("optimality_gap", result.gap),
        ("wigner_normalization", grid.normalization()),
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


def cmd_fidelity(rho_path: str, sigma_path: str) -> int:
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
