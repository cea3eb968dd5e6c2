"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values.  Tolerances are pinned here, not configurable.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np

from hetasym import (
    HeterodyneModel,
    KeyRateParams,
    analyze_tomography,
    fidelity,
    key_rate,
    make_phase_ramp,
    max_distance,
    simulate_heterodyne,
)
from hetasym.cli import main as cli_main
from hetasym.detector import _gain_from_percent, _percent_difference
from hetasym.phase import (
    _estimate_phase,
    _excess_noise_from_phase_variance,
    _min_max_scale,
    wrap_phase,
)
from hetasym.tomography import DensityMatrix, _ideal_coherent_state, _wigner
from measured import MEASURED_LEVELS, MEASURED_XI_DET, deviation_oracle, deviation_variance

TWO_PI = 2.0 * math.pi

FIG_PARAMS = dict(v_a=10.0, beta=0.93, xi_line=0.02, eta=0.68, v_elec=0.1,
                  alpha_db_per_km=0.2)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: PASS ({detail})")


def noiseless_sweep(percent: float, n: int = 7200) -> "QuadratureTrace":
    det = HeterodyneModel(asymmetry_percent=percent, noise_var=1e-30)
    return simulate_heterodyne(100.0, make_phase_ramp(n), det, 1)


def test_criterion_1_percentage_difference_round_trip():
    start = time.perf_counter()
    large = _percent_difference(0.45, 0.32)
    small = _percent_difference(0.45, 0.39)
    elapsed = time.perf_counter() - start
    assert abs(large - 33.77) <= 0.005
    assert abs(small - 14.29) <= 0.005
    assert elapsed < 1e-3
    report(1, f"33.77 -> {large:.4f}, 14.29 -> {small:.4f}, {elapsed * 1e6:.0f} us")


def test_criterion_2_excess_noise_inversion_and_ordering():
    for xi in MEASURED_XI_DET:
        v = -2.0 * math.log1p(-xi / (2.0 * 10.0))  # the inverse map, v = -2 ln(1 - xi / 2 V_A)
        back = _excess_noise_from_phase_variance(10.0, v)
        assert abs(back - xi) / xi <= 1e-12
    variances = []
    for percent in sorted(MEASURED_LEVELS):
        trace = noiseless_sweep(percent)
        scaled = _min_max_scale(trace)
        variances.append(deviation_variance(_estimate_phase(scaled), _estimate_phase(trace)))
    assert all(a < b for a, b in zip(variances, variances[1:]))
    report(2, "round trips exact to 1e-12; sweep V_det strictly ordered: "
              + ", ".join(f"{v:.3e}" for v in variances))


def test_criterion_3_keyrate_figure_properties():
    start = time.perf_counter()
    xi_values = [0.0, 0.0016, 0.0032, 0.0140, 0.0318, 0.1091]
    distances = np.arange(0.0, 61.0, 1.0)
    base = KeyRateParams(**FIG_PARAMS)
    columns = []
    for xi in xi_values:
        breakdowns = [key_rate(replace(base, xi_det=xi), d) for d in distances]
        # (d) physicality across the whole sweep
        for b in breakdowns:
            assert all(lam >= 1.0 - 1e-9 for lam in b.lambdas)
        columns.append([b.rate_per_symbol for b in breakdowns])
    # (a) all rates positive back to back
    assert all(col[0] > 0.0 for col in columns)
    # (b) strictly decreasing in xi_det at every grid point
    for i in range(len(distances)):
        for lo, hi in zip(columns, columns[1:]):
            assert hi[i] < lo[i]
    # (c) max_distance strictly decreasing across the six xi values
    cutoffs = [max_distance(replace(base, xi_det=xi)) for xi in xi_values]
    assert all(math.isfinite(c) for c in cutoffs)
    assert all(a > b for a, b in zip(cutoffs, cutoffs[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, "cutoffs_km = " + ", ".join(f"{c:.2f}" for c in cutoffs)
              + f"; {elapsed:.2f} s")


def test_criterion_4_pure_state_holevo():
    for eta in (1.0, 0.68):
        for v_elec in (0.0, 0.1):
            pure = KeyRateParams(v_a=10.0, xi_line=0.0, xi_det=0.0, eta=eta,
                                 v_elec=v_elec, alpha_db_per_km=0.0)
            assert key_rate(pure, 0.0).holevo < 1e-9
    params = KeyRateParams(v_a=10.0, beta=0.93, xi_line=0.0, xi_det=0.0,
                           eta=1.0, v_elec=0.0, alpha_db_per_km=0.0)
    rate = key_rate(params, 0.0).rate_per_symbol
    expected = 0.93 * 0.5 * math.log2(11.0)
    assert abs(rate - expected) < 1e-9
    report(4, f"chi(B;E) < 1e-9 at T=1; r = {rate:.6f} vs {expected:.6f} bits/symbol")


def test_criterion_5_phase_deviation_structure():
    gain = _gain_from_percent(14.29)
    # zeros at multiples of pi/2
    zeros = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert np.all(np.abs(deviation_oracle(gain, zeros)) <= 1e-9)
    # odd symmetry about each zero
    offsets = np.linspace(0.01, math.pi / 4, 200)
    for zero in zeros:
        assert np.max(np.abs(deviation_oracle(gain, zero + offsets)
                             + deviation_oracle(gain, zero - offsets))) <= 1e-9
    # extrema confined to (pi/8, 3pi/8) modulo pi/2
    theta = np.linspace(0.0, TWO_PI, 28801)
    delta = deviation_oracle(gain, theta)
    grad = np.diff(delta)
    extrema = theta[1:-1][np.sign(grad[:-1]) != np.sign(grad[1:])]
    assert extrema.size > 0
    locations = extrema % (math.pi / 2.0)
    assert np.all((locations > math.pi / 8) & (locations < 3 * math.pi / 8))
    # the same structure measured through the estimator pipeline
    trace = noiseless_sweep(14.29)
    est = _estimate_phase(trace)
    pipeline_delta = wrap_phase(est - trace.phase_true)
    peak_loc = trace.phase_true[np.argmax(np.abs(pipeline_delta))] % (math.pi / 2)
    assert math.pi / 8 < peak_loc < 3 * math.pi / 8
    # larger asymmetry deviates more
    gain_50 = _gain_from_percent(50.2)
    gain_33 = _gain_from_percent(33.77)
    peak_50 = np.abs(deviation_oracle(gain_50, theta)).max()
    peak_33 = np.abs(deviation_oracle(gain_33, theta)).max()
    assert peak_50 > peak_33
    report(5, f"peak at {peak_loc:.4f} rad (mod pi/2); "
              f"peak(50.2%) = {peak_50:.4f} > peak(33.77%) = {peak_33:.4f}")


def test_criterion_6_symmetrization_efficacy():
    worst = 0.0
    for percent in MEASURED_LEVELS:
        trace = noiseless_sweep(percent)
        scaled = _min_max_scale(trace)
        v_det = deviation_variance(_estimate_phase(scaled), trace.phase_true)
        worst = max(worst, v_det)
        assert v_det <= 1e-6
    symmetric = noiseless_sweep(0.0)
    rescaled = _min_max_scale(symmetric)
    assert np.max(np.abs(rescaled.x - symmetric.x)) <= 1e-12
    report(6, f"worst residual V_det = {worst:.3e} rad^2; identity on symmetric data")


def test_criterion_7_tomography_desk_scale():
    start = time.perf_counter()
    # The reference signal is simulated at its monitored level (552 SNU) and
    # normalized on ingestion so the reconstruction works at alpha = 2 in a
    # dim = 25 Fock space; 5e4 heterodyne shots give 1e5 quadrature samples.
    amplitude_sq = 552.0
    scale = math.sqrt(amplitude_sq) / 4.0
    phases = make_phase_ramp(200, pulses_per_phase=250)

    def analyze(trace):
        analysis = analyze_tomography(trace, 25, amplitude_scale=scale, max_iter=300, tol=1e-9)
        # two quadrature samples a shot, none dropped
        assert 2 * trace.n - analysis.samples_dropped == 100_000
        return analysis

    sym_trace = simulate_heterodyne(amplitude_sq, phases, HeterodyneModel(), 20250808)
    asym_trace = simulate_heterodyne(amplitude_sq, phases, HeterodyneModel(14.29), 20250808)
    scaled_trace = _min_max_scale(asym_trace)

    sym, asym, scaled = analyze(sym_trace), analyze(asym_trace), analyze(scaled_trace)
    fid_sym, fid_asym, fid_scaled = sym.fidelity_sqrt, asym.fidelity_sqrt, scaled.fidelity_sqrt

    # (a) symmetric reconstruction
    assert fid_sym > 0.99
    # (b) asymmetry degrades the fit; symmetrization restores it
    assert fid_asym < fid_scaled
    assert fid_scaled > 0.99
    # (c) log-likelihood non-decreasing at every iteration of every run
    for analysis in (sym, asym, scaled):
        assert np.all(np.diff(analysis.result.log_likelihood) >= 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"fidelities sym/asym/scaled = {fid_sym:.5f}/{fid_asym:.5f}/"
              f"{fid_scaled:.5f}; {elapsed:.1f} s")


def test_criterion_8_wigner_sanity():
    axis = np.linspace(-6.0, 6.0, 241)
    centre = 120
    vacuum = _wigner(_ideal_coherent_state(0.0, 10), axis, axis)
    assert abs(vacuum.values[centre, centre] - 1.0 / math.pi) <= 1e-6
    single = np.zeros((10, 10), dtype=complex)
    single[1, 1] = 1.0
    photon = _wigner(DensityMatrix(single), axis, axis)
    assert abs(photon.values[centre, centre] + 1.0 / math.pi) <= 1e-6
    norms = []
    for grid in (vacuum, photon):
        norms.append(grid.normalization())
        assert 0.98 <= norms[-1] <= 1.001
    report(8, f"W_vac(0,0) = {vacuum.values[centre, centre]:.6f}, "
              f"W_1(0,0) = {photon.values[centre, centre]:.6f}, norms = "
              + ", ".join(f"{n:.4f}" for n in norms))


def test_criterion_9_fidelity_metric():
    rng = np.random.default_rng(90)
    for _ in range(20):
        dim = int(rng.integers(2, 16))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = raw @ raw.conj().T
        mat /= np.trace(mat).real
        rho = DensityMatrix(mat)
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-9
    zero = np.zeros((6, 6), dtype=complex)
    one = zero.copy()
    zero[0, 0] = 1.0
    one[1, 1] = 1.0
    assert fidelity(DensityMatrix(zero), DensityMatrix(one)) <= 1e-12
    overlap = fidelity(_ideal_coherent_state(0.0, 20), _ideal_coherent_state(1.0, 20))
    assert abs(overlap - math.exp(-0.5)) <= 1e-6
    report(9, f"self-fidelity exact on 20 states; |<0|a=1>| = {overlap:.6f}")


def test_criterion_10_cli_determinism(tmp_path):
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0, f"command failed: {argv}"

    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        "n_phases = 200\npulses_per_phase = 5\namplitude_sq = 552.0\n"
        "asymmetry_percent = 14.29\nseed = 77\n", encoding="utf-8")
    tomo_cfg = tmp_path / "tomo.cfg"
    tomo_cfg.write_text(
        "dim = 25\nmax_iter = 120\ntol = 1e-8\nwigner_points = 21\n"
        f"amplitude_scale = {math.sqrt(552.0) / 4.0!r}\nseed = 77\n", encoding="utf-8")
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "distance_max_km = 10.0\ndistance_step_km = 2.0\nseed = 77\n", encoding="utf-8")

    outputs = {}
    for attempt in ("one", "two"):
        base = tmp_path / attempt
        base.mkdir()
        run("simulate", "--config", sim_cfg, "--out", base / "trace.csv")
        run("scale", base / "trace.csv", "--config", sim_cfg, "--out", base / "scaled.csv")
        run("phase-deviation", base / "trace.csv", "--config", sim_cfg,
            "--out", base / "dev.csv")
        run("keyrate-sweep", "--config", sweep_cfg, "--out", base / "rates.csv")
        run("tomography", base / "trace.csv", "--config", tomo_cfg,
            "--out", base / "tomo")
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            run("fidelity", base / "tomo.rho.csv", base / "tomo.rho.csv")
        produced = sorted(p for p in base.iterdir() if p.is_file())
        outputs[attempt] = ([(p.name, p.read_bytes()) for p in produced],
                            stdout.getvalue())
    assert outputs["one"] == outputs["two"]
    names = [name for name, _ in outputs["one"][0]]
    assert {"trace.csv", "scaled.csv", "scaled.report.txt", "dev.csv", "rates.csv",
            "tomo.rho.csv", "tomo.wigner.csv", "tomo.report.txt"} <= set(names)
    report(10, f"{len(names)} output files byte-identical across reruns")
