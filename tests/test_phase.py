import math
import re
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest

from hetasym import (
    HeterodyneModel,
    QuadratureTrace,
    ValidationError,
    analyze_sweep,
    make_phase_ramp,
    simulate_heterodyne,
)
from hetasym.cli import main
from hetasym.config import RunConfig, render
from hetasym.csvio import read_trace_csv, write_trace_csv
from hetasym.detector import _gain_from_percent
from hetasym.phase import (
    SweepAnalysis,
    _estimate_phase,
    _excess_noise_from_phase_variance,
    _min_max_scale,
    wrap_phase,
)
from measured import MEASURED_LEVELS, MEASURED_XI_DET, deviation_oracle, deviation_variance

TWO_PI = 2.0 * math.pi


def noiseless_sweep(gain_x: float, n: int = 4096, amplitude: float = 10.0) -> QuadratureTrace:
    theta = make_phase_ramp(n)
    return QuadratureTrace(gain_x * amplitude * np.cos(theta),
                           amplitude * np.sin(theta), theta)


class TestWrapPhase:
    def test_range_is_half_open(self):
        assert wrap_phase(math.pi) == pytest.approx(math.pi)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)
        assert wrap_phase(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_periodicity(self):
        angles = np.linspace(-10.0, 10.0, 2001)
        np.testing.assert_allclose(wrap_phase(angles + TWO_PI), wrap_phase(angles), atol=1e-12)


class TestEstimatePhase:
    def test_single_sample_quadrants(self):
        assert _estimate_phase(QuadratureTrace([1.0], [1.0]))[0] == pytest.approx(math.pi / 4)
        assert _estimate_phase(QuadratureTrace([0.0], [-1.0]))[0] == pytest.approx(-math.pi / 2)

    def test_noiseless_asymmetric_closed_form(self):
        tr = QuadratureTrace([0.8667 * np.cos(math.pi / 4)], [np.sin(math.pi / 4)])
        assert _estimate_phase(tr)[0] == pytest.approx(math.atan(1.0 / 0.8667), abs=1e-12)
        assert _estimate_phase(tr)[0] == pytest.approx(0.8567, abs=1e-4)

    def test_exact_for_symmetric_noiseless_sweep(self):
        theta = wrap_phase(-math.pi + 1e-9 + make_phase_ramp(719))
        tr = QuadratureTrace(3.0 * np.cos(theta), 3.0 * np.sin(theta))
        np.testing.assert_allclose(_estimate_phase(tr), theta, atol=1e-12)

    def test_block_averaging(self):
        x = np.array([1.0, 1.0, 0.0, 0.0])
        p = np.array([0.0, 0.0, 2.0, 2.0])
        est = _estimate_phase(QuadratureTrace(x, p), block=2)
        np.testing.assert_allclose(est, [0.0, math.pi / 2])

    def test_undefined_block_is_nan(self):
        est = _estimate_phase(QuadratureTrace([0.0, 1.0], [0.0, 0.0]))
        assert np.isnan(est[0]) and est[1] == 0.0

    def test_block_validation(self):
        tr = QuadratureTrace([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            _estimate_phase(tr, block=2)
        with pytest.raises(ValidationError):
            _estimate_phase(tr, block=0)

    @pytest.mark.parametrize("block", [1.5, math.nan, math.inf])
    def test_rejects_non_integer_block(self, block):
        with pytest.raises(ValidationError, match="^block must"):
            _estimate_phase(QuadratureTrace([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), block=block)

    def test_range_half_open(self):
        est = _estimate_phase(QuadratureTrace([-1.0], [0.0]))
        assert est[0] == pytest.approx(math.pi)

    # two 1.5e308 samples in one block used to give an inf mean (and, as
    # inf - inf, a NaN one) with an "overflow encountered in reduce" warning
    @pytest.mark.parametrize("name, column, message", [
        ("x", [1.0, 1.0, 1.5e308, 1.5e308], "x mean of samples 2..3 overflows float64 "
                                            "(largest |x| 1.5e+308)"),
        ("p", [1.0, 1.0, 1.5e308, 1.5e308], "p mean of samples 2..3 overflows float64 "
                                            "(largest |p| 1.5e+308)"),
        ("x", [-1.5e308, -1.5e308, 1.0, 1.0], "x mean of samples 0..1 overflows"),
    ], ids=["x", "p", "x-negative"])
    def test_overflowing_block_mean_rejected(self, name, column, message):
        other = [1.0, -1.0, 2.0, -2.0]
        x, p = (column, other) if name == "x" else (other, column)
        with pytest.raises(ValidationError, match=re.escape(message)):
            _estimate_phase(QuadratureTrace(x, p), block=2)

    def test_nan_block_mean_rejected(self):
        # numpy sums 16 values in 8 partial sums, so this block adds inf and -inf
        big = 1.5e308
        x = [big, -big] + [0.0] * 6 + [big, -big] + [0.0] * 6
        with pytest.raises(ValidationError, match=re.escape("x mean of samples 0..15 overflows")):
            _estimate_phase(QuadratureTrace(x, [1.0] * 16), block=16)

    def test_largest_finite_block_mean_accepted(self):
        est = _estimate_phase(QuadratureTrace([8.9e307, 8.9e307], [0.0, 0.0]), block=2)
        assert est[0] == 0.0


class TestMinMaxScale:
    def test_endpoint_mapping(self):
        tr = QuadratureTrace([0.0, 2.0], [-1.0, 1.0])
        scaled = _min_max_scale(tr)
        np.testing.assert_array_equal(scaled.x, [-1.0, 1.0])
        np.testing.assert_array_equal(scaled.p, tr.p)

    def test_direct_evaluation(self):
        scaled = _min_max_scale(QuadratureTrace([0.0, 1.0, 2.0], [-3.0, 0.0, 3.0]))
        np.testing.assert_allclose(scaled.x, [-3.0, 0.0, 3.0], atol=1e-12)

    def test_identity_when_ranges_match(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2.0, 2.0, 500)
        x[0], x[1] = -2.0, 2.0
        p = rng.uniform(-2.0, 2.0, 500)
        p[2], p[3] = -2.0, 2.0
        scaled = _min_max_scale(QuadratureTrace(x, p))
        np.testing.assert_allclose(scaled.x, x, atol=1e-12)

    def test_exact_extrema(self):
        rng = np.random.default_rng(8)
        tr = QuadratureTrace(rng.normal(0, 3, 1000), rng.normal(0, 1, 1000))
        scaled = _min_max_scale(tr)
        assert scaled.x.min() == tr.p.min()
        assert scaled.x.max() == tr.p.max()

    # +-1.7e308 used to give an inf span, so every scaled x read p_min or
    # p_max, with RuntimeWarnings
    @pytest.mark.parametrize("name", ["x", "p"])
    def test_overflowing_span_rejected(self, name):
        column, other = [1.7e308, -1.7e308, 0.0], [1.0, -1.0, 0.5]
        x, p = (column, other) if name == "x" else (other, column)
        message = f"the {name} span 1.7e+308 - -1.7e+308 overflows float64"
        with pytest.raises(ValidationError, match=re.escape(message)):
            _min_max_scale(QuadratureTrace(x, p))

    def test_largest_finite_span_accepted(self):
        big = 8.9e307
        scaled = _min_max_scale(QuadratureTrace([big, -big, 0.0], [-1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(scaled.x, [1.0, -1.0, 0.0])

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValidationError):
            _min_max_scale(QuadratureTrace([1.0, 1.0], [0.0, 1.0]))
        with pytest.raises(ValidationError):
            _min_max_scale(QuadratureTrace([1.0], [0.0]))


class TestDriftVariance:
    """The laser drift v_drift_rad2 is one number that analyze_sweep adds to v_det."""

    @pytest.fixture(scope="class")
    def trace(self):
        return simulate_heterodyne(552.0, make_phase_ramp(400), HeterodyneModel(14.29), 3)

    def test_direct_evaluation(self, trace):
        # two 100 kHz lasers 10 ns apart: 2 pi (1e5 + 1e5) 1e-8 rad^2
        v_drift = TWO_PI * 2e5 * 1e-8
        sweep = analyze_sweep(trace, v_a=12.0, v_drift_rad2=v_drift)
        assert sweep.v_total_rad2 == v_drift + sweep.v_det_rad2
        assert sweep.xi_total_snu == _excess_noise_from_phase_variance(12.0, sweep.v_total_rad2)
        assert analyze_sweep(trace, v_a=12.0).v_total_rad2 == sweep.v_det_rad2

    def test_rejects_negative(self, trace):
        with pytest.raises(ValidationError, match="^v_drift_rad2 must be finite and >= 0"):
            analyze_sweep(trace, v_drift_rad2=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, trace, value):
        with pytest.raises(ValidationError, match="^v_drift_rad2 must be finite and >= 0"):
            analyze_sweep(trace, v_drift_rad2=value)


class TestDetectionVariance:
    def test_identical_phases(self):
        theta = np.linspace(-3, 3, 50)
        assert deviation_variance(theta, theta) == 0.0

    def test_wrap_invariance(self):
        base = np.array([math.pi - 0.1, -math.pi + 0.1, 0.5, -0.5])
        other = np.zeros(4)
        assert deviation_variance(base, other) == pytest.approx(
            deviation_variance(base - TWO_PI, other), rel=1e-12)

    def test_matches_quadrature_oracle(self):
        # The deviation is arg(1 + eps e^{-2i theta}) with eps = (1 - g) / (1 + g)
        # = asymmetry / 200, whose Fourier series gives v_det = 1/2 Li2(eps^2)
        # exactly.  A dense trapezoid rule over one period checks that closed
        # form; v_det of a noiseless full sweep, from phase_true and (through
        # analyze_sweep) from the min-max scaled trace alike, must equal it to
        # rounding (measured worst 1.0e-14 relative)
        fine = np.linspace(0.0, TWO_PI, 1_000_001)
        for percent in MEASURED_LEVELS:
            gain = _gain_from_percent(percent)
            with mp.workdps(30):
                closed = float(mp.polylog(2, (mp.mpf(percent) / 200) ** 2) / 2)
            delta = deviation_oracle(gain, fine)
            mean = np.trapezoid(delta, fine) / TWO_PI
            assert np.trapezoid((delta - mean) ** 2, fine) / TWO_PI == pytest.approx(
                closed, rel=1e-6)

            tr = noiseless_sweep(gain)
            assert deviation_variance(tr.phase_true, _estimate_phase(tr)) == pytest.approx(
                closed, rel=1e-13)
            assert analyze_sweep(tr).v_det_rad2 == pytest.approx(closed, rel=1e-13)

    def test_strictly_ordered_in_asymmetry(self):
        values = []
        for pct in (2.25, 4.55, 14.29, 19.51, 33.77):
            gain = _gain_from_percent(pct)
            tr = noiseless_sweep(gain)
            values.append(deviation_variance(tr.phase_true, _estimate_phase(tr)))
        assert all(a < b for a, b in zip(values, values[1:]))


def phase_variance_oracle(v_a: float, xi: float) -> float:
    """The inverse of the excess-noise map: v = -2 ln(1 - xi / (2 v_A))."""
    return -2.0 * math.log1p(-xi / (2.0 * v_a))


class TestExcessNoiseConversion:
    def test_zero_variance(self):
        assert _excess_noise_from_phase_variance(10.0, 0.0) == 0.0

    def test_measured_level_round_trip(self):
        # derived by inverting the catalogued excess noise at 14.29% asymmetry
        v = phase_variance_oracle(10.0, 0.0140)
        assert v == pytest.approx(1.40049e-3, rel=1e-4)
        assert _excess_noise_from_phase_variance(10.0, v) == pytest.approx(0.0140, abs=1e-4)

    def test_linearity_in_modulation_variance(self):
        v = 2.5e-3
        assert _excess_noise_from_phase_variance(20.0, v) == pytest.approx(
            2.0 * _excess_noise_from_phase_variance(10.0, v), rel=1e-14)

    def test_ordering_preserved(self):
        xs = np.linspace(0.0, 0.5, 40)
        ys = [_excess_noise_from_phase_variance(10.0, v) for v in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v_a = rng.uniform(0.5, 50.0)
            v = rng.uniform(0.0, 2.0)
            xi = _excess_noise_from_phase_variance(v_a, v)
            assert phase_variance_oracle(v_a, xi) == pytest.approx(
                v, rel=1e-12, abs=1e-15)

    def test_measured_levels_self_consistent(self):
        for xi in MEASURED_XI_DET:
            back = _excess_noise_from_phase_variance(
                10.0, phase_variance_oracle(10.0, xi))
            assert back == pytest.approx(xi, rel=1e-12)

    @pytest.mark.parametrize("v_a", [0.0, math.inf])
    def test_rejects_modulation_variance(self, v_a):
        with pytest.raises(ValidationError, match="^v_a must"):
            _excess_noise_from_phase_variance(v_a, 0.1)

    @pytest.mark.parametrize("v", [-0.1, math.nan, math.inf])
    def test_rejects_variance(self, v):
        # an infinite v would give the plausible-looking xi = 2 v_A
        with pytest.raises(ValidationError, match="^v must"):
            _excess_noise_from_phase_variance(10.0, v)


class TestDeviationStructure:
    """Shape of the asymmetric-phase deviation over a noiseless sweep."""

    def analytic_extremum(self, gain: float) -> float:
        # d/dtheta of atan2(sin, g cos) equals 1 where sin^2 = g/(1+g)
        return math.asin(math.sqrt(gain / (1.0 + gain)))

    def test_zeros_at_quarter_turns(self):
        gain = _gain_from_percent(14.29)
        for theta in (0.0, math.pi / 2, math.pi, -math.pi / 2):
            assert abs(deviation_oracle(gain, np.array([theta]))[0]) < 1e-12

    def test_extrema_in_central_octants(self):
        theta = make_phase_ramp(14400)
        step = TWO_PI / 14400
        for pct in (2.25, 4.55, 14.29, 19.51, 33.77, 50.2):
            gain = _gain_from_percent(pct)
            delta = deviation_oracle(gain, theta)
            grad = np.diff(delta)
            extrema = theta[1:-1][np.sign(grad[:-1]) != np.sign(grad[1:])]
            assert extrema.size == 4  # one per quadrant
            for loc in extrema % (math.pi / 2.0):
                assert math.pi / 8 < loc < 3 * math.pi / 8
            star = self.analytic_extremum(gain)
            predicted = np.array([star, math.pi - star, math.pi + star, TWO_PI - star])
            np.testing.assert_allclose(np.sort(extrema), np.sort(predicted), atol=2 * step)

    def test_odd_symmetry_about_zeros(self):
        gain = _gain_from_percent(14.29)
        offsets = np.linspace(0.01, math.pi / 4, 50)
        for zero in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            left = deviation_oracle(gain, zero - offsets)
            right = deviation_oracle(gain, zero + offsets)
            np.testing.assert_allclose(right, -left, atol=1e-12)

    def test_peak_grows_with_asymmetry(self):
        peaks = []
        for pct in (33.77, 50.2):
            gain = _gain_from_percent(pct)
            delta = deviation_oracle(gain, make_phase_ramp(14400))
            peaks.append(np.abs(delta).max())
        assert peaks[1] > peaks[0]


class TestSymmetrizationEfficacy:
    def test_scaling_recovers_true_phase(self):
        for pct in (4.55, 14.29, 33.77):
            gain = _gain_from_percent(pct)
            tr = noiseless_sweep(gain)
            scaled = _min_max_scale(tr)
            est = _estimate_phase(scaled)
            assert deviation_variance(est, tr.phase_true) <= 1e-6

    def test_identity_on_symmetric_sweep(self):
        tr = noiseless_sweep(1.0)
        scaled = _min_max_scale(tr)
        np.testing.assert_allclose(scaled.x, tr.x, atol=1e-12)


class TestAnalyzeSweep:
    """analyze_sweep is the analysis that scale and phase-deviation run."""

    def write_sweep(self, tmp_path, phases):
        """A 14.29 % asymmetric trace at the default seed, written as simulate does."""
        trace = simulate_heterodyne(552.0, phases, HeterodyneModel(14.29),
                                    RunConfig.seed)
        raw = tmp_path / "raw.csv"
        write_trace_csv(raw, trace, "simulate", RunConfig())
        return trace, raw

    def test_partial_sweep_raises_the_cli_message(self, tmp_path, capsys):
        # 0.4 pi of a turn: the stages of analyze_sweep read 40.34 % and
        # xi_det 0.081 from it
        trace, raw = self.write_sweep(tmp_path, make_phase_ramp(10_000)[:2000])
        assert main(["scale", str(raw), "--out", str(tmp_path / "scaled.csv")]) == 2
        with pytest.raises(ValidationError, match="not cover a full rotation") as raised:
            analyze_sweep(trace)
        assert capsys.readouterr().err == f"error: {raised.value}\n"

    def test_report_is_the_result_fields(self, tmp_path):
        _, raw = self.write_sweep(tmp_path, make_phase_ramp(2000))
        drift = {"v_drift_rad2": 0.0754}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in
                               {"block": 2, "v_a": 12.0, **drift}.items()), encoding="utf-8")
        assert main(["scale", str(raw), "--config", str(cfg),
                     "--out", str(tmp_path / "scaled.csv")]) == 0
        report = [line.split(" = ", 1) for line in
                  (tmp_path / "scaled.report.txt").read_text().splitlines()
                  if not line.startswith("#")]
        sweep = analyze_sweep(read_trace_csv(raw), block=2, v_a=12.0, **drift)
        names = [field.name for field in fields(SweepAnalysis)]
        assert names[:3] == ["scaled", "theta_scaled", "delta_theta"]
        assert [key for key, _ in report] == names[3:]
        assert [value for _, value in report] == [render(getattr(sweep, key))
                                                  for key, _ in report]
