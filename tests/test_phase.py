import math

import numpy as np
import pytest

from hetasym import (
    NumericalDomainError,
    QuadratureTrace,
    ValidationError,
    detection_phase_variance,
    drift_phase_variance,
    estimate_phase,
    excess_noise_from_phase_variance,
    gains_from_percent,
    make_phase_ramp,
    min_max_scale,
    phase_variance_from_excess_noise,
    wrap_phase,
)

TWO_PI = 2.0 * math.pi

MEASURED_XI_DET = {33.77: 0.1091, 19.51: 0.0318, 14.29: 0.0140, 4.55: 0.0032, 2.25: 0.0016}


def noiseless_sweep(gain_x: float, n: int = 4096, amplitude: float = 10.0) -> QuadratureTrace:
    theta = make_phase_ramp(n)
    return QuadratureTrace(gain_x * amplitude * np.cos(theta),
                           amplitude * np.sin(theta), theta)


def deviation_oracle(gain: float, theta: np.ndarray) -> np.ndarray:
    """Closed-form deviation of the asymmetric estimate from the true phase."""
    return wrap_phase(np.arctan2(np.sin(theta), gain * np.cos(theta)) - theta)


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
        assert estimate_phase(QuadratureTrace([1.0], [1.0]))[0] == pytest.approx(math.pi / 4)
        assert estimate_phase(QuadratureTrace([0.0], [-1.0]))[0] == pytest.approx(-math.pi / 2)

    def test_noiseless_asymmetric_closed_form(self):
        tr = QuadratureTrace([0.8667 * np.cos(math.pi / 4)], [np.sin(math.pi / 4)])
        assert estimate_phase(tr)[0] == pytest.approx(math.atan(1.0 / 0.8667), abs=1e-12)
        assert estimate_phase(tr)[0] == pytest.approx(0.8567, abs=1e-4)

    def test_exact_for_symmetric_noiseless_sweep(self):
        theta = wrap_phase(-math.pi + 1e-9 + make_phase_ramp(719))
        tr = QuadratureTrace(3.0 * np.cos(theta), 3.0 * np.sin(theta))
        np.testing.assert_allclose(estimate_phase(tr), theta, atol=1e-12)

    def test_block_averaging(self):
        x = np.array([1.0, 1.0, 0.0, 0.0])
        p = np.array([0.0, 0.0, 2.0, 2.0])
        est = estimate_phase(QuadratureTrace(x, p), block=2)
        np.testing.assert_allclose(est, [0.0, math.pi / 2])

    def test_undefined_block_is_nan(self):
        est = estimate_phase(QuadratureTrace([0.0, 1.0], [0.0, 0.0]))
        assert np.isnan(est[0]) and est[1] == 0.0

    def test_block_validation(self):
        tr = QuadratureTrace([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            estimate_phase(tr, block=2)
        with pytest.raises(ValidationError):
            estimate_phase(tr, block=0)

    @pytest.mark.parametrize("block", [1.5, math.nan, math.inf])
    def test_rejects_non_integer_block(self, block):
        with pytest.raises(ValidationError, match="^block must"):
            estimate_phase(QuadratureTrace([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), block=block)

    def test_range_half_open(self):
        est = estimate_phase(QuadratureTrace([-1.0], [0.0]))
        assert est[0] == pytest.approx(math.pi)


class TestMinMaxScale:
    def test_endpoint_mapping(self):
        tr = QuadratureTrace([0.0, 2.0], [-1.0, 1.0])
        scaled = min_max_scale(tr)
        np.testing.assert_array_equal(scaled.x, [-1.0, 1.0])
        np.testing.assert_array_equal(scaled.p, tr.p)

    def test_direct_evaluation(self):
        scaled = min_max_scale(QuadratureTrace([0.0, 1.0, 2.0], [-3.0, 0.0, 3.0]))
        np.testing.assert_allclose(scaled.x, [-3.0, 0.0, 3.0], atol=1e-12)

    def test_identity_when_ranges_match(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2.0, 2.0, 500)
        x[0], x[1] = -2.0, 2.0
        p = rng.uniform(-2.0, 2.0, 500)
        p[2], p[3] = -2.0, 2.0
        scaled = min_max_scale(QuadratureTrace(x, p))
        np.testing.assert_allclose(scaled.x, x, atol=1e-12)

    def test_exact_extrema(self):
        rng = np.random.default_rng(8)
        tr = QuadratureTrace(rng.normal(0, 3, 1000), rng.normal(0, 1, 1000))
        scaled = min_max_scale(tr)
        assert scaled.x.min() == tr.p.min()
        assert scaled.x.max() == tr.p.max()

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValidationError):
            min_max_scale(QuadratureTrace([1.0, 1.0], [0.0, 1.0]))
        with pytest.raises(ValidationError):
            min_max_scale(QuadratureTrace([1.0], [0.0]))


class TestDriftVariance:
    def test_zero_linewidth(self):
        assert drift_phase_variance(0.0, 0.0, 1e-3) == 0.0

    def test_direct_evaluation(self):
        assert drift_phase_variance(100.0, 100.0, 1e-6) == pytest.approx(
            TWO_PI * 200.0 * 1e-6, rel=1e-12)

    def test_linearity(self):
        full = drift_phase_variance(100.0, 100.0, 1e-6)
        assert drift_phase_variance(100.0, 0.0, 1e-6) == pytest.approx(full / 2.0, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            drift_phase_variance(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 0.0, 1.0), "linewidth_a"), ((0.0, math.inf, 1.0), "linewidth_b"),
        ((1.0, 0.0, math.nan), "pulse_separation"), ((1.0, 0.0, math.inf), "pulse_separation"),
    ])
    def test_rejects_non_finite(self, args, name):
        with pytest.raises(ValidationError, match=f"^{name} must"):
            drift_phase_variance(*args)


class TestDetectionVariance:
    def test_identical_phases(self):
        theta = np.linspace(-3, 3, 50)
        assert detection_phase_variance(theta, theta) == 0.0

    def test_wrap_invariance(self):
        base = np.array([math.pi - 0.1, -math.pi + 0.1, 0.5, -0.5])
        other = np.zeros(4)
        assert detection_phase_variance(base, other) == pytest.approx(
            detection_phase_variance(base - TWO_PI, other), rel=1e-12)

    def test_matches_quadrature_oracle(self):
        # independent oracle: variance of the closed-form deviation integrated
        # over one period with a dense trapezoid rule
        gain, _ = gains_from_percent(14.29)
        fine = np.linspace(0.0, TWO_PI, 1_000_001)
        delta = deviation_oracle(gain, fine)
        mean = np.trapezoid(delta, fine) / TWO_PI
        oracle = np.trapezoid((delta - mean) ** 2, fine) / TWO_PI

        tr = noiseless_sweep(gain)
        est_asym = estimate_phase(tr)
        v_det = detection_phase_variance(tr.phase_true, est_asym)
        assert v_det == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("theta_scaled, theta_asym, message", [
        ([0.1], [0.2], "need at least 2 samples, got 1"),
        ([0.1, math.nan], [0.2, 0.3], "non-finite phase values"),
        ([0.0, 1.0], [0.0], r"sequences differ in length \(2 vs 1\)"),
    ])
    def test_rejects_unusable_phases(self, theta_scaled, theta_asym, message):
        with pytest.raises(ValidationError, match=f"^detection variance: {message}"):
            detection_phase_variance(theta_scaled, theta_asym)

    def test_strictly_ordered_in_asymmetry(self):
        values = []
        for pct in (2.25, 4.55, 14.29, 19.51, 33.77):
            gain, _ = gains_from_percent(pct)
            tr = noiseless_sweep(gain)
            values.append(detection_phase_variance(tr.phase_true, estimate_phase(tr)))
        assert all(a < b for a, b in zip(values, values[1:]))


class TestExcessNoiseConversion:
    def test_zero_variance(self):
        assert excess_noise_from_phase_variance(10.0, 0.0) == 0.0

    def test_measured_level_round_trip(self):
        # derived by inverting the catalogued excess noise at 14.29% asymmetry
        v = phase_variance_from_excess_noise(10.0, 0.0140)
        assert v == pytest.approx(1.40049e-3, rel=1e-4)
        assert excess_noise_from_phase_variance(10.0, v) == pytest.approx(0.0140, abs=1e-4)

    def test_linearity_in_modulation_variance(self):
        v = 2.5e-3
        assert excess_noise_from_phase_variance(20.0, v) == pytest.approx(
            2.0 * excess_noise_from_phase_variance(10.0, v), rel=1e-14)

    def test_ordering_preserved(self):
        xs = np.linspace(0.0, 0.5, 40)
        ys = [excess_noise_from_phase_variance(10.0, v) for v in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))

    def test_inverse_at_zero(self):
        assert phase_variance_from_excess_noise(10.0, 0.0) == 0.0

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v_a = rng.uniform(0.5, 50.0)
            v = rng.uniform(0.0, 2.0)
            xi = excess_noise_from_phase_variance(v_a, v)
            assert phase_variance_from_excess_noise(v_a, xi) == pytest.approx(
                v, rel=1e-12, abs=1e-15)

    def test_measured_levels_self_consistent(self):
        for xi in MEASURED_XI_DET.values():
            back = excess_noise_from_phase_variance(
                10.0, phase_variance_from_excess_noise(10.0, xi))
            assert back == pytest.approx(xi, rel=1e-12)

    @pytest.mark.parametrize("convert, args, name", [
        (excess_noise_from_phase_variance, (0.0, 0.1), "v_a"),
        (excess_noise_from_phase_variance, (math.inf, 0.1), "v_a"),
        (excess_noise_from_phase_variance, (10.0, -0.1), "v"),
        (excess_noise_from_phase_variance, (10.0, math.nan), "v"),
        (excess_noise_from_phase_variance, (10.0, math.inf), "v"),
        (phase_variance_from_excess_noise, (math.nan, 0.1), "v_a"),
        (phase_variance_from_excess_noise, (10.0, -0.1), "xi"),
        (phase_variance_from_excess_noise, (10.0, math.nan), "xi"),
        (phase_variance_from_excess_noise, (10.0, math.inf), "xi"),
    ])
    def test_rejected(self, convert, args, name):
        with pytest.raises(ValidationError, match=f"^{name} must"):
            convert(*args)

    def test_saturation_rejected(self):
        with pytest.raises(NumericalDomainError):
            phase_variance_from_excess_noise(10.0, 20.0)
        with pytest.raises(NumericalDomainError):
            phase_variance_from_excess_noise(10.0, 25.0)


class TestDeviationStructure:
    """Shape of the asymmetric-phase deviation over a noiseless sweep."""

    def analytic_extremum(self, gain: float) -> float:
        # d/dtheta of atan2(sin, g cos) equals 1 where sin^2 = g/(1+g)
        return math.asin(math.sqrt(gain / (1.0 + gain)))

    def test_zeros_at_quarter_turns(self):
        gain, _ = gains_from_percent(14.29)
        for theta in (0.0, math.pi / 2, math.pi, -math.pi / 2):
            assert abs(deviation_oracle(gain, np.array([theta]))[0]) < 1e-12

    def test_extrema_in_central_octants(self):
        theta = make_phase_ramp(14400)
        step = TWO_PI / 14400
        for pct in (2.25, 4.55, 14.29, 19.51, 33.77, 50.2):
            gain, _ = gains_from_percent(pct)
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
        gain, _ = gains_from_percent(14.29)
        offsets = np.linspace(0.01, math.pi / 4, 50)
        for zero in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            left = deviation_oracle(gain, zero - offsets)
            right = deviation_oracle(gain, zero + offsets)
            np.testing.assert_allclose(right, -left, atol=1e-12)

    def test_peak_grows_with_asymmetry(self):
        peaks = []
        for pct in (33.77, 50.2):
            gain, _ = gains_from_percent(pct)
            delta = deviation_oracle(gain, make_phase_ramp(14400))
            peaks.append(np.abs(delta).max())
        assert peaks[1] > peaks[0]


class TestSymmetrizationEfficacy:
    def test_scaling_recovers_true_phase(self):
        for pct in (4.55, 14.29, 33.77):
            gain, _ = gains_from_percent(pct)
            tr = noiseless_sweep(gain)
            scaled = min_max_scale(tr)
            est = estimate_phase(scaled)
            assert detection_phase_variance(est, tr.phase_true) <= 1e-6

    def test_identity_on_symmetric_sweep(self):
        tr = noiseless_sweep(1.0)
        scaled = min_max_scale(tr)
        np.testing.assert_allclose(scaled.x, tr.x, atol=1e-12)
