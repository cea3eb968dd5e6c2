import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetasym import (
    HeterodyneModel,
    ReferenceSignalSpec,
    ValidationError,
    gains_from_percent,
    percent_difference,
    simulate_heterodyne,
)

TWO_PI = 2.0 * math.pi


class TestPercentDifference:
    def test_identity_case(self):
        assert percent_difference(0.45, 0.45) == 0.0

    def test_characterization_power_settings(self):
        # the bench power pairs behind two of the catalogued asymmetry levels
        assert percent_difference(0.45, 0.39) == pytest.approx(14.29, abs=0.005)
        assert percent_difference(0.45, 0.32) == pytest.approx(33.77, abs=0.005)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.uniform(0.01, 5.0, 2)
            k = rng.uniform(0.1, 10.0)
            assert percent_difference(a, b) == pytest.approx(percent_difference(b, a), rel=1e-14)
            assert percent_difference(k * a, k * b) == pytest.approx(
                percent_difference(a, b), rel=1e-12)

    def test_range(self):
        assert percent_difference(1e-6, 1.0) < 200.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            percent_difference(0.0, 1.0)
        with pytest.raises(ValidationError):
            percent_difference(1.0, -0.1)


class TestGainsFromPercent:
    def test_identity(self):
        assert gains_from_percent(0.0) == (1.0, 1.0)

    def test_known_levels(self):
        g, one = gains_from_percent(14.29)
        assert one == 1.0
        assert g == pytest.approx(0.8667, abs=1e-4)
        assert g == pytest.approx((200.0 - 14.29) / (200.0 + 14.29), rel=1e-12)
        g, _ = gains_from_percent(33.77)
        assert g == pytest.approx(0.7111, abs=1e-4)
        assert g == pytest.approx((200.0 - 33.77) / (200.0 + 33.77), rel=1e-12)

    def test_round_trip(self):
        for pct in np.linspace(0.01, 199.9, 97):
            g, one = gains_from_percent(pct)
            assert percent_difference(g, one) == pytest.approx(pct, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 200.0, exclude_max=True))
    def test_inverts_percent_difference(self, pct):
        assert abs(percent_difference(*gains_from_percent(pct)) - pct) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            gains_from_percent(-0.1)
        with pytest.raises(ValidationError):
            gains_from_percent(200.0)


class TestHeterodyneModel:
    def test_asymmetry_percent_property(self):
        g, _ = gains_from_percent(19.51)
        det = HeterodyneModel(gain_x=g, gain_p=1.0)
        assert det.asymmetry_percent == pytest.approx(19.51, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"gain_x": 0.0}, {"gain_x": 1.2}, {"gain_p": -0.1},
        {"shot_noise_var": 0.0}, {"elec_noise_var": -1.0},
        {"shot_noise_var": math.nan}, {"shot_noise_var": math.inf},
        {"elec_noise_var": math.nan}, {"elec_noise_var": math.inf},
        {"hybrid_phase_error": math.nan}, {"hybrid_phase_error": -math.inf},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            HeterodyneModel(**kwargs)


class TestSimulateHeterodyne:
    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        spec = ReferenceSignalSpec(100.0, phases=[0.0, 1.0])
        with pytest.raises(ValidationError, match="seed"):
            simulate_heterodyne(spec, HeterodyneModel(), seed)

    def test_noiseless_on_axis(self):
        spec = ReferenceSignalSpec(100.0, phases=[0.0, 0.0])
        det = HeterodyneModel(shot_noise_var=1e-30)
        tr = simulate_heterodyne(spec, det, 0)
        np.testing.assert_allclose(tr.x, 10.0, atol=1e-12)
        np.testing.assert_allclose(tr.p, 0.0, atol=1e-12)

    def test_noiseless_asymmetric_scaling(self):
        spec = ReferenceSignalSpec(100.0, phases=[math.pi / 4, math.pi / 4])
        det = HeterodyneModel(gain_x=0.8667, shot_noise_var=1e-30)
        tr = simulate_heterodyne(spec, det, 0)
        np.testing.assert_allclose(tr.x, 0.8667 * 10.0 / math.sqrt(2.0), atol=1e-12)
        np.testing.assert_allclose(tr.p, 10.0 / math.sqrt(2.0), atol=1e-12)

    def test_residual_variance_matches_configured_noise(self):
        # Monte-Carlo oracle: residuals about A cos(theta) carry the shot noise
        spec = ReferenceSignalSpec.ramp(552.0, 100_000)
        det = HeterodyneModel()
        tr = simulate_heterodyne(spec, det, 7)
        residual = tr.x - spec.amplitude * np.cos(tr.phase_true)
        assert np.var(residual) == pytest.approx(det.shot_noise_var, rel=0.05)

    def test_determinism(self):
        spec = ReferenceSignalSpec.ramp(552.0, 500, pulses_per_phase=2)
        det = HeterodyneModel(gain_x=0.9)
        a = simulate_heterodyne(spec, det, 123)
        b = simulate_heterodyne(spec, det, 123)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.p, b.p)
        c = simulate_heterodyne(spec, det, 124)
        assert not np.array_equal(a.x, c.x)

    def test_noiseless_limit_recovers_sinusoid(self):
        spec = ReferenceSignalSpec.ramp(552.0, 360)
        det = HeterodyneModel(gain_x=0.7, gain_p=0.95, shot_noise_var=1e-30)
        tr = simulate_heterodyne(spec, det, 5)
        radius = (tr.x / det.gain_x) ** 2 + (tr.p / det.gain_p) ** 2
        np.testing.assert_allclose(radius, spec.amplitude_sq, rtol=1e-10)

    def test_hybrid_phase_error_shifts_p(self):
        eps = 0.05
        spec = ReferenceSignalSpec(100.0, phases=[0.3, 1.1])
        det = HeterodyneModel(hybrid_phase_error=eps, shot_noise_var=1e-30)
        tr = simulate_heterodyne(spec, det, 0)
        np.testing.assert_allclose(tr.p, 10.0 * np.sin(tr.phase_true + eps), atol=1e-12)

    def test_symmetric_gains_equal_variances(self):
        # variance estimator sd ~ sqrt(2/n) * var; 3 sigma tolerance
        spec = ReferenceSignalSpec.ramp(552.0, 200_000)
        tr = simulate_heterodyne(spec, HeterodyneModel(), 19)
        vx, vp = np.var(tr.x), np.var(tr.p)
        sigma = math.sqrt(2.0 / tr.n) * max(vx, vp) * math.sqrt(2.0)
        assert abs(vx - vp) < 3.0 * sigma

    def test_phase_true_carries_sweep(self):
        spec = ReferenceSignalSpec.ramp(16.0, 8, pulses_per_phase=3)
        tr = simulate_heterodyne(spec, HeterodyneModel(), 1)
        np.testing.assert_array_equal(tr.phase_true, spec.sample_phases())
