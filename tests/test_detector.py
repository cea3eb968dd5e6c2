import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetasym import (
    HeterodyneModel,
    ValidationError,
    make_phase_ramp,
    simulate_heterodyne,
)
from hetasym.detector import _gain_from_percent, _percent_difference

TWO_PI = 2.0 * math.pi


class TestPercentDifference:
    def test_identity_case(self):
        assert _percent_difference(0.45, 0.45) == 0.0

    def test_characterization_power_settings(self):
        # the bench power pairs behind two of the catalogued asymmetry levels
        assert _percent_difference(0.45, 0.39) == pytest.approx(14.29, abs=0.005)
        assert _percent_difference(0.45, 0.32) == pytest.approx(33.77, abs=0.005)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.uniform(0.01, 5.0, 2)
            k = rng.uniform(0.1, 10.0)
            assert _percent_difference(a, b) == pytest.approx(_percent_difference(b, a), rel=1e-14)
            assert _percent_difference(k * a, k * b) == pytest.approx(
                _percent_difference(a, b), rel=1e-12)

    def test_range(self):
        assert _percent_difference(1e-6, 1.0) < 200.0

    def test_powers_whose_sum_overflows(self):
        # 1.7e308 + 1e308 is inf, which read every such pair as 0 %
        assert _percent_difference(1.7e308, 1e308) == _percent_difference(1.7, 1.0)
        assert _percent_difference(1.7, 1.0) == pytest.approx(51.85, abs=0.005)

class TestGainsFromPercent:
    """The gain g on X, against 1 on P, that asymmetry_percent sets."""

    def test_identity(self):
        assert _gain_from_percent(0.0) == 1.0

    def test_known_levels(self):
        g = _gain_from_percent(14.29)
        assert g == pytest.approx(0.8667, abs=1e-4)
        assert g == pytest.approx((200.0 - 14.29) / (200.0 + 14.29), rel=1e-12)
        g = _gain_from_percent(33.77)
        assert g == pytest.approx(0.7111, abs=1e-4)
        assert g == pytest.approx((200.0 - 33.77) / (200.0 + 33.77), rel=1e-12)

    def test_round_trip(self):
        for pct in np.linspace(0.01, 199.9, 97):
            assert _percent_difference(_gain_from_percent(pct), 1.0) == pytest.approx(pct, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 200.0, exclude_max=True))
    def test_inverts_percent_difference(self, pct):
        assert abs(_percent_difference(_gain_from_percent(pct), 1.0) - pct) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="^asymmetry_percent must be in"):
            HeterodyneModel(asymmetry_percent=-0.1)
        with pytest.raises(ValidationError, match="^asymmetry_percent must be in"):
            HeterodyneModel(asymmetry_percent=200.0)


class TestHeterodyneModel:
    def test_asymmetry_percent_property(self):
        det = HeterodyneModel(asymmetry_percent=19.51)
        assert det.asymmetry_percent == 19.51
        assert _percent_difference(_gain_from_percent(det.asymmetry_percent), 1.0) == pytest.approx(
            19.51, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"asymmetry_percent": 200.0}, {"asymmetry_percent": 250.0}, {"asymmetry_percent": -1.0},
        {"noise_var": 0.0}, {"noise_var": -1.0},
        {"noise_var": math.nan}, {"noise_var": math.inf},
        {"hybrid_phase_error": math.nan}, {"hybrid_phase_error": -math.inf},
        # at pi/2 the X and P pairs measure one quadrature
        {"hybrid_phase_error": math.pi / 2}, {"hybrid_phase_error": 1e308},
        {"asymmetry_percent": math.nan}, {"asymmetry_percent": math.inf},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            HeterodyneModel(**kwargs)


class TestSimulateHeterodyne:
    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            simulate_heterodyne(100.0, [0.0, 1.0], HeterodyneModel(), seed)

    @pytest.mark.parametrize("phases, message", [
        ([[0.0, 1.0]], r"^phases must be one-dimensional, got shape \(1, 2\)$"),
        ([0.0, math.nan], "^phases contains non-finite values$"),
        ([math.inf, 1.0], "^phases contains non-finite values$"),
    ])
    def test_rejects_bad_phases(self, phases, message):
        with pytest.raises(ValidationError, match=message):
            simulate_heterodyne(1.0, phases, HeterodyneModel(), 0)

    def test_noiseless_on_axis(self):
        tr = simulate_heterodyne(100.0, [0.0, 0.0], HeterodyneModel(noise_var=1e-30), 0)
        np.testing.assert_allclose(tr.x, 10.0, atol=1e-12)
        np.testing.assert_allclose(tr.p, 0.0, atol=1e-12)

    def test_noiseless_asymmetric_scaling(self):
        det = HeterodyneModel(asymmetry_percent=14.29, noise_var=1e-30)
        tr = simulate_heterodyne(100.0, [math.pi / 4, math.pi / 4], det, 0)
        gain = (200.0 - 14.29) / (200.0 + 14.29)
        np.testing.assert_allclose(tr.x, gain * 10.0 / math.sqrt(2.0), atol=1e-12)
        np.testing.assert_allclose(tr.p, 10.0 / math.sqrt(2.0), atol=1e-12)

    def test_residual_variance_matches_configured_noise(self):
        # Monte-Carlo oracle: residuals about A cos(theta) carry the shot noise
        det = HeterodyneModel()
        tr = simulate_heterodyne(552.0, make_phase_ramp(100_000), det, 7)
        residual = tr.x - math.sqrt(552.0) * np.cos(tr.phase_true)
        assert np.var(residual) == pytest.approx(det.noise_var, rel=0.05)

    def test_determinism(self):
        phases = make_phase_ramp(500, pulses_per_phase=2)
        det = HeterodyneModel(asymmetry_percent=10.0)
        a = simulate_heterodyne(552.0, phases, det, 123)
        b = simulate_heterodyne(552.0, phases, det, 123)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.p, b.p)
        c = simulate_heterodyne(552.0, phases, det, 124)
        assert not np.array_equal(a.x, c.x)

    def test_noiseless_limit_recovers_sinusoid(self):
        det = HeterodyneModel(asymmetry_percent=35.29, noise_var=1e-30)
        tr = simulate_heterodyne(552.0, make_phase_ramp(360), det, 5)
        radius = (tr.x / _gain_from_percent(35.29)) ** 2 + tr.p ** 2
        np.testing.assert_allclose(radius, 552.0, rtol=1e-10)

    def test_p_pair_is_the_snu_reference(self):
        # the asymmetry scales X alone: P is the same bits at every percent
        phases = make_phase_ramp(100)
        symmetric = simulate_heterodyne(552.0, phases, HeterodyneModel(), 3)
        for pct in (14.29, 150.0):
            tr = simulate_heterodyne(552.0, phases, HeterodyneModel(pct), 3)
            assert np.array_equal(tr.p, symmetric.p)
            assert np.array_equal(tr.x, _gain_from_percent(pct) * symmetric.x)

    def test_hybrid_phase_error_shifts_p(self):
        eps = 0.05
        det = HeterodyneModel(hybrid_phase_error=eps, noise_var=1e-30)
        tr = simulate_heterodyne(100.0, [0.3, 1.1], det, 0)
        np.testing.assert_allclose(tr.p, 10.0 * np.sin(tr.phase_true + eps), atol=1e-12)

    def test_symmetric_gains_equal_variances(self):
        # variance estimator sd ~ sqrt(2/n) * var; 3 sigma tolerance
        tr = simulate_heterodyne(552.0, make_phase_ramp(200_000), HeterodyneModel(), 19)
        vx, vp = np.var(tr.x), np.var(tr.p)
        sigma = math.sqrt(2.0 / tr.n) * max(vx, vp) * math.sqrt(2.0)
        assert abs(vx - vp) < 3.0 * sigma

    def test_phase_true_carries_sweep(self):
        phases = make_phase_ramp(8, pulses_per_phase=3)
        tr = simulate_heterodyne(16.0, phases, HeterodyneModel(), 1)
        np.testing.assert_array_equal(tr.phase_true, phases)
