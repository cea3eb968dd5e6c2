import math
import random
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hetasym import (
    KeyRateParams,
    NumericalDomainError,
    ValidationError,
    key_rate,
    key_rate_curve,
    max_distance,
)
from hetasym.config import RunConfig
from hetasym.keyrate import (
    CUTOFF_RESOLUTION_KM,
    CUTOFF_SEARCH_KM,
    RATE_ERROR,
    _chi_het,
    _g_entropy,
    _holevo_bound,
    _mutual_information,
    _symplectic_spectrum,
    _transmittance,
)
from measured import MEASURED_XI_DET

# Reference operating point used for the rate-vs-distance figure
FIG_PARAMS = dict(v_a=10.0, beta=0.93, xi_line=0.02, eta=0.68, v_elec=0.1,
                  alpha_db_per_km=0.2)
# random operating points around the reference one
operating_points = st.builds(
    KeyRateParams, v_a=st.floats(1.5, 40.0), beta=st.floats(0.85, 0.99),
    xi_line=st.floats(0.0, 0.05), xi_det=st.floats(0.0, 0.15), eta=st.floats(0.5, 1.0),
    v_elec=st.floats(0.0, 0.2), alpha_db_per_km=st.floats(0.15, 0.5))


class TestTransmittance:
    def test_zero_distance(self):
        assert _transmittance(0.2, 0.0) == 1.0

    def test_powers_of_ten(self):
        assert _transmittance(0.2, 50.0) == pytest.approx(0.1, rel=1e-12)
        assert _transmittance(0.2, 100.0) == pytest.approx(0.01, rel=1e-12)

    # the attenuation is checked by KeyRateParams, the distance by the chain
    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="^alpha_db_per_km must"):
            KeyRateParams(alpha_db_per_km=-0.1)
        with pytest.raises(ValidationError, match="^distance_km must"):
            key_rate(KeyRateParams(), -10.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (0.2, math.nan)])
    def test_rejects_nan(self, args):
        alpha_db_per_km, distance_km = args
        with pytest.raises(ValidationError):
            key_rate(KeyRateParams(alpha_db_per_km=alpha_db_per_km), distance_km)


class TestChiHet:
    def test_ideal(self):
        assert _chi_het(1.0, 0.0) == 1.0

    def test_reference_operating_point(self):
        assert _chi_het(0.68, 0.1) == pytest.approx((2 - 0.68 + 0.2) / 0.68, rel=1e-12)
        assert _chi_het(0.68, 0.1) == pytest.approx(2.2353, abs=1e-4)

    def test_half_efficiency(self):
        assert _chi_het(0.5, 0.0) == pytest.approx(3.0, rel=1e-12)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValidationError, match="^eta must"):
            KeyRateParams(eta=0.0)

    def test_rejects_nan_electronic_noise(self):
        with pytest.raises(ValidationError, match="^v_elec must"):
            KeyRateParams(v_elec=math.nan)


class TestMutualInformation:
    def test_clean_channel(self):
        assert _mutual_information(11.0, 1.0, 0.0) == pytest.approx(
            0.5 * math.log2(11.0), rel=1e-12)

    def test_vanishes_without_modulation(self):
        assert _mutual_information(1.0 + 1e-12, 0.2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_decreasing_in_chi_line(self):
        # chi_line = (1 - T + xi) / T grows with xi and as T falls
        values = [_mutual_information(11.0, 0.3, xi) for xi in np.linspace(0.0, 20.0, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        values = [_mutual_information(11.0, t, 0.02) for t in np.linspace(1.0, 1e-6, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("v, t, xi", [(11.0, 0.1, 0.02), (1e4 + 1.0, 1.0 - 1e-12, 0.0),
                                          (2.5, 1e-6, 0.1091)])
    def test_channel_referred_form(self, v, t, xi):
        # 1/2 log2((v + chi) / (1 + chi)) with chi = (1 - T + xi) / T, at 60
        # digits; measured worst 8.9e-16 bits (one ulp at v = 1e4 + 1)
        with mp.workdps(60):
            chi = (1 - mp.mpf(t) + mp.mpf(xi)) / mp.mpf(t)
            expected = mp.log((v + chi) / (1 + chi), 2) / 2
        assert abs(_mutual_information(v, t, xi) - float(expected)) <= 2e-15


class TestGEntropy:
    def test_limit_zero(self):
        assert _g_entropy(0.0) == 0.0

    def test_one(self):
        assert _g_entropy(1.0) == pytest.approx(2.0, rel=1e-12)

    def test_half(self):
        expected = 1.5 * math.log2(1.5) + 0.5  # -0.5*log2(0.5) == +0.5
        assert _g_entropy(0.5) == pytest.approx(expected, rel=1e-12)
        assert _g_entropy(0.5) == pytest.approx(1.3774, abs=1e-4)

    def test_increasing(self):
        xs = np.linspace(0.0, 10.0, 100)
        ys = [_g_entropy(x) for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))


def symplectic_eigs_oracle(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum via |eig(i Omega V)| for xx/pp-interleaved modes."""
    n = cov.shape[0] // 2
    omega1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega[2 * k:2 * k + 2, 2 * k:2 * k + 2] = omega1
    eig = np.abs(np.linalg.eigvals(1j * omega @ cov))
    eig.sort()
    return eig[::2]  # each value doubled


def conditional_entropy_oracle(v, t, xi_out, eta, v_elec):
    """Independent route to g(lam3)+g(lam4): build the (A, B, F, G) Gaussian
    state with the trusted detector purified as an EPR pair of variance
    1 + 2 v_elec / (1 - eta) mixed in on a beamsplitter of transmission eta,
    heterodyne the detected mode, and take the conditional spectrum."""
    chi_l = 1.0 / t - 1.0 + xi_out / t
    a, b = v, t * (v + chi_l)
    c = math.sqrt(t * (v * v - 1.0))
    z = np.diag([1.0, -1.0])
    v_f = 1.0 + 2.0 * v_elec / (1.0 - eta)
    c_f = math.sqrt(v_f * v_f - 1.0)
    cov = np.zeros((8, 8))
    cov[0:2, 0:2] = a * np.eye(2)
    cov[2:4, 2:4] = b * np.eye(2)
    cov[0:2, 2:4] = cov[2:4, 0:2] = c * z
    cov[4:6, 4:6] = cov[6:8, 6:8] = v_f * np.eye(2)
    cov[4:6, 6:8] = cov[6:8, 4:6] = c_f * z
    bs = np.eye(8)
    se, sr = math.sqrt(eta), math.sqrt(1.0 - eta)
    bs[2:4, 2:4] = se * np.eye(2)
    bs[2:4, 4:6] = sr * np.eye(2)
    bs[4:6, 2:4] = -sr * np.eye(2)
    bs[4:6, 4:6] = se * np.eye(2)
    cov = bs @ cov @ bs.T
    idx_b, idx_r = [2, 3], [0, 1, 4, 5, 6, 7]
    gam_b = cov[np.ix_(idx_b, idx_b)]
    cross = cov[np.ix_(idx_r, idx_b)]
    cond = cov[np.ix_(idx_r, idx_r)] - cross @ np.linalg.inv(gam_b + np.eye(2)) @ cross.T
    return sum(_g_entropy(max((lam - 1.0) / 2.0, 0.0))
               for lam in symplectic_eigs_oracle(cond))


def symplectic_pair_oracle(a: float, b: float, c: float) -> tuple[float, float]:
    """Independent route: symplectic eigenvalues of the two-mode covariance
    matrix [[a I, c Z], [c Z, b I]] via |eig(i Omega V)|."""
    V = np.array([
        [a, 0.0, c, 0.0],
        [0.0, a, 0.0, -c],
        [c, 0.0, b, 0.0],
        [0.0, -c, 0.0, b],
    ])
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    eig = np.abs(np.linalg.eigvals(1j * omega @ V))
    eig.sort()
    return float(eig[3]), float(eig[0])  # each doubled; take distinct values


class TestSymplecticSpectrum:
    def test_pure_limit_unit_chi_het(self):
        for v in (2.0, 11.0, 40.0):
            lams = _symplectic_spectrum(v, 1.0, 0.0, 1.0)
            np.testing.assert_allclose(lams, 1.0, atol=1e-9)

    def test_pure_limit_zero_chi_het(self):
        lams = _symplectic_spectrum(11.0, 1.0, 0.0, 0.0)
        assert lams[0] == pytest.approx(1.0, abs=1e-9)
        assert lams[1] == pytest.approx(1.0, abs=1e-9)

    def test_reference_point_physical(self):
        t = _transmittance(0.2, 20.0)
        lams = _symplectic_spectrum(11.0, t, 0.02, _chi_het(0.68, 0.1))
        assert all(lam >= 1.0 - 1e-9 for lam in lams)

    def test_lambda12_against_covariance_oracle(self):
        # lambda_{1,2} are the symplectic eigenvalues of the covariance matrix
        # with a = v, b = T(v + chi_line) = T v + 1 - T + xi, c = sqrt(T (v^2 - 1))
        for distance in (5.0, 20.0, 45.0):
            for xi_det in (0.0, 0.0140, 0.1091):
                v, xi = 11.0, 0.02 + xi_det
                t = _transmittance(0.2, distance)
                lams = _symplectic_spectrum(v, t, xi, _chi_het(0.68, 0.1))
                a, b = v, t * v + 1.0 - t + xi
                c = math.sqrt(t * (v * v - 1.0))
                big, small = symplectic_pair_oracle(a, b, c)
                assert lams[0] == pytest.approx(big, rel=1e-10)
                assert lams[1] == pytest.approx(small, rel=1e-10)

    def test_lambda34_against_conditioning_oracle(self):
        # full dual route for the conditional spectrum: purify the trusted
        # detector, heterodyne, condition, compare the entropy sums
        for distance in (0.0, 5.0, 12.0, 20.0, 40.0, 70.0):
            for xi_out in (0.02, 0.0216, 0.034, 0.1491):
                v, eta, v_elec = 11.0, 0.68, 0.1
                t = _transmittance(0.2, distance)
                lams = _symplectic_spectrum(v, t, xi_out, _chi_het(eta, v_elec))
                closed = (_g_entropy((lams[2] - 1.0) / 2.0)
                          + _g_entropy((lams[3] - 1.0) / 2.0))
                oracle = conditional_entropy_oracle(v, t, xi_out, eta, v_elec)
                assert closed == pytest.approx(oracle, abs=1e-9)

    def test_large_detector_noise_decouples_eve(self):
        # chi_het -> infinity: Bob's measurement reveals nothing, so the
        # conditional spectrum approaches the unconditional one
        lams = _symplectic_spectrum(11.0, _transmittance(0.2, 25.0), 0.05, 1e8)
        assert lams[2] == pytest.approx(lams[0], rel=1e-6)
        assert lams[3] == pytest.approx(lams[1], rel=1e-6)
        assert _holevo_bound(lams) == pytest.approx(0.0, abs=1e-5)

    def test_unphysical_rejected(self):
        # v = V_A + 1 <= 1: no modulation, or one that rounds away in v - 1
        with pytest.raises(ValidationError, match="^v_a must"):
            KeyRateParams(v_a=-0.5)
        with pytest.raises(ValidationError, match="^v - 1 must"):
            KeyRateParams(v_a=1e-17)

    def test_chi_line_below_loss_rejected(self):
        # chi_line = (1 - T + xi) / T below its loss floor 1/T - 1 is a
        # negative xi: an input error, not a numerical one
        with pytest.raises(ValidationError, match="^xi_line must"):
            KeyRateParams(xi_line=-0.25)

    def test_sub_unit_lambda4_not_clamped_away(self):
        # chi_het < 1 is no detector's noise; here lambda4 = 1 - 1.04e-3
        with pytest.raises(NumericalDomainError, match="symplectic eigenvalue 0.998"):
            _symplectic_spectrum(1001.0, 0.01, 0.02, 0.9)


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-3, 1e4), st.floats(1e-6, 1.0),
       st.just(0.0) | st.floats(1e-12, 1.0), st.floats(1.0, 1e3))
def test_physical_spectrum_is_ordered_and_factors(v_minus_1, t, xi, chi_h):
    # lambda1 lambda2 = sqrt(B)
    v = 1.0 + v_minus_1
    l1, l2, l3, l4 = _symplectic_spectrum(v, t, xi, chi_h)
    assert l1 >= l2 >= 1.0 and l3 >= l4 >= 1.0
    assert l1 * l2 == pytest.approx(t + (1.0 - t) * v + v * xi, rel=1e-11)


class TestHolevoBound:
    def test_pure_state(self):
        assert _holevo_bound((1.0, 1.0, 1.0, 1.0)) == 0.0

    def test_single_thermal_mode(self):
        assert _holevo_bound((3.0, 1.0, 1.0, 1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_lossless_noiseless_chain(self):
        lams = _symplectic_spectrum(11.0, 1.0, 0.0, _chi_het(1.0, 0.0))
        assert _holevo_bound(lams) < 1e-9



class TestKeyRate:
    def test_clean_channel_oracle(self):
        # independent oracle: with T = 1, xi = 0 Eve learns nothing and
        # r = beta * (1/2) log2(V_A + 1)
        params = KeyRateParams(v_a=10.0, beta=0.93, xi_line=0.0, xi_det=0.0,
                               eta=1.0, v_elec=0.0, alpha_db_per_km=0.0)
        expected = 0.93 * 0.5 * math.log2(11.0)
        result = key_rate(params, 0.0)
        assert result.rate_per_symbol == pytest.approx(expected, abs=1e-9)
        assert result.rate_per_symbol == pytest.approx(1.6086, abs=1e-4)

    def test_rate_ordering_in_xi_det(self):
        base = KeyRateParams(**FIG_PARAMS)
        low = key_rate(replace(base, xi_det=0.0016), 10.0)
        high = key_rate(replace(base, xi_det=0.1091), 10.0)
        assert high.rate_per_symbol < low.rate_per_symbol

    def test_no_reconciliation_no_key(self):
        params = KeyRateParams(**FIG_PARAMS, xi_det=0.0)
        result = key_rate(replace(params, beta=1e-12), 10.0)
        assert result.rate_per_symbol <= 0.0

    # the chain must give the rate its kernels compose, bit for bit
    @settings(max_examples=200, deadline=None)
    @given(operating_points, st.floats(0.0, 500.0))
    @example(KeyRateParams(**FIG_PARAMS, xi_det=0.0140), 30.0)
    def test_breakdown_recomposition(self, params, distance):
        (from_curve,) = key_rate_curve(params, [distance])
        v, xi = params.v_a + 1.0, params.xi_line + params.xi_det
        t = _transmittance(params.alpha_db_per_km, distance)
        lams = _symplectic_spectrum(v, t, xi, _chi_het(params.eta, params.v_elec))
        from_pieces = params.beta * _mutual_information(v, t, xi) - _holevo_bound(lams)
        assert from_curve == key_rate(params, distance).rate_per_symbol == from_pieces

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_curve_checks_every_distance(self, bad):
        with pytest.raises(ValidationError, match="^distance_km must"):
            key_rate_curve(KeyRateParams(), [0.0, bad])

    def test_monotonicity_grid(self):
        # strictly decreasing in xi_det and increasing in beta at every grid
        # point; in distance the model is not globally monotone (the Holevo
        # term peaks at short range), so the true shape claims are that the
        # back-to-back rate is the global maximum and the achievable region
        # is a single interval starting at zero
        distances = np.linspace(0.0, 45.0, 10)
        betas = np.linspace(0.5, 0.99, 10)
        xis = [0.0, 0.0016, 0.0140, 0.0318, 0.1091]
        base = KeyRateParams(**FIG_PARAMS)
        for d in distances:
            for beta in betas[::3]:
                rates = [key_rate(replace(base, beta=beta, xi_det=xi), d).rate_per_symbol
                         for xi in xis]
                assert all(a > b for a, b in zip(rates, rates[1:]))
        for d in distances[::3]:
            for xi in xis:
                rates = [key_rate(replace(base, beta=beta, xi_det=xi), d).rate_per_symbol
                         for beta in betas]
                assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_rate_shape_in_distance(self):
        # whenever a key is possible back to back, the back-to-back rate is
        # the global maximum over distance; at the reference operating point
        # the rate changes sign exactly once, so the achievable range is a
        # single interval [0, d*)
        base = KeyRateParams(**FIG_PARAMS)
        grid = np.linspace(0.0, 150.0, 301)
        for beta in (0.6, 0.88, 0.93):
            for xi in (0.0, 0.0140, 0.1091):
                rates = np.array([
                    key_rate(replace(base, beta=beta, xi_det=xi), d).rate_per_symbol
                    for d in grid])
                if rates[0] > 0.0:
                    assert np.argmax(rates) == 0
        for xi in [0.0] + MEASURED_XI_DET:
            rates = np.array([
                key_rate(replace(base, xi_det=xi), d).rate_per_symbol
                for d in grid])
            assert rates[0] > 0.0 > rates[-1]
            first_zero = grid[int(np.where(np.diff(np.sign(rates)) != 0)[0][0])]
            cutoff = max_distance(replace(base, xi_det=xi))
            assert abs(cutoff - first_zero) <= float(grid[1] - grid[0])

    @pytest.mark.parametrize("v_a, distance", [(25.0, 1e-9), (100.0, 1e-12)])
    def test_pure_loss_just_past_back_to_back(self, v_a, distance):
        # a physical point next to T = 1; at 60 digits the rate lies
        # 4.07e-8 (v_a = 25) and 2.2e-10 (v_a = 100) below the back-to-back one
        params = KeyRateParams(v_a=v_a, xi_line=0.0, eta=1.0, v_elec=0.0,
                               alpha_db_per_km=0.5)
        result = key_rate(params, distance)
        assert result.rate_per_symbol == pytest.approx(
            key_rate(params, 0.0).rate_per_symbol, abs=5e-8)

    def test_physicality_over_figure_sweep(self):
        base = KeyRateParams(**FIG_PARAMS)
        for xi in [0.0] + MEASURED_XI_DET:
            for d in np.linspace(0.0, 60.0, 61):
                lams = key_rate(replace(base, xi_det=xi), d).lambdas
                assert all(lam >= 1.0 - 1e-9 for lam in lams)



def _g_mp(x):
    # an eigenvalue that is exactly 1 (xi = 0) comes out 1 -/+ 1e-55 or so
    return mp.mpf(0) if x <= 0 else (x + 1) * mp.log(x + 1, 2) - x * mp.log(x, 2)


def rate_oracle(params: KeyRateParams, distance_km: float) -> mp.mpf:
    """The rate at distance_km from the textbook A, B, C, D formulas of
    symplectic_spectrum, with every step (T included) at 60 digits."""
    with mp.workdps(60):
        t = mp.power(10, -mp.mpf(params.alpha_db_per_km) * mp.mpf(distance_km) / 10)
        v = mp.mpf(params.v_a) + 1
        chi_l = 1 / t - 1 + (mp.mpf(params.xi_line) + mp.mpf(params.xi_det)) / t
        chi_h = (2 - mp.mpf(params.eta) + 2 * mp.mpf(params.v_elec)) / mp.mpf(params.eta)
        a = v * v * (1 - 2 * t) + 2 * t + (t * (v + chi_l)) ** 2
        b = (t * (1 + v * chi_l)) ** 2
        denom = (t * (v + chi_l + chi_h / t)) ** 2
        c = (a * chi_h ** 2 + b + 1 + 2 * chi_h * (v * mp.sqrt(b) + t * (v + chi_l))
             + 2 * t * (v * v - 1)) / denom
        d = (v + chi_h * mp.sqrt(b)) ** 2 / denom
        holevo = 0
        for big, small, sign in ((a, b, 1), (c, d, -1)):
            disc = mp.sqrt(big * big - 4 * small)
            for lam in (mp.sqrt((big + disc) / 2), mp.sqrt((big - disc) / 2)):
                holevo += sign * _g_mp((lam - 1) / 2)
        info = mp.log((v + chi_l) / (1 + chi_l), 2) / 2
        return mp.mpf(params.beta) * info - holevo


def _worst_oracle_error(params: KeyRateParams, distances) -> float:
    return max(abs(float(rate - rate_oracle(params, d)))
               for d, rate in zip(distances, key_rate_curve(params, distances)))


# Worst |rate - rate_oracle| next to T = 1 (measured: 4.7e-12 bits/symbol,
# set by the rounding of T alone at v_a = 1e4); elsewhere it is RATE_ERROR
# (measured: 6.0e-15), against which max_distance resolves a cutoff
NEAR_T1_ERROR = 1e-11

# (xi_line, xi_det, whether max_distance must resolve the cutoff): the default
# sweep, then xi_det = 0 over three tiny xi_line, where the float rate next to
# the sign change is 1e-15 to 6e-15 bits/symbol, below RATE_ERROR, and
# max_distance used to miss the sign change by up to 0.112 km
CUTOFF_CASES = {repr(xi): (RunConfig.xi_line, xi, True) for xi in RunConfig().xi_det_list()}
CUTOFF_CASES.update({f"xi_line={xi!r}": (xi, 0.0, False) for xi in (5e-14, 1e-13, 1e-12)})


class TestOracle:
    @pytest.mark.parametrize("eta, v_elec", [(1.0, 0.0), (0.6, 0.1)])
    def test_near_back_to_back(self, eta, v_elec):
        distances = [10.0 ** k for k in range(-12, -2)]
        for v_a in (2.0, 10.0, 100.0, 1e3, 1e4):
            params = KeyRateParams(v_a=v_a, xi_line=0.0, eta=eta, v_elec=v_elec)
            assert _worst_oracle_error(params, distances) <= NEAR_T1_ERROR

    def test_random_operating_points_with_a_key(self):
        rng = random.Random(2)
        drawn = 0
        while drawn < 60:
            params = KeyRateParams(
                v_a=rng.uniform(1.5, 40.0), beta=rng.uniform(0.85, 0.99),
                xi_line=rng.uniform(0.0, 0.05), xi_det=rng.uniform(0.0, 0.05),
                eta=rng.uniform(0.5, 1.0), v_elec=rng.uniform(0.0, 0.2),
                alpha_db_per_km=rng.uniform(0.15, 0.5))
            cutoff = max_distance(params)
            if not 0.0 < cutoff < math.inf:
                continue
            drawn += 1
            distances = [cutoff * i / 20 for i in range(21)]
            assert _worst_oracle_error(params, distances) <= RATE_ERROR

    @pytest.mark.parametrize("xi_line, xi_det, resolved", CUTOFF_CASES.values(),
                             ids=list(CUTOFF_CASES))
    def test_cutoff_below_first_oracle_sign_change(self, xi_line, xi_det, resolved):
        config = RunConfig()
        params = KeyRateParams(
            v_a=config.v_a, beta=config.beta, xi_line=xi_line, xi_det=xi_det,
            eta=config.eta, v_elec=config.v_elec, alpha_db_per_km=config.alpha_db_per_km)
        lo, hi = 0.0, 1.0
        while rate_oracle(params, hi) > 0:
            lo, hi = hi, hi + 1.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rate_oracle(params, mid) > 0 else (lo, mid)
        cutoff = max_distance(params)
        # inf: the rate is not surely negative one resolution step past the
        # last distance where it is surely positive
        if resolved or cutoff != math.inf:
            assert hi - CUTOFF_RESOLUTION_KM <= cutoff <= lo


# Two computed rates in a property can each be off by NEAR_T1_ERROR
RATE_NOISE = 2 * NEAR_T1_ERROR


@settings(max_examples=300, deadline=None)
@given(operating_points, st.floats(0.0, 0.15), st.floats(0.0, 0.15), st.floats(0.0, 100.0))
def test_rate_does_not_increase_with_xi_det(params, xi_a, xi_b, distance):
    low, high = sorted((xi_a, xi_b))
    (rate_low,) = key_rate_curve(replace(params, xi_det=low), [distance])
    (rate_high,) = key_rate_curve(replace(params, xi_det=high), [distance])
    assert rate_high <= rate_low + RATE_NOISE


# Not claimed: that the rate is non-increasing in distance up to the cutoff.
# Random operating points break it (the Holevo term can fall faster than
# I(A;B) at short range), so only the back-to-back maximum is a property.
@settings(max_examples=300, deadline=None)
@given(operating_points)
def test_back_to_back_rate_is_the_maximum_up_to_the_cutoff(params):
    cutoff = max_distance(params)
    assume(math.isfinite(cutoff))
    rates = key_rate_curve(params, np.linspace(0.0, cutoff, 101))
    assert max(rates) <= rates[0] + RATE_NOISE


class TestEigenvalueOverflow:
    # physical parameters whose larger symplectic eigenvalue overflows:
    # d^2 does for v_a from the first distance past 0 and for xi_line at
    # 0 km; with v_a near the float64 maximum, g overflows and p34 is
    # inf / inf.  They used to read as "eigenvalue 0.0 < 1 (unphysical)", or
    # as a ValidationError on g_entropy(nan)
    @pytest.mark.parametrize("kwargs, distance", [
        ({"v_a": 1e200}, 1.0), ({"v_a": 1e300}, 1.0), ({"xi_line": 1e300}, 0.0),
        ({"v_a": 1.7e308, "v_elec": 4e307, "eta": 1.0}, 0.0),
    ])
    def test_named_with_its_distance(self, kwargs, distance):
        params = KeyRateParams(**kwargs)
        for evaluate in (key_rate, lambda params, d: key_rate_curve(params, [0.0, d])):
            with pytest.raises(NumericalDomainError,
                               match=f"^symplectic eigenvalue overflows float64 .* at {distance} km$"):
                evaluate(params, distance)
        with pytest.raises(NumericalDomainError, match="overflows float64"):
            max_distance(params)

    def test_spectrum_says_overflow(self):
        with pytest.raises(NumericalDomainError, match="^symplectic eigenvalue overflows"):
            _symplectic_spectrum(1e200, 0.5, 0.02, 2.0)


class TestTransmittanceUnderflow:
    # at 0.2 dB/km: T is normal at 15,380 km, subnormal at 15,420 and
    # 16,000 km, and T == 0 from 16,200 km
    @pytest.mark.parametrize("distance", [15380.0, 15420.0, 16000.0])
    def test_matches_oracle_while_t_is_positive(self, distance):
        params = KeyRateParams()
        (rate,) = key_rate_curve(params, [distance])
        assert rate == key_rate(params, distance).rate_per_symbol
        assert abs(rate - float(rate_oracle(params, distance))) <= RATE_ERROR

    @pytest.mark.parametrize("distance", [16200.0])
    def test_fails_loudly(self, distance):
        for evaluate in (key_rate, lambda params, d: key_rate_curve(params, [d])):
            with pytest.raises(NumericalDomainError, match=f"T = .* at {distance} km"):
                evaluate(KeyRateParams(), distance)


class TestMaxDistance:
    def test_direction_with_asymmetry(self):
        base = KeyRateParams(**FIG_PARAMS)
        clean = max_distance(replace(base, xi_det=0.0))
        worst = max_distance(replace(base, xi_det=0.1091))
        assert clean > worst > 0.0

    def test_lossless_sentinel(self):
        params = KeyRateParams(v_a=10.0, beta=0.93, xi_line=0.0, xi_det=0.0,
                               eta=1.0, v_elec=0.0, alpha_db_per_km=0.0)
        assert math.isinf(max_distance(params))

    def test_noiseless_fibre_has_no_cutoff(self):
        # without excess noise the exact rate stays positive out to the end
        # of the search (2.6e-20 bits at 1,000 km); the float rate, accurate
        # to about 1e-15 bits, first reads negative near 727 km, which used
        # to be reported as the cutoff
        params = KeyRateParams(xi_line=0.0, xi_det=0.0)
        assert all(rate_oracle(params, d) > 0 for d in (700.0, 727.4, 800.0, 1000.0))
        assert max_distance(params) == math.inf

    def test_zero_marker_when_no_key(self):
        params = KeyRateParams(**FIG_PARAMS, xi_det=0.0)
        assert max_distance(replace(params, beta=1e-6)) == 0.0

    def test_monotone_across_measured_levels(self):
        base = KeyRateParams(**FIG_PARAMS)
        cutoffs = [max_distance(replace(base, xi_det=xi)) for xi in sorted(MEASURED_XI_DET)]
        assert all(math.isfinite(c) for c in cutoffs)
        assert all(a > b for a, b in zip(cutoffs, cutoffs[1:]))

    def test_cutoff_brackets_rate_sign(self):
        params = KeyRateParams(**FIG_PARAMS, xi_det=0.1091)
        cutoff = max_distance(params)
        below = key_rate(params, cutoff - 0.02).rate_per_symbol
        above = key_rate(params, cutoff + 0.02).rate_per_symbol
        assert below > 0.0 > above

    def test_lossy_fibre(self):
        # at 5 dB/km T underflows to 0 long before the 1,000 km the search
        # marches to; the cutoff found by a search to 50 km is 3.302 km
        params = KeyRateParams(alpha_db_per_km=5.0)
        cutoff = max_distance(params)
        assert abs(cutoff - 3.302) <= 0.02
        below, above = key_rate_curve(params, [cutoff, cutoff + 0.01])
        assert below > 0.0 >= above


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"v_a": 0.0}, {"beta": 0.0}, {"beta": 1.1}, {"xi_line": -0.1},
        {"eta": 0.0}, {"v_elec": -0.1}, {"xi_det": math.nan}, {"xi_det": math.inf},
        {"xi_line": math.nan}, {"v_elec": math.inf}, {"alpha_db_per_km": math.nan},
        {"alpha_db_per_km": math.inf}, {"v_a": math.inf},
    ])
    def test_params_rejected(self, kwargs):
        with pytest.raises(ValidationError, match=f"^{next(iter(kwargs))} must"):
            KeyRateParams(**kwargs)

    # what the chain derives from valid fields: v - 1 rounds to 0, the xi
    # sum overflows, chi_het overflows
    @pytest.mark.parametrize("kwargs, name", [
        ({"v_a": 1e-17}, "v - 1"), ({"xi_line": 1e308, "xi_det": 1e308}, "xi"),
        ({"eta": 5e-324}, "chi_het"), ({"v_elec": 1e308, "eta": 0.5}, "chi_het"),
    ])
    def test_derived_values_rejected(self, kwargs, name):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            KeyRateParams(**kwargs)


EXTREMES = [0.0, -0.0, 5e-324, 1e-300, 1e150, 1e300, sys.float_info.max,
            -1e-300, -1.0, -sys.float_info.max, math.nan, math.inf, -math.inf]


def _field(ordinary):
    # one value in four from EXTREMES, so about a quarter of the draws
    # build a valid KeyRateParams
    return st.tuples(st.integers(0, 3), ordinary, st.sampled_from(EXTREMES)).map(
        lambda drawn: drawn[2] if drawn[0] == 0 else drawn[1])


# KeyRateParams is the one place the parameters are checked and the chain
# checks only the distance, so a valid KeyRateParams must give finite
# numbers or a NumericalDomainError at every distance, never a NaN
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "v_a": _field(st.floats(1e-3, 100.0)), "beta": _field(st.floats(0.01, 1.0)),
    "xi_line": _field(st.floats(0.0, 0.2)), "xi_det": _field(st.floats(0.0, 0.2)),
    "eta": _field(st.floats(0.01, 1.0)), "v_elec": _field(st.floats(0.0, 1.0)),
    "alpha_db_per_km": _field(st.floats(0.0, 1.0)),
}), st.floats(0.0, 1e300))
def test_valid_params_give_finite_numbers_or_a_domain_error(kwargs, distance):
    try:
        params = KeyRateParams(**kwargs)
    except ValidationError:
        return
    try:
        result = key_rate(params, distance)
        assert all(math.isfinite(value) for value in (
            result.transmittance, result.chi_het, result.mutual_info, *result.lambdas,
            result.holevo, result.rate_per_symbol))
    except NumericalDomainError:
        pass
    try:
        assert all(math.isfinite(rate) for rate in key_rate_curve(params, [0.0, distance]))
    except NumericalDomainError:
        pass
    try:
        cutoff = max_distance(params)
        assert cutoff == math.inf or 0.0 <= cutoff <= CUTOFF_SEARCH_KM
    except NumericalDomainError:
        pass
