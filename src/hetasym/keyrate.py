"""Asymptotic secret-key rate under collective attacks with reverse
reconciliation, for Gaussian-modulated coherent states read out by
heterodyne detection with trusted detector noise.

The rate is r = beta I(A;B) - chi(B;E) per symbol; Eve's Holevo
information chi(B;E) comes from the symplectic spectrum of the shared
two-mode covariance matrix before and after Bob's measurement.  Detection
efficiency eta and electronic noise v_elec enter only through chi_het
(trusted-detector model).  Each step is one private function; the public
API is the chain: KeyRateParams, key_rate, key_rate_curve, max_distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import RunConfig
from .errors import NumericalDomainError, non_negative, positive, unit_interval

#: Tolerated numerical undershoot of the symplectic eigenvalues below 1
#: before parameters are declared unphysical.
CLAMP_TOL = 1e-9
#: max_distance probes the rate at _CUTOFF_MARCH_STEPS even steps out to
#: CUTOFF_SEARCH_KM [km] (about 0.24 km apart), returns math.inf when every
#: probe is positive, and bisects the first sign change to
#: CUTOFF_RESOLUTION_KM [km].
CUTOFF_SEARCH_KM = 1000.0
CUTOFF_RESOLUTION_KM = 0.01
_CUTOFF_MARCH_STEPS = 4096
#: The rate is accurate to about 1e-15 bits/symbol (against a 60-digit
#: oracle), so where I(A;B), an upper bound on the rate, is below this
#: [bits/symbol] a non-positive rate is rounding, not a cutoff: without
#: excess noise the float rate first turns negative near 727 km, where the
#: exact rate is 7.5e-15.
_RESOLVED_INFO_BITS = 1e-12


def _transmittance(alpha_db_per_km: float, distance_km: float) -> float:
    """Fiber power transmittance T = 10^(-alpha d / 10)."""
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def _chi_het(eta: float, v_elec: float) -> float:
    """Heterodyne detection added noise: (2 - eta + 2 v_elec) / eta  [SNU]."""
    return (2.0 - eta + 2.0 * v_elec) / eta


def _mutual_information(v: float, t: float, xi: float) -> float:
    """Alice-Bob mutual information for heterodyne readout through a channel
    of transmittance t with receiver-referred excess noise xi:
    I(A;B) = 1/2 log2(1 + T (v - 1) / (1 + xi))  [bits/symbol], with
    v = V_A + 1.  This is 1/2 log2((v + chi_line) / (1 + chi_line)) for the
    channel-referred noise chi_line = (1 - T + xi) / T, never formed here."""
    return 0.5 * math.log2(1.0 + t * (v - 1.0) / (1.0 + xi))


def _g_entropy(x: float) -> float:
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2 x, with g(0) = 0."""
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _symplectic_spectrum(v: float, t: float, xi: float,
                         chi_het_value: float) -> tuple[float, float, float, float]:
    """Symplectic eigenvalues (lambda1..4) of the shared state before and
    after Bob's heterodyne measurement, for a channel of transmittance t
    with receiver-referred excess noise xi.

    With u = 1 - T, the channel-referred noise chi_line = (u + xi) / T and
    chi_total = chi_line + chi_het / T, the textbook form is

        A = v^2 (1 - 2T) + 2T + T^2 (v + chi_line)^2
        B = T^2 (1 + v chi_line)^2
        C = (A chi_het^2 + B + 1 + 2 chi_het [v sqrt(B) + T (v + chi_line)]
             + 2T (v^2 - 1)) / (T (v + chi_total))^2
        D = (v + chi_het sqrt(B))^2 / (T (v + chi_total))^2
        lambda_{1,2} = sqrt((A +/- sqrt(A^2 - 4B)) / 2), likewise for C, D,

    whose discriminants cancel near T = 1 and whose 1/T terms overflow as
    T -> 0.  Written in xi, with g = T (v + chi_total) =
    1 + T (v - 1) + xi + chi_het, each pair is (sqrt(d^2 + 4p) +/- |d|) / 2
    for its product p and difference d:

        p12 = sqrt(B) = T + u v + v xi,      d12 = u (v - 1) - xi,
        p34 = sqrt(D) = (v + chi_het sqrt(B)) / g,
        d34 = (chi_het (xi - u (v - 1)) - u (v - 1) - v xi) / g,

    as A - 2 sqrt(B) = d12^2 and C - 2 sqrt(D) = d34^2; the smaller one is
    taken as p over the larger, and no 1/T is formed.  lambda2 >= 1 holds
    exactly as xi >= 0; lambda4 can fall below 1 when chi_het < 1.  An
    eigenvalue more than CLAMP_TOL below 1 raises NumericalDomainError;
    rounding is clamped at 1.  An eigenvalue that overflows float64 raises
    NumericalDomainError too: d^2 does from |d| ~ 1.3e154, as V_A = 1e200
    gives once T < 1.
    """
    u = 1.0 - t
    loss = u * (v - 1.0)
    sqrt_b = t + u * v + v * xi
    g = 1.0 + t * (v - 1.0) + xi + chi_het_value
    lams = []
    for prod, diff in ((sqrt_b, loss - xi),
                       ((v + chi_het_value * sqrt_b) / g,
                        (chi_het_value * (xi - loss) - loss - v * xi) / g)):
        big = 0.5 * (math.sqrt(diff * diff + 4.0 * prod) + abs(diff))
        # inf, or nan from inf / inf: small would read 0 ("unphysical") or nan
        if not big < math.inf:
            raise NumericalDomainError(
                f"symplectic eigenvalue overflows float64 (v = {v!r}, xi = {xi!r}, T = {t!r})")
        small = prod / big
        if small < 1.0 - CLAMP_TOL:
            raise NumericalDomainError(
                f"symplectic eigenvalue {small} < 1 beyond tolerance (unphysical parameters)")
        # clamp rounding: both at 1, and small at big, which the quotient
        # can pass by an ulp when the pair is degenerate
        big = max(big, 1.0)
        lams += [big, min(max(small, 1.0), big)]
    return lams[0], lams[1], lams[2], lams[3]


def _holevo_bound(lams: tuple[float, float, float, float]) -> float:
    """Eve's Holevo information from the symplectic spectrum:
    chi(B;E) = g((l1-1)/2) + g((l2-1)/2) - g((l3-1)/2) - g((l4-1)/2),
    clamped below at 0  [bits/symbol], for eigenvalues that are each finite
    and >= 1, as _symplectic_spectrum returns them."""
    l1, l2, l3, l4 = lams
    value = (_g_entropy((l1 - 1.0) / 2.0) + _g_entropy((l2 - 1.0) / 2.0)
             - _g_entropy((l3 - 1.0) / 2.0) - _g_entropy((l4 - 1.0) / 2.0))
    return 0.0 if 0.0 > value else value


@dataclass(frozen=True)
class KeyRateParams:
    """All inputs of the asymptotic key-rate chain but the distance."""

    v_a: float = RunConfig.v_a
    beta: float = RunConfig.beta
    xi_line: float = RunConfig.xi_line
    xi_det: float = 0.0
    eta: float = RunConfig.eta
    v_elec: float = RunConfig.v_elec
    alpha_db_per_km: float = RunConfig.alpha_db_per_km

    def __post_init__(self):
        """The one place the chain's parameters are checked: each field, then
        what the chain derives from them, as v - 1 can round to 0 and the
        xi sum and chi_het can overflow."""
        positive("v_a", self.v_a)
        unit_interval("beta", self.beta)
        unit_interval("eta", self.eta)
        for name in ("xi_line", "xi_det", "v_elec", "alpha_db_per_km"):
            non_negative(name, getattr(self, name))
        v, xi, chi_h = _chain_inputs(self)
        positive("v - 1", v - 1.0)
        non_negative("xi", xi)
        non_negative("chi_het", chi_h)


@dataclass(frozen=True)
class KeyRateBreakdown:
    """Every intermediate of one key-rate evaluation."""

    transmittance: float
    chi_het: float
    mutual_info: float
    lambdas: tuple[float, float, float, float]
    holevo: float
    rate_per_symbol: float


def _chain_inputs(params: KeyRateParams) -> tuple[float, float, float]:
    """(v, xi, chi_het) of params, which KeyRateParams has checked."""
    return (params.v_a + 1.0, params.xi_line + params.xi_det,
            _chi_het(params.eta, params.v_elec))


def _rate_terms(params: KeyRateParams, distance_km: float, chain: tuple[float, float, float]):
    """(T, I(A;B), symplectic spectrum, Holevo bound, rate) at one distance;
    chain is _chain_inputs(params), so only the distance is checked here."""
    non_negative("distance_km", distance_km)
    t = _transmittance(params.alpha_db_per_km, distance_km)
    if t == 0.0:
        raise NumericalDomainError(
            f"T = {t!r} at {distance_km} km underflows; the key-rate chain needs T > 0")
    v, xi, chi_h = chain
    info = _mutual_information(v, t, xi)
    try:
        lams = _symplectic_spectrum(v, t, xi, chi_h)
    except NumericalDomainError as exc:
        raise NumericalDomainError(f"{exc} at {distance_km} km") from None
    holevo = _holevo_bound(lams)
    return t, info, lams, holevo, params.beta * info - holevo


def key_rate(params: KeyRateParams, distance_km: float) -> KeyRateBreakdown:
    """Full chain at distance_km: transmittance -> added noises -> I(A;B) ->
    symplectic spectrum -> Holevo -> r = beta I - chi  [bits/symbol].

    xi_line and xi_det are quoted at the receiver, where both are measured,
    and the chain takes their sum xi_ex there at every distance; no noise is
    referred back to the channel input through 1/T.  Against the signal
    T (v - 1) that reaches Bob a fixed xi_ex weighs more as T falls, so
    every noisy curve has a finite cutoff.
    """
    chain = _chain_inputs(params)
    t, info, lams, holevo, rate = _rate_terms(params, distance_km, chain)
    return KeyRateBreakdown(
        transmittance=t,
        chi_het=chain[2],
        mutual_info=info,
        lambdas=lams,
        holevo=holevo,
        rate_per_symbol=rate,
    )


def key_rate_curve(params: KeyRateParams, distances) -> list[float]:
    """rate_per_symbol of :func:`key_rate` at each distance, bit for bit,
    without a breakdown object per point."""
    chain = _chain_inputs(params)
    return [_rate_terms(params, d, chain)[-1] for d in distances]


def max_distance(params: KeyRateParams) -> float:
    """Largest distance with a positive key rate, bisection-refined to
    CUTOFF_RESOLUTION_KM.  Returns 0.0 when no key is possible even back to
    back, and math.inf when the rate stays positive at every probe up to
    CUTOFF_SEARCH_KM (no cutoff within the search grid) or first reads
    non-positive where I(A;B) < _RESOLVED_INFO_BITS (too small to resolve).
    """
    chain = _chain_inputs(params)
    if _rate_terms(params, 0.0, chain)[-1] <= 0.0:
        return 0.0

    # march to bracket the FIRST sign change (the achievable range is the
    # contiguous interval from zero; near-threshold parameters can produce
    # re-entrant positive windows farther out, which do not count); stopping
    # there keeps lossy fibre clear of distances where T underflows
    for i in range(1, _CUTOFF_MARCH_STEPS + 1):
        d = CUTOFF_SEARCH_KM * i / _CUTOFF_MARCH_STEPS
        _, info, _, _, rate = _rate_terms(params, d, chain)
        if rate <= 0.0:
            if info < _RESOLVED_INFO_BITS:
                return math.inf
            lo, hi = CUTOFF_SEARCH_KM * (i - 1) / _CUTOFF_MARCH_STEPS, d
            break
    else:
        return math.inf
    while hi - lo > CUTOFF_RESOLUTION_KM:
        mid = 0.5 * (lo + hi)
        if _rate_terms(params, mid, chain)[-1] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
