"""Asymptotic secret-key rate under collective attacks with reverse
reconciliation, for Gaussian-modulated coherent states read out by
heterodyne detection with trusted detector noise.

The rate is r = beta I(A;B) - chi(B;E) per symbol; Eve's Holevo
information chi(B;E) comes from the symplectic spectrum of the shared
two-mode covariance matrix before and after Bob's measurement.  Detection
efficiency eta and electronic noise v_elec enter only through chi_het
(trusted-detector model).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NumericalDomainError, ValidationError

#: Tolerated numerical undershoot on discriminants and symplectic
#: eigenvalues before parameters are declared unphysical.
CLAMP_TOL = 1e-9


def transmittance(alpha_db_per_km: float, distance_km: float) -> float:
    """Fiber power transmittance T = 10^(-alpha d / 10)."""
    if not (alpha_db_per_km >= 0 and distance_km >= 0):  # NaN fails too
        raise ValidationError("loss coefficient and distance must be >= 0")
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def chi_line(t: float, xi_ex: float) -> float:
    """Channel-referred added noise: chi_line = 1/T - 1 + xi_ex  [SNU]."""
    if not (0.0 < t <= 1.0):
        raise ValidationError(f"transmittance must be in (0, 1], got {t}")
    if not (xi_ex >= 0):
        raise ValidationError(f"excess noise must be >= 0, got {xi_ex}")
    return 1.0 / t - 1.0 + xi_ex


def chi_het(eta: float, v_elec: float) -> float:
    """Heterodyne detection added noise: (2 - eta + 2 v_elec) / eta  [SNU]."""
    if not (0.0 < eta <= 1.0):
        raise ValidationError(f"detection efficiency must be in (0, 1], got {eta}")
    if not (v_elec >= 0):
        raise ValidationError(f"electronic noise must be >= 0, got {v_elec}")
    return (2.0 - eta + 2.0 * v_elec) / eta


def mutual_information(v: float, chi_line_value: float) -> float:
    """Alice-Bob mutual information for heterodyne readout:
    I(A;B) = 1/2 log2((v + chi_line) / (1 + chi_line))  [bits/symbol],
    with v = V_A + 1."""
    if not (v > 1.0):
        raise ValidationError(f"v = V_A + 1 must exceed 1, got {v}")
    if not (chi_line_value >= 0):
        raise ValidationError(f"chi_line must be >= 0, got {chi_line_value}")
    return 0.5 * math.log2((v + chi_line_value) / (1.0 + chi_line_value))


def g_entropy(x: float) -> float:
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2 x, with g(0) = 0."""
    if not (x >= 0):
        raise ValidationError(f"g(x) needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


# The clamps in this chain spell max(x, lo) as `lo if lo > x else x`: the
# same value (NaN included) without a builtin call, of which a key-rate
# sweep would make about 17 per distance.
def _clamped_sqrt(value: float, what: str, slack: float = CLAMP_TOL) -> float:
    if value < -slack:
        raise NumericalDomainError(f"{what} = {value} is negative beyond tolerance (unphysical parameters)")
    return math.sqrt(0.0 if 0.0 > value else value)

#: Cancellation in A^2 - 4B is at machine epsilon relative to A^2, so the
#: physicality guards must scale with the discriminant inputs; a fixed
#: absolute tolerance rejects exactly degenerate points such as T = 1.
_EPS = sys.float_info.epsilon
_LAM_SLACK = 4.0 * math.sqrt(_EPS)


def symplectic_spectrum(v: float, t: float, chi_line_value: float,
                        chi_het_value: float) -> tuple[float, float, float, float]:
    """Symplectic eigenvalues (lambda1..4) of the shared state before and
    after Bob's heterodyne measurement.

    With chi_total = chi_line + chi_het / T:

        A = v^2 (1 - 2T) + 2T + T^2 (v + chi_line)^2
        B = T^2 (1 + v chi_line)^2
        C = (A chi_het^2 + B + 1 + 2 chi_het [v sqrt(B) + T (v + chi_line)]
             + 2T (v^2 - 1)) / (T (v + chi_total))^2
        D = (v + chi_het sqrt(B))^2 / (T (v + chi_total))^2
        lambda_{1,2} = sqrt((A +/- sqrt(A^2 - 4B)) / 2), likewise for C, D.

    Eigenvalues are >= 1 up to a clamped undershoot of CLAMP_TOL; larger
    violations raise NumericalDomainError.
    """
    if not (v > 1.0):
        raise ValidationError(f"v = V_A + 1 must exceed 1, got {v}")
    if not (0.0 < t <= 1.0):
        raise ValidationError(f"transmittance must be in (0, 1], got {t}")
    if not (chi_line_value >= 0 and chi_het_value >= 0):
        raise ValidationError("added-noise terms must be >= 0")

    chi_total = chi_line_value + chi_het_value / t
    t_v_chi_sq = (t * (v + chi_line_value)) ** 2
    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + t_v_chi_sq
    b = (t * (1.0 + v * chi_line_value)) ** 2
    sqrt_b = math.sqrt(b)
    denom = (t * (v + chi_total)) ** 2
    c = (a * chi_het_value ** 2 + b + 1.0
         + 2.0 * chi_het_value * (v * sqrt_b + t * (v + chi_line_value))
         + 2.0 * t * (v * v - 1.0)) / denom
    d = (v + chi_het_value * sqrt_b) ** 2 / denom

    # A sums terms of size v^2 + T^2 (v + chi_line)^2 that cancel near T = 1,
    # so its rounding error scales with that size; C sums non-negative terms
    lams = []
    for big, size, small, tag in ((a, v * v + t_v_chi_sq, b, "A^2 - 4B"),
                                  (c, c, d, "C^2 - 4D")):
        disc_slack = CLAMP_TOL + 16.0 * _EPS * big * size
        disc = _clamped_sqrt(big * big - 4.0 * small, tag, disc_slack)
        lam_slack = CLAMP_TOL + _LAM_SLACK * math.sqrt(big * size)
        for sign in (1.0, -1.0):
            lam = _clamped_sqrt(0.5 * (big + sign * disc), "symplectic eigenvalue^2")
            if lam < 1.0 - lam_slack:
                raise NumericalDomainError(
                    f"symplectic eigenvalue {lam} < 1 beyond tolerance (unphysical parameters)"
                )
            lams.append(1.0 if 1.0 > lam else lam)
    return lams[0], lams[1], lams[2], lams[3]


def holevo_bound(lams: tuple[float, float, float, float]) -> float:
    """Eve's Holevo information from the symplectic spectrum:
    chi(B;E) = g((l1-1)/2) + g((l2-1)/2) - g((l3-1)/2) - g((l4-1)/2),
    clamped below at 0  [bits/symbol]."""
    if len(lams) != 4:
        raise ValidationError(f"expected four symplectic eigenvalues, got {len(lams)}")
    for lam in lams:
        if lam < 1.0 - CLAMP_TOL:
            raise NumericalDomainError(f"symplectic eigenvalue {lam} < 1 beyond tolerance")
    l1, l2, l3, l4 = (1.0 if 1.0 > lam else lam for lam in lams)
    value = (g_entropy((l1 - 1.0) / 2.0) + g_entropy((l2 - 1.0) / 2.0)
             - g_entropy((l3 - 1.0) / 2.0) - g_entropy((l4 - 1.0) / 2.0))
    return 0.0 if 0.0 > value else value


@dataclass(frozen=True)
class KeyRateParams:
    """All inputs of the asymptotic key-rate chain but the distance."""

    v_a: float = 10.0
    beta: float = 0.93
    xi_line: float = 0.02
    xi_det: float = 0.0
    eta: float = 0.68
    v_elec: float = 0.1
    alpha_db_per_km: float = 0.2

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0.0 < self.v_a < math.inf):
            raise ValidationError(f"v_a must be positive and finite, got {self.v_a}")
        if not (0.0 < self.beta <= 1.0):
            raise ValidationError(f"beta must be in (0, 1], got {self.beta}")
        if not (0.0 < self.eta <= 1.0):
            raise ValidationError(f"eta must be in (0, 1], got {self.eta}")
        for name in ("xi_line", "xi_det", "v_elec", "alpha_db_per_km"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")

    @property
    def v(self) -> float:
        return self.v_a + 1.0

    @property
    def xi_ex(self) -> float:
        """Total excess noise: lumped channel noise plus asymmetry noise."""
        return self.xi_line + self.xi_det


@dataclass(frozen=True)
class KeyRateBreakdown:
    """Every intermediate of one key-rate evaluation."""

    transmittance: float
    chi_line: float
    chi_het: float
    chi_total: float
    mutual_info: float
    lambdas: tuple[float, float, float, float]
    holevo: float
    rate_per_symbol: float

    @property
    def has_key(self) -> bool:
        """False flags a negative rate (no key); rates are never clamped."""
        return self.rate_per_symbol > 0.0


def _rate_terms(params: KeyRateParams, distance_km: float, chi_h: float):
    """(T, chi_line, I(A;B), symplectic spectrum, Holevo bound, rate) at one
    distance; chi_h is chi_het(params.eta, params.v_elec)."""
    t = transmittance(params.alpha_db_per_km, distance_km)
    v, xi_ex = params.v, params.xi_ex
    # v chi_line and chi_total stay below (v (1 + xi_ex) + chi_het) / T; past
    # the float range they turn into inf, NaN or a division by zero
    if not t * sys.float_info.max > v * (1.0 + xi_ex) + chi_h:
        raise NumericalDomainError(f"T = {t!r} at {distance_km} km is too small for the key-rate chain")
    chi_l = chi_line(t, xi_ex / t)
    info = mutual_information(v, chi_l)
    lams = symplectic_spectrum(v, t, chi_l, chi_h)
    holevo = holevo_bound(lams)
    return t, chi_l, info, lams, holevo, params.beta * info - holevo


def key_rate(params: KeyRateParams, distance_km: float) -> KeyRateBreakdown:
    """Full chain at distance_km: transmittance -> added noises -> I(A;B) ->
    symplectic spectrum -> Holevo -> r = beta I - chi  [bits/symbol].

    xi_line and xi_det are quoted at the receiver, where both are measured;
    composing them into chi_line refers them back to the channel input
    through the transmittance (xi_ex / T), so their penalty grows with
    distance and every noisy curve has a finite cutoff.  Back to back
    (T = 1) the two conventions coincide.
    """
    chi_h = chi_het(params.eta, params.v_elec)
    t, chi_l, info, lams, holevo, rate = _rate_terms(params, distance_km, chi_h)
    return KeyRateBreakdown(
        transmittance=t,
        chi_line=chi_l,
        chi_het=chi_h,
        chi_total=chi_l + chi_h / t,
        mutual_info=info,
        lambdas=lams,
        holevo=holevo,
        rate_per_symbol=rate,
    )


def key_rate_curve(params: KeyRateParams, distances) -> list[float]:
    """rate_per_symbol of :func:`key_rate` at each distance, bit for bit,
    without a breakdown object per point."""
    chi_h = chi_het(params.eta, params.v_elec)
    return [_rate_terms(params, d, chi_h)[-1] for d in distances]


def max_distance(params: KeyRateParams, resolution_km: float = 0.01,
                 max_search_km: float = 1000.0) -> float:
    """Largest distance with a positive key rate, bisection-refined to
    resolution_km.  Returns 0.0 when no key is possible even back to back,
    and math.inf when the rate stays positive at every probe up to
    max_search_km (no cutoff within the search grid).
    """
    if not (resolution_km > 0):
        raise ValidationError(f"resolution must be positive, got {resolution_km}")
    chi_h = chi_het(params.eta, params.v_elec)
    if _rate_terms(params, 0.0, chi_h)[-1] <= 0.0:
        return 0.0

    # march to bracket the FIRST sign change (the achievable range is the
    # contiguous interval from zero; near-threshold parameters can produce
    # re-entrant positive windows farther out, which do not count); stopping
    # there keeps lossy fibre clear of distances where T underflows
    steps = min(4096, max(64, int(math.ceil(max_search_km / resolution_km))))
    for i in range(1, steps + 1):
        d = max_search_km * i / steps
        if _rate_terms(params, d, chi_h)[-1] <= 0.0:
            lo, hi = max_search_km * (i - 1) / steps, d
            break
    else:
        return math.inf
    while hi - lo > resolution_km:
        mid = 0.5 * (lo + hi)
        if _rate_terms(params, mid, chi_h)[-1] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
