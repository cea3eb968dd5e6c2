"""Reference-phase estimation, quadrature symmetrization, and the phase-noise
budget that converts detection asymmetry into excess noise.

The phase estimator is the quadrant-aware arctangent of the block means of
(P, X); the plain tangent ratio is ambiguous across quadrants and a full
rotation sweep needs all four.  All phase differences are wrapped to
(-pi, pi] before any variance is taken, and variances use the population
form (denominator n).

numpy picks its SIMD kernels at run time, and under AVX-512 some of its
transcendentals (arctan2, exp, expm1, log, log1p, log2) give other last bits
than libm.  So no numpy transcendental may reach pinned output bytes unless
a test shows that it gives equal bits at every SIMD level
(tests/test_golden.py covers np.cos and np.sin in simulate_heterodyne and
np.mod in wrap_phase); the block phases use math.atan2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalDomainError, ValidationError, integer_at_least, non_negative, positive
from .traces import TWO_PI, QuadratureTrace


def wrap_phase(theta):
    """Map angles to (-pi, pi]."""
    wrapped = np.mod(theta, TWO_PI)
    return np.where(wrapped > math.pi, wrapped - TWO_PI, wrapped)


def estimate_phase(trace: QuadratureTrace, block: int = 1) -> np.ndarray:
    """Per-block reference phase: atan2(<P>, <X>) over consecutive blocks.

    block = 1 gives per-sample phases.  Blocks whose X and P means are both
    exactly zero have no defined phase and are returned as NaN rather than a
    silent 0; callers count and skip them.
    """
    block = integer_at_least("block", block, 1)
    if trace.n % block != 0:
        raise ValidationError(f"sample count {trace.n} is not divisible by block {block}")
    x_mean = trace.x.reshape(-1, block).mean(axis=1)
    p_mean = trace.p.reshape(-1, block).mean(axis=1)
    theta = np.fromiter(map(math.atan2, p_mean, x_mean), np.float64, count=p_mean.size)
    theta[theta == -math.pi] = math.pi
    theta[(x_mean == 0.0) & (p_mean == 0.0)] = np.nan
    return theta


def min_max_scale(trace: QuadratureTrace) -> QuadratureTrace:
    """Symmetrize a trace by mapping the X span onto the P span:

        X_scaled = (X - X_min) / (X_max - X_min) * (P_max - P_min) + P_min

    P is unchanged.  min(X_scaled) == P_min and max(X_scaled) == P_max
    exactly.  The trace must cover a phase rotation so both spans are
    nondegenerate.
    """
    if trace.n < 2:
        raise ValidationError(f"min-max scaling requires at least 2 samples, trace has {trace.n}")
    x_min, x_max = float(trace.x.min()), float(trace.x.max())
    p_min, p_max = float(trace.p.min()), float(trace.p.max())
    if x_max == x_min or p_max == p_min:
        raise ValidationError(
            "degenerate quadrature range: the trace does not cover a phase rotation"
        )
    scaled = (trace.x - x_min) / (x_max - x_min) * (p_max - p_min) + p_min
    scaled[trace.x == x_min] = p_min
    scaled[trace.x == x_max] = p_max
    return QuadratureTrace(scaled, trace.p, trace.phase_true)


def drift_phase_variance(linewidth_a: float, linewidth_b: float, pulse_separation: float) -> float:
    """Inherent phase drift between the two free-running lasers:
    2 pi (dv_A + dv_B) |t_R - t_S|  [rad^2]."""
    non_negative("linewidth_a", linewidth_a)
    non_negative("linewidth_b", linewidth_b)
    non_negative("pulse_separation", pulse_separation)
    return TWO_PI * (linewidth_a + linewidth_b) * pulse_separation


def detection_phase_variance(theta_scaled, theta_asym) -> float:
    """Asymmetry-induced phase estimation error: population variance of the
    wrapped difference between scaled (ideal-proxy) and asymmetric phase
    estimates  [rad^2]."""
    a = np.asarray(theta_scaled, dtype=np.float64)
    b = np.asarray(theta_asym, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(
            f"detection variance: sequences differ in length ({a.size} vs {b.size})")
    if a.size < 2:
        raise ValidationError(f"detection variance: need at least 2 samples, got {a.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("detection variance: non-finite phase values")
    return float(np.var(wrap_phase(a - b)))


def excess_noise_from_phase_variance(v_a: float, v: float) -> float:
    """Excess noise a phase-error variance v [rad^2] imprints on quantum
    signals of modulation variance v_a:  2 v_A (1 - exp(-v/2))  [SNU].

    For small v this is approximately v_a * v.
    """
    positive("v_a", v_a)
    non_negative("v", v)
    return 2.0 * v_a * -math.expm1(-v / 2.0)


def phase_variance_from_excess_noise(v_a: float, xi: float) -> float:
    """Inverse of :func:`excess_noise_from_phase_variance`:
    v = -2 ln(1 - xi / (2 v_A))."""
    positive("v_a", v_a)
    non_negative("xi", xi)
    if xi >= 2.0 * v_a:
        raise NumericalDomainError(
            f"xi = {xi} is unreachable: the phase-noise model saturates at 2 v_A = {2 * v_a}"
        )
    return -2.0 * math.log1p(-xi / (2.0 * v_a))
