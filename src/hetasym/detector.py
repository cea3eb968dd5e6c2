"""Heterodyne detection model with configurable quadrature asymmetry.

A 90-degree-hybrid heterodyne receiver feeds two balanced photodiode pairs,
one per quadrature.  Unequal optical power reaching the pairs (splitter
ratio, responsivity mismatch, coupling loss, ...) scales the difference
photocurrents unequally; all causes are absorbed into one multiplicative
power gain per quadrature.  Shot noise is injected before the gain, so
asymmetry scales signal and noise together, matching attenuation of the
combined field after the hybrid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .traces import QuadratureTrace, ReferenceSignalSpec


@dataclass(frozen=True)
class HeterodyneModel:
    """Detector parameters; per-quadrature gains encode the asymmetry.

    gain_x / gain_p are dimensionless power factors in (0, 1] applied to the
    light reaching the X / P balanced pair.  Photodiode responsivity and
    local-oscillator power scale both quadratures alike and cancel in the
    shot-noise normalization, so they are not parameters.
    """

    gain_x: float = 1.0
    gain_p: float = 1.0
    hybrid_phase_error: float = 0.0
    shot_noise_var: float = 1.0
    elec_noise_var: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.gain_x <= 1.0):
            raise ValidationError(f"gain_x must be in (0, 1], got {self.gain_x}")
        if not (0.0 < self.gain_p <= 1.0):
            raise ValidationError(f"gain_p must be in (0, 1], got {self.gain_p}")
        # written so that NaN fails every check
        if not (0.0 < self.shot_noise_var < math.inf):
            raise ValidationError(
                f"shot_noise_var must be positive and finite, got {self.shot_noise_var}")
        if not (0.0 <= self.elec_noise_var < math.inf):
            raise ValidationError(
                f"elec_noise_var must be finite and >= 0, got {self.elec_noise_var}")
        if not math.isfinite(self.hybrid_phase_error):
            raise ValidationError(
                f"hybrid_phase_error must be finite, got {self.hybrid_phase_error}")

    @property
    def asymmetry_percent(self) -> float:
        """Percentage difference between the two quadrature gains."""
        return percent_difference(self.gain_x, self.gain_p)


def percent_difference(p1: float, p2: float) -> float:
    """Percentage difference between two powers: |P1-P2| / ((P1+P2)/2) * 100.

    Symmetric in its arguments and scale invariant; range [0, 200).
    """
    if p1 <= 0 or p2 <= 0:
        raise ValidationError(f"powers must be positive, got ({p1}, {p2})")
    return abs(p1 - p2) / ((p1 + p2) / 2.0) * 100.0


def gains_from_percent(percent: float) -> tuple[float, float]:
    """Gains (g, 1) with g <= 1 realizing a given percentage difference.

    Inverse of :func:`percent_difference` on the second argument held at 1:
    g = (200 - percent) / (200 + percent).
    """
    if not (0.0 <= percent < 200.0):
        raise ValidationError(f"percent must be in [0, 200), got {percent}")
    return (200.0 - percent) / (200.0 + percent), 1.0


def simulate_heterodyne(signal: ReferenceSignalSpec, det: HeterodyneModel,
                        seed: int) -> QuadratureTrace:
    """Simulate heterodyne measurement of the phase-swept reference signal.

    For each sample with true phase theta:

        x = gain_x * (A cos(theta) + n_x)
        p = gain_p * (A sin(theta + hybrid_phase_error) + n_p)

    with A = sqrt(amplitude_sq) and n_x, n_p independent zero-mean Gaussians
    of variance shot_noise_var + elec_noise_var.  Identical (signal, det,
    seed) produce bit-identical traces; the seed must be a non-negative
    integer.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    theta = signal.sample_phases()
    amp = signal.amplitude
    noise_std = math.sqrt(det.shot_noise_var + det.elec_noise_var)
    n_x = noise_std * rng.standard_normal(theta.size)
    n_p = noise_std * rng.standard_normal(theta.size)
    x = det.gain_x * (amp * np.cos(theta) + n_x)
    p = det.gain_p * (amp * np.sin(theta + det.hybrid_phase_error) + n_p)
    return QuadratureTrace(x, p, phase_true=theta)
