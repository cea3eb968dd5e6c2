"""Heterodyne detection model with configurable quadrature asymmetry.

A 90-degree-hybrid heterodyne receiver feeds two balanced photodiode pairs,
one per quadrature.  Unequal optical power reaching the pairs (splitter
ratio, responsivity mismatch, coupling loss, ...) is absorbed into one gain
g <= 1 on the X quadrature: the trace is SNU-calibrated on the P pair.  The
gain multiplies signal and noise (shot plus electronic) alike, after the
noise, matching attenuation of the combined field after the hybrid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ValidationError, positive
from .traces import QuadratureTrace, readonly_float_array


@dataclass(frozen=True)
class HeterodyneModel:
    """Detector parameters.  asymmetry_percent in [0, 200) is the percentage
    difference between the gains (g, 1) on the X and P quadratures.
    noise_var is the variance of the noise on each quadrature before the
    gain: shot noise (1 in SNU) plus electronic noise.  hybrid_phase_error
    lies in (-pi/2, pi/2); at +-pi/2 both pairs measure one quadrature.
    Responsivity and local-oscillator power scale both quadratures alike and
    cancel in the shot-noise normalization, so they are not parameters.
    """

    asymmetry_percent: float = RunConfig.asymmetry_percent
    hybrid_phase_error: float = RunConfig.hybrid_phase_error
    noise_var: float = RunConfig.noise_var

    def __post_init__(self):
        if not 0.0 <= self.asymmetry_percent < 200.0:
            raise ValidationError(
                f"asymmetry_percent must be in [0, 200), got {self.asymmetry_percent}")
        positive("noise_var", self.noise_var)
        if not abs(self.hybrid_phase_error) < math.pi / 2.0:
            raise ValidationError(
                f"hybrid_phase_error must be in (-pi/2, pi/2), got {self.hybrid_phase_error}")


def _gain_from_percent(percent: float) -> float:
    """g with _percent_difference(g, 1) == percent: the gain on X."""
    return (200.0 - percent) / (200.0 + percent)


def _percent_difference(p1: float, p2: float) -> float:
    """Percentage difference between two positive, finite powers:
    |P1-P2| / ((P1+P2)/2) * 100.

    Symmetric in its arguments and scale invariant; range [0, 200).
    """
    # halving first, exact for such large powers, keeps an overflowed sum
    # from reading every difference as 0
    mean = (p1 + p2) / 2.0 if p1 + p2 < math.inf else p1 / 2.0 + p2 / 2.0
    return abs(p1 - p2) / mean * 100.0


def simulate_heterodyne(amplitude_sq: float, phases, det: HeterodyneModel,
                        seed: int) -> QuadratureTrace:
    """Simulate heterodyne measurement of a reference of squared quadrature
    amplitude amplitude_sq (SNU) at the true phases (radians, one per pulse;
    see :func:`hetasym.traces.make_phase_ramp`).

    For each sample with true phase theta:

        x = g * (A cos(theta) + n_x),   g = (200 - a) / (200 + a)
        p = A sin(theta + hybrid_phase_error) + n_p

    with a = asymmetry_percent, A = sqrt(amplitude_sq) and n_x, n_p
    independent zero-mean Gaussians of variance noise_var.  Identical
    arguments produce bit-identical traces; the seed must be a non-negative
    integer.
    """
    positive("amplitude_sq", amplitude_sq)
    theta = readonly_float_array(phases, "phases")
    if theta.size == 0:
        raise ValidationError("phase sweep must contain at least one point")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    amp = math.sqrt(amplitude_sq)
    noise_std = math.sqrt(det.noise_var)
    n_x = noise_std * rng.standard_normal(theta.size)
    n_p = noise_std * rng.standard_normal(theta.size)
    x = _gain_from_percent(det.asymmetry_percent) * (amp * np.cos(theta) + n_x)
    p = amp * np.sin(theta + det.hybrid_phase_error) + n_p
    # read-only, so the trace keeps these arrays instead of copying them
    x.setflags(write=False)
    p.setflags(write=False)
    return QuadratureTrace(x, p, phase_true=theta)
