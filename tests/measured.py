"""Shared by the test modules: the detection asymmetries measured in the
paper with the detection excess noise catalogued at each, the closed-form
phase deviation, and the variance of a wrapped phase difference."""

import numpy as np

from hetasym.phase import wrap_phase

#: asymmetry levels [%], largest first
MEASURED_LEVELS = [33.77, 19.51, 14.29, 4.55, 2.25]
#: xi_det [SNU] at each level of MEASURED_LEVELS, in the same order
MEASURED_XI_DET = [0.1091, 0.0318, 0.0140, 0.0032, 0.0016]


def deviation_oracle(gain: float, theta: np.ndarray) -> np.ndarray:
    """Closed-form deviation of the asymmetric estimate from the true phase
    theta, for an x gain g: wrap(atan2(sin theta, g cos theta) - theta)."""
    return wrap_phase(np.arctan2(np.sin(theta), gain * np.cos(theta)) - theta)


def deviation_variance(theta: np.ndarray, other: np.ndarray) -> float:
    """Population variance of wrap(theta - other) [rad^2]: v_det, as
    analyze_sweep takes it from its delta_theta rows."""
    return float(np.var(wrap_phase(theta - other)))
