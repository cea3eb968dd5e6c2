"""Core quadrature data types.

Every trace is in dimensionless shot-noise units (SNU): the vacuum
quadrature variance is 1 at the detector output after normalization.
Tomography alone works in another convention (vacuum variance 1/2) and
converts on ingestion (see :func:`hetasym.tomography.samples_from_trace`).

Phases are radians everywhere, in the library and in every output file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer_at_least, positive

TWO_PI = 2.0 * math.pi


def readonly_float_array(values, name: str) -> np.ndarray:
    """values as a read-only float64 copy; raises unless it is 1-D and
    finite."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadratureTrace:
    """Paired X/P quadrature samples in SNU, optionally tagged with the true
    phase.

    The universal data currency: every module accepts any trace that this
    constructor accepts.
    """

    x: np.ndarray
    p: np.ndarray
    phase_true: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", readonly_float_array(self.x, "x"))
        object.__setattr__(self, "p", readonly_float_array(self.p, "p"))
        if len(self.x) != len(self.p):
            raise ValidationError(
                f"x and p must have equal length, got {len(self.x)} and {len(self.p)}"
            )
        if len(self.x) == 0:
            raise ValidationError("trace must contain at least one sample")
        if self.phase_true is not None:
            phases = readonly_float_array(self.phase_true, "phase_true")
            if len(phases) != len(self.x):
                raise ValidationError(
                    f"phase_true length {len(phases)} does not match sample count {len(self.x)}"
                )
            object.__setattr__(self, "phase_true", phases)

    @property
    def n(self) -> int:
        return len(self.x)

    def require_samples(self, minimum: int, what: str) -> None:
        """Guard for operations that need a range or variance (n >= 2)."""
        if self.n < minimum:
            raise ValidationError(f"{what} requires at least {minimum} samples, trace has {self.n}")


@dataclass(frozen=True)
class ReferenceSignalSpec:
    """Description of the phase-swept reference (pilot) signal.

    amplitude_sq is the squared quadrature amplitude of the reference in SNU
    (e.g. 552 for the monitored reference level); phases holds the true
    phase of each phase point and pulses_per_phase repeats each point.
    """

    amplitude_sq: float
    phases: np.ndarray
    pulses_per_phase: int = 1

    def __post_init__(self):
        positive("amplitude_sq", self.amplitude_sq)
        object.__setattr__(self, "phases", readonly_float_array(self.phases, "phases"))
        if len(self.phases) == 0:
            raise ValidationError("phase sweep must contain at least one point")
        object.__setattr__(self, "pulses_per_phase",
                           integer_at_least("pulses_per_phase", self.pulses_per_phase, 1))

    @classmethod
    def ramp(cls, amplitude_sq: float, n_phases: int, start: float = 0.0,
             stop: float = TWO_PI, pulses_per_phase: int = 1) -> "ReferenceSignalSpec":
        return cls(amplitude_sq, make_phase_ramp(n_phases, start, stop), pulses_per_phase)

    @property
    def amplitude(self) -> float:
        return math.sqrt(self.amplitude_sq)

    def sample_phases(self) -> np.ndarray:
        """Per-sample true phases (each phase point repeated per pulse)."""
        return np.repeat(self.phases, self.pulses_per_phase)


def _distinct(values) -> np.ndarray:
    """Sorted distinct values.  np.unique without return_counts checks for a
    masked array first, which imports numpy.ma: 10-16 ms of every command
    that calls it."""
    return np.unique(values, return_counts=True)[0]


#: Widest circular gap between neighbouring sweep points that min-max can
#: use.  Every phase lies within g/2 of a sweep point, so each quadrature
#: extreme A cos(theta - theta_max) is reached to within A (1 - cos(g/2)).
#: cos(g/2) >= 0.999 misses at most 1e-3 of each span, which moves the span
#: asymmetry by at most 0.1 pp, about a tenth of min-max's noise sd:
#: g <= 2 acos(0.999) = 0.0894 rad, at least 71 evenly spaced points.
_MAX_SWEEP_GAP = 2.0 * math.acos(0.999)


def spans_full_rotation(phases) -> bool:
    """True when the distinct phases, wrapped into one period, leave no
    circular gap between neighbours wider than ``_MAX_SWEEP_GAP``.  Repeats
    of a phase point (several pulses per phase) do not count as extra
    points, and no phases cover nothing."""
    points = _distinct(np.mod(phases, TWO_PI))
    if points.size == 0:
        return False
    gaps = np.diff(points, append=points[0] + TWO_PI)
    return float(gaps.max()) <= _MAX_SWEEP_GAP


def make_phase_ramp(n_phases: int, start: float, stop: float) -> np.ndarray:
    """n_phases equally spaced phases covering [start, stop), the first at start."""
    n = integer_at_least("n_phases", n_phases, 2)
    span = positive("stop - start", stop - start)
    return start + span * np.arange(n) / n
