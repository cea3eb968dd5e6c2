"""Core quadrature data types.

Every trace is in dimensionless shot-noise units (SNU): the vacuum
quadrature variance is 1 at the detector output after normalization.
Tomography alone works in another convention (vacuum variance 1/2) and
converts on ingestion (see :func:`hetasym.tomography.samples_from_trace`).

Phases are radians everywhere, in the library and in every output file.

The types that hold arrays compare and hash by identity (``eq=False``):
``==`` on arrays is elementwise, so a generated ``__eq__`` could only raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ValidationError, integer_at_least

TWO_PI = 2.0 * math.pi


def readonly_float_array(values, name: str) -> np.ndarray:
    """values as a read-only float64 array; raises unless it is 1-D and
    finite.  A read-only float64 ndarray that owns its data is returned as it
    is, so traces derived from a trace share its arrays; anything else is
    copied, since a writeable array or its views could change under it."""
    if (type(values) is np.ndarray and values.dtype == np.float64 and values.base is None
            and not values.flags.writeable):
        arr = values
    else:
        arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
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


#: Most pulses in one sweep: ``simulate`` of 10**7 takes about 21 s and 730 MiB.
_MAX_PULSES = 10**7


def make_phase_ramp(n_phases: int, pulses_per_phase: int = RunConfig.pulses_per_phase) -> np.ndarray:
    """Per-pulse phases of a sweep over one full turn from 0: the n_phases
    points 2 pi k / n_phases, each repeated pulses_per_phase times."""
    n = integer_at_least("n_phases", n_phases, 2)
    pulses = integer_at_least("pulses_per_phase", pulses_per_phase, 1)
    if n * pulses > _MAX_PULSES:
        raise ValidationError(f"n_phases * pulses_per_phase = {n} * {pulses} is more than "
                              f"{_MAX_PULSES} pulses")
    return np.repeat(TWO_PI * np.arange(n) / n, pulses)
