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
from dataclasses import dataclass, fields

import numpy as np

from .config import RunConfig
from .errors import ValidationError, integer_at_least, non_negative, positive
from .traces import TWO_PI, QuadratureTrace, spans_full_rotation


def wrap_phase(theta):
    """Map angles to (-pi, pi]."""
    wrapped = np.mod(theta, TWO_PI)
    return np.where(wrapped > math.pi, wrapped - TWO_PI, wrapped)


def _estimate_phase(trace: QuadratureTrace, block: int = RunConfig.block) -> np.ndarray:
    """Per-block reference phase: atan2(<P>, <X>) over consecutive blocks.

    block = 1 gives per-sample phases.  Blocks whose X and P means are both
    exactly zero have no defined phase and are returned as NaN rather than a
    silent 0; callers count and skip them.
    """
    block = integer_at_least("block", block, 1)
    if trace.n % block != 0:
        raise ValidationError(f"sample count {trace.n} is not divisible by block {block}")
    # an overflowed mean is checked below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        x_mean = trace.x.reshape(-1, block).mean(axis=1)
        p_mean = trace.p.reshape(-1, block).mean(axis=1)
    for name, values, means in (("x", trace.x, x_mean), ("p", trace.p, p_mean)):
        # min and max need no temporary array, and a NaN fails both tests
        if not -math.inf < means.min() <= means.max() < math.inf:
            start = int(np.flatnonzero(~np.isfinite(means))[0]) * block
            largest = float(np.abs(values[start:start + block]).max())
            raise ValidationError(f"the {name} mean of samples {start}..{start + block - 1} "
                                  f"overflows float64 (largest |{name}| {largest!r})")
    # math.atan2 is faster on Python floats than on numpy scalars, with the same bits
    theta = np.fromiter(map(math.atan2, p_mean.tolist(), x_mean.tolist()), np.float64,
                        count=p_mean.size)
    theta[theta == -math.pi] = math.pi
    theta[(x_mean == 0.0) & (p_mean == 0.0)] = np.nan
    return theta


def _min_max_scale(trace: QuadratureTrace) -> QuadratureTrace:
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
    for name, low, high in (("x", x_min, x_max), ("p", p_min, p_max)):
        if not high - low < math.inf:
            raise ValidationError(f"the {name} span {high!r} - {low!r} overflows float64")
    if x_max == x_min or p_max == p_min:
        raise ValidationError(
            "degenerate quadrature range: the trace does not cover a phase rotation"
        )
    scaled = (trace.x - x_min) / (x_max - x_min) * (p_max - p_min) + p_min
    scaled[trace.x == x_min] = p_min
    scaled[trace.x == x_max] = p_max
    scaled.setflags(write=False)  # the trace keeps it instead of a copy
    return QuadratureTrace(scaled, trace.p, trace.phase_true)


def _excess_noise_from_phase_variance(v_a: float, v: float) -> float:
    """Excess noise a phase-error variance v [rad^2] imprints on quantum
    signals of modulation variance v_a:  2 v_A (1 - exp(-v/2))  [SNU].

    For small v this is approximately v_a * v.
    """
    positive("v_a", v_a)
    # an infinite v would give the plausible-looking xi = 2 v_A
    non_negative("v", v)
    return 2.0 * v_a * -math.expm1(-v / 2.0)


@dataclass(frozen=True, eq=False)
class SweepAnalysis:
    """A swept trace's analysis: its min-max scaled copy, the kept block phases theta_scaled
    and delta_theta = wrap(theta_asym - theta_scaled), whose population variance is
    v_det_rad2, then the scale report's values, named and ordered as its keys."""

    scaled: QuadratureTrace
    theta_scaled: np.ndarray
    delta_theta: np.ndarray
    span_x: float
    span_p: float
    asymmetry_percent: float
    undefined_blocks_dropped: int
    v_det_rad2: float
    xi_det_snu: float

    def report(self) -> list[tuple[str, object]]:
        """(key, value) of each report value: every field after the phases."""
        return [(field.name, getattr(self, field.name)) for field in fields(self)[3:]]


def analyze_sweep(trace: QuadratureTrace, block: int = RunConfig.block,
                  v_a: float = RunConfig.v_a) -> SweepAnalysis:
    """The analysis behind ``hetasym scale`` and ``phase-deviation``: min-max scale a swept
    trace, compare its block phases with the scaled copy's, and turn the variance v_det of
    their deviation into excess noise.  The sweep (``phase_true``, else the defined block
    phases) must cover a full rotation densely, or its spans misstate the asymmetry.  A block
    with no phase in either trace is dropped from both, and at least two blocks must remain."""
    # imported here: tomography loads this module for estimated tags, and no detector
    from .detector import _percent_difference

    theta_asym = _estimate_phase(trace, block)
    if trace.phase_true is not None:
        phases, what = trace.phase_true, "phase_true does"
    else:
        phases, what = theta_asym[np.isfinite(theta_asym)], "the estimated block phases do"
    if not spans_full_rotation(phases):
        raise ValidationError(f"{what} not cover a full rotation densely enough for the "
                              "quadrature spans to measure the asymmetry")
    scaled = _min_max_scale(trace)
    try:
        theta_scaled = _estimate_phase(scaled, block)
    except ValidationError as exc:
        # the scaled x spans p's range, so its block means can overflow
        # where the input's x cannot: say which trace the means are of
        raise ValidationError(f"x scaled onto the p span: {exc}") from None
    keep = np.isfinite(theta_asym) & np.isfinite(theta_scaled)
    defined = int(keep.sum())
    if defined < 2:
        raise ValidationError(f"too few defined phase blocks: {defined} of {keep.size} have "
                              "a phase before and after scaling, and the phase deviation "
                              "needs at least 2")
    theta_scaled = theta_scaled[keep]
    delta_theta = wrap_phase(theta_asym[keep] - theta_scaled)
    span_x = float(trace.x.max() - trace.x.min())
    span_p = float(trace.p.max() - trace.p.min())
    # the CLI holds no other reference: this frees the input before the budget's temporaries
    del trace
    v_det = float(np.var(delta_theta))
    return SweepAnalysis(scaled, theta_scaled, delta_theta, span_x, span_p,
                         _percent_difference(span_x, span_p), keep.size - defined, v_det,
                         _excess_noise_from_phase_variance(v_a, v_det))
