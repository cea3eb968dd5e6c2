import math

import numpy as np
import pytest

from hetasym import (
    QuadratureTrace,
    ReferenceSignalSpec,
    ValidationError,
    make_phase_ramp,
)
from hetasym.traces import readonly_float_array, spans_full_rotation

TWO_PI = 2.0 * math.pi


class TestMakePhaseRamp:
    def test_four_points(self):
        np.testing.assert_allclose(make_phase_ramp(4, 0.0, TWO_PI),
                                   [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_two_points(self):
        np.testing.assert_allclose(make_phase_ramp(2, 0.0, math.pi), [0.0, math.pi / 2])

    def test_uniform_step(self):
        ramp = make_phase_ramp(360, 0.0, TWO_PI)
        np.testing.assert_allclose(np.diff(ramp), TWO_PI / 360, rtol=1e-12)
        assert ramp[0] == 0.0
        assert ramp[-1] < TWO_PI

    def test_strictly_monotone_and_duplicate_free(self):
        ramp = make_phase_ramp(1000, -1.0, 5.0)
        assert np.all(np.diff(ramp) > 0)
        assert np.unique(ramp).size == ramp.size

    @pytest.mark.parametrize("n,start,stop", [(1, 0, 1), (0, 0, 1), (5, 1.0, 1.0), (5, 2.0, 1.0),
                                              (math.nan, 0, 1), (math.inf, 0, 1), (2.5, 0, 1),
                                              (5, 0.0, math.inf), (5, math.nan, 1.0)])
    def test_rejects_bad_arguments(self, n, start, stop):
        with pytest.raises(ValidationError):
            make_phase_ramp(n, start, stop)


class TestQuadratureTrace:
    def test_basic_construction(self):
        tr = QuadratureTrace([1.0, 2.0], [3.0, 4.0], [0.1, 0.2])
        assert tr.n == 2

    def test_arrays_are_read_only(self):
        tr = QuadratureTrace([1.0], [2.0])
        with pytest.raises(ValueError):
            tr.x[0] = 5.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            QuadratureTrace([1.0, 2.0], [3.0])
        with pytest.raises(ValidationError):
            QuadratureTrace([1.0, 2.0], [3.0, 4.0], [0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            QuadratureTrace([1.0, np.nan], [3.0, 4.0])
        with pytest.raises(ValidationError):
            QuadratureTrace([1.0, 2.0], [np.inf, 4.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            QuadratureTrace([], [])

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValidationError, match=r"^x must be one-dimensional, got shape \(1, 2\)"):
            readonly_float_array([[1.0, 2.0]], "x")

    def test_require_samples_guard(self):
        tr = QuadratureTrace([1.0], [2.0])
        with pytest.raises(ValidationError):
            tr.require_samples(2, "variance")


class TestReferenceSignalSpec:
    def test_ramp_constructor(self):
        spec = ReferenceSignalSpec.ramp(552.0, 360)
        assert spec.amplitude == pytest.approx(math.sqrt(552.0))
        assert spec.sample_phases().size == 360
        assert spans_full_rotation(spec.phases)

    def test_pulses_per_phase(self):
        spec = ReferenceSignalSpec.ramp(16.0, 10, pulses_per_phase=3)
        phases = spec.sample_phases()
        assert phases.size == 30
        np.testing.assert_allclose(phases[:3], spec.phases[0])

    def test_partial_sweep_flagged(self):
        spec = ReferenceSignalSpec(16.0, make_phase_ramp(100, 0.0, math.pi))
        assert not spans_full_rotation(spec.phases)

    def test_rotation_rule_counts_distinct_phases(self):
        # per-sample phases repeat each sweep point; the rule sees the points
        spec = ReferenceSignalSpec.ramp(16.0, 90, 1.0, 1.0 + TWO_PI, pulses_per_phase=4)
        assert spans_full_rotation(spec.sample_phases()[::-1])
        assert not spans_full_rotation(spec.sample_phases()[:-8])
        assert not spans_full_rotation(np.full(10, 0.5))
        assert not spans_full_rotation(np.empty(0))

    @pytest.mark.parametrize("n, start, passes", [
        # 2 acos(0.999) = 0.0894 rad: 71 evenly spaced points pass, 70 do not
        (71, 0.0, True), (70, 0.0, False), (71, -5.0, True), (70, 3.0, False),
        (80, 0.0, True), (200, 0.0, True), (360, 0.0, True), (2000, 0.0, True),
        (25, 0.0, False), (5, 0.0, False), (3, 0.0, False), (2, 0.0, False),
    ])
    def test_largest_circular_gap_rule(self, n, start, passes):
        assert spans_full_rotation(make_phase_ramp(n, start, start + TWO_PI)) is passes

    def test_phases_required(self):
        with pytest.raises(TypeError, match="phases"):
            ReferenceSignalSpec(1.0)

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ValidationError):
            ReferenceSignalSpec(-1.0, [0.0, 1.0])
        with pytest.raises(ValidationError):
            ReferenceSignalSpec(0.0, [0.0, 1.0])

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValidationError, match="at least one point"):
            ReferenceSignalSpec(552.0, [])

    def test_rejects_bad_pulses(self):
        with pytest.raises(ValidationError):
            ReferenceSignalSpec(1.0, [0.0, 1.0], pulses_per_phase=0)

    @pytest.mark.parametrize("kwargs", [
        {"amplitude_sq": math.nan}, {"amplitude_sq": math.inf},
        {"pulses_per_phase": 1.5}, {"pulses_per_phase": math.nan},
    ])
    def test_rejects_non_finite_or_fractional(self, kwargs):
        with pytest.raises(ValidationError, match=f"^{next(iter(kwargs))} must"):
            ReferenceSignalSpec(**{"amplitude_sq": 1.0, "phases": [0.0, 1.0], **kwargs})

    def test_integral_pulses_stored_as_int(self):
        spec = ReferenceSignalSpec(1.0, phases=[0.0, 1.0], pulses_per_phase=2.0)
        assert type(spec.pulses_per_phase) is int
        np.testing.assert_array_equal(spec.sample_phases(), [0.0, 0.0, 1.0, 1.0])
