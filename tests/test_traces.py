import math

import numpy as np
import pytest

from hetasym import (
    HeterodyneModel,
    QuadratureTrace,
    ValidationError,
    make_phase_ramp,
    simulate_heterodyne,
)
from hetasym.phase import _min_max_scale
from hetasym.tomography import DensityMatrix, MLEResult, PhaseTaggedSamples, WignerGrid
from hetasym.traces import _MAX_PULSES, readonly_float_array, spans_full_rotation

TWO_PI = 2.0 * math.pi


class TestMakePhaseRamp:
    def test_four_points(self):
        np.testing.assert_allclose(make_phase_ramp(4),
                                   [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_two_points(self):
        np.testing.assert_allclose(make_phase_ramp(2), [0.0, math.pi])

    def test_uniform_step(self):
        ramp = make_phase_ramp(360)
        np.testing.assert_allclose(np.diff(ramp), TWO_PI / 360, rtol=1e-12)
        assert ramp[0] == 0.0
        assert ramp[-1] < TWO_PI

    def test_strictly_monotone_and_duplicate_free(self):
        ramp = make_phase_ramp(1000)
        assert np.all(np.diff(ramp) > 0)
        assert np.unique(ramp).size == ramp.size

    @pytest.mark.parametrize("n", [1, 0, math.nan, math.inf, 2.5])
    def test_rejects_bad_arguments(self, n):
        with pytest.raises(ValidationError):
            make_phase_ramp(n)

    def test_pulse_cap_is_inclusive(self, monkeypatch):
        # at the cap the ramp is built; np.repeat is stubbed so that nothing
        # of the 80 MB it would take is allocated
        sizes = []
        monkeypatch.setattr(np, "repeat", lambda values, pulses: sizes.append(values.size * pulses))
        make_phase_ramp(2, _MAX_PULSES // 2)
        assert sizes == [_MAX_PULSES]
        with pytest.raises(ValidationError, match="^n_phases \\* pulses_per_phase = 2 \\* "):
            make_phase_ramp(2, _MAX_PULSES // 2 + 1)


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
        with pytest.raises(ValidationError,
                           match="^min-max scaling requires at least 2 samples, trace has 1$"):
            _min_max_scale(tr)


class TestReferenceSignalSpec:
    """The reference signal is specified by its squared amplitude, which
    simulate_heterodyne takes, and its per-pulse phases, which
    make_phase_ramp builds; each is checked where it enters."""

    def test_ramp_constructor(self):
        phases = make_phase_ramp(360)
        assert phases.size == 360
        assert spans_full_rotation(phases)
        trace = simulate_heterodyne(552.0, phases, HeterodyneModel(noise_var=1e-30), 0)
        np.testing.assert_allclose(np.hypot(trace.x, trace.p), math.sqrt(552.0), rtol=1e-12)

    def test_pulses_per_phase(self):
        phases = make_phase_ramp(10, pulses_per_phase=3)
        assert phases.size == 30
        np.testing.assert_array_equal(phases, np.repeat(make_phase_ramp(10), 3))

    def test_partial_sweep_flagged(self):
        assert not spans_full_rotation(make_phase_ramp(200)[:100])

    def test_rotation_rule_counts_distinct_phases(self):
        # per-sample phases repeat each sweep point; the rule sees the points
        phases = 1.0 + make_phase_ramp(90, pulses_per_phase=4)
        assert spans_full_rotation(phases[::-1])
        assert not spans_full_rotation(phases[:-8])
        assert not spans_full_rotation(np.full(10, 0.5))
        assert not spans_full_rotation(np.empty(0))

    @pytest.mark.parametrize("n, start, passes", [
        # 2 acos(0.999) = 0.0894 rad: 71 evenly spaced points pass, 70 do not
        (71, 0.0, True), (70, 0.0, False), (71, -5.0, True), (70, 3.0, False),
        (80, 0.0, True), (200, 0.0, True), (360, 0.0, True), (2000, 0.0, True),
        (25, 0.0, False), (5, 0.0, False), (3, 0.0, False), (2, 0.0, False),
    ])
    def test_largest_circular_gap_rule(self, n, start, passes):
        assert spans_full_rotation(start + make_phase_ramp(n)) is passes

    def test_phases_required(self):
        with pytest.raises(TypeError, match="phases"):
            simulate_heterodyne(1.0, det=HeterodyneModel(), seed=0)

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ValidationError):
            simulate_heterodyne(-1.0, [0.0, 1.0], HeterodyneModel(), 0)
        with pytest.raises(ValidationError):
            simulate_heterodyne(0.0, [0.0, 1.0], HeterodyneModel(), 0)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValidationError, match="at least one point"):
            simulate_heterodyne(552.0, [], HeterodyneModel(), 0)

    def test_rejects_bad_pulses(self):
        with pytest.raises(ValidationError):
            make_phase_ramp(2, pulses_per_phase=0)

    @pytest.mark.parametrize("kwargs", [
        {"amplitude_sq": math.nan}, {"amplitude_sq": math.inf},
        {"pulses_per_phase": 1.5}, {"pulses_per_phase": math.nan},
    ])
    def test_rejects_non_finite_or_fractional(self, kwargs):
        spec = {"amplitude_sq": 1.0, "pulses_per_phase": 1, **kwargs}
        with pytest.raises(ValidationError, match=f"^{next(iter(kwargs))} must"):
            phases = make_phase_ramp(2, spec["pulses_per_phase"])
            simulate_heterodyne(spec["amplitude_sq"], phases, HeterodyneModel(), 0)

    def test_integral_pulses_stored_as_int(self):
        np.testing.assert_array_equal(make_phase_ramp(2, pulses_per_phase=2.0),
                                      [0.0, 0.0, math.pi, math.pi])


#: a fresh instance of each type that holds arrays
ARRAY_HOLDERS = {
    "QuadratureTrace": lambda: QuadratureTrace([1.0, 2.0], [3.0, 4.0]),
    "PhaseTaggedSamples": lambda: PhaseTaggedSamples([0.0, 1.0, 2.0, 3.2], [0.1] * 4),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2.0),
    "WignerGrid": lambda: WignerGrid([0.0, 1.0], np.zeros((2, 2))),
    "MLEResult": lambda: MLEResult(DensityMatrix(np.eye(2) / 2.0), True, 1,
                                   np.array([-1.0, -0.5]), 0, False, 0.0, 0),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_types_compare_and_hash_by_identity(name):
    # == on arrays is elementwise, so a generated __eq__ or __hash__ raises
    first, second = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2
