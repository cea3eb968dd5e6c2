import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hetasym
from hetasym import (
    HeterodyneModel,
    QuadratureTrace,
    make_phase_ramp,
    simulate_heterodyne,
)
from hetasym.cli import main
from hetasym.config import RunConfig, load_config, parse_config_text, render
from hetasym.csvio import read_density_csv, read_trace_csv, write_density_csv, write_trace_csv
from hetasym.errors import ValidationError
from hetasym.phase import _excess_noise_from_phase_variance, wrap_phase
from hetasym.tomography import DensityMatrix
from hetasym.traces import _MAX_PULSES
from measured import deviation_oracle

TWO_PI = 2.0 * math.pi


def run(*argv) -> int:
    return main([str(a) for a in argv])


def write_config(path: Path, **kwargs) -> Path:
    lines = [f"{key} = {value}" for key, value in kwargs.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_report(path: Path) -> dict:
    entries = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    return entries


class TestConfig:
    def test_defaults_and_overrides(self):
        config = parse_config_text("v_a = 12.5\nseed = 9\nuse_true_phase = false")
        assert config.v_a == 12.5 and config.seed == 9 and config.use_true_phase is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("v_aa = 12.5")

    def test_comments_and_blank_lines(self):
        config = parse_config_text("# comment\n\nbeta = 0.9  # inline\n")
        assert config.beta == 0.9

    def test_bad_value_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("seed = pi")

    def test_env_override(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", v_a="5.0")
        config = load_config(str(path), env={"HETASYM_V_A": "7.5", "HETASYM_SEED": "3"})
        assert config.v_a == 7.5 and config.seed == 3

    def test_hash_stable(self):
        assert RunConfig().config_hash() == RunConfig().config_hash()
        assert RunConfig().config_hash() != parse_config_text("seed = 1").config_hash()

    def test_xi_det_list(self):
        values = RunConfig().xi_det_list()
        assert values == [0.1091, 0.0318, 0.0140, 0.0032, 0.0016, 0.0]


# one value strategy per config key type, numpy scalars included; strings
# avoid "#" (a comment), line breaks and surrounding whitespace, which a
# config line cannot carry
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CONFIG_VALUES = {
    bool: st.booleans() | st.builds(np.bool_, st.booleans()),
    int: st.integers() | st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    float: _FINITE | st.builds(np.float64, _FINITE)
    | st.builds(np.float32, st.floats(width=32, allow_nan=False, allow_infinity=False)),
    str: st.text(st.characters(exclude_characters="#",
                               exclude_categories=("Cc", "Cs", "Zl", "Zp")))
    .filter(lambda text: text == text.strip()),
}
_FIELDS = fields(RunConfig)


@settings(max_examples=80, deadline=None)
@given(st.fixed_dictionaries({f.name: _CONFIG_VALUES[type(f.default)] for f in _FIELDS}))
@example({**{f.name: f.default for f in _FIELDS}, "v_a": -0.0, "seed": -1})
@example({**{f.name: f.default for f in _FIELDS}, "v_a": np.float64(12.0),
          "beta": np.float32(0.9), "seed": np.int64(7), "use_true_phase": np.bool_(False)})
def test_config_render_parse_round_trip(values):
    config = RunConfig(**values)
    text = "".join(f"{key} = {value}\n" for key, value in config.resolved_items())
    parsed = parse_config_text(text)
    assert parsed.resolved_items() == config.resolved_items()
    assert parsed.config_hash() == config.config_hash()
    # a numpy scalar writes the header and hash of the Python value it equals
    plain = RunConfig(**{key: value.item() if isinstance(value, np.generic) else value
                         for key, value in values.items()})
    assert plain.resolved_items() == config.resolved_items()
    assert plain.config_hash() == config.config_hash()


class TestSimulate:
    def test_writes_expected_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_phases=100, pulses_per_phase=2)
        out = tmp_path / "trace.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        trace = read_trace_csv(out)
        assert trace.n == 200
        assert trace.phase_true is not None

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_phases=500, asymmetry_percent=14.29, seed=42)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", cfg, "--out", out_a) == 0
        assert run("simulate", "--config", cfg, "--out", out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--config", write_config(tmp_path / "a.cfg", n_phases=100, seed=1),
            "--out", out_a)
        run("simulate", "--config", write_config(tmp_path / "b.cfg", n_phases=100, seed=2),
            "--out", out_b)
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_variance_ratio_tracks_gains(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_phases=100_000,
                           asymmetry_percent=14.29, amplitude_sq=552.0, seed=11)
        out = tmp_path / "t.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        trace = read_trace_csv(out)
        gain = (200.0 - 14.29) / (200.0 + 14.29)
        assert np.var(trace.x) / np.var(trace.p) == pytest.approx(gain ** 2, rel=0.02)

    def test_symmetric_variances_agree(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_phases=100_000, amplitude_sq=552.0, seed=12)
        out = tmp_path / "t.csv"
        run("simulate", "--config", cfg, "--out", out)
        trace = read_trace_csv(out)
        assert np.var(trace.x) / np.var(trace.p) == pytest.approx(1.0, rel=0.02)

    @pytest.mark.parametrize("source", ["file", "environment"])
    def test_negative_seed_exit_2(self, tmp_path, monkeypatch, capsys, source):
        cfg = write_config(tmp_path / "c.cfg", n_phases=100,
                           **({"seed": -3} if source == "file" else {}))
        if source == "environment":
            monkeypatch.setenv("HETASYM_SEED", "-1")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "t.csv") == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_hybrid_phase_error_of_a_quarter_turn_exit_2(self, tmp_path, capsys):
        # the X and P pairs then measure one quadrature, and scale printed a
        # plausible asymmetry with exit 0
        cfg = write_config(tmp_path / "c.cfg", n_phases=100, hybrid_phase_error=repr(math.pi / 2))
        out = tmp_path / "t.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 2
        assert "hybrid_phase_error must be in (-pi/2, pi/2)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("percent", ["200", "250", "-1"])
    def test_asymmetry_percent_out_of_range_exit_2(self, tmp_path, capsys, percent):
        # the message names the config key; the percent -> gain map used to
        # raise "percent must be in [0, 200)"
        cfg = write_config(tmp_path / "c.cfg", n_phases=100, asymmetry_percent=percent)
        out = tmp_path / "t.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: asymmetry_percent must be in [0, 200)")
        assert not out.exists()

    # n_phases = 10**13 reached np.arange and ended in a MemoryError
    # traceback; 2 phases of 5e6 + 1 pulses would allocate 80 MB first
    @pytest.mark.parametrize("n_phases, pulses", [(10**13, 1), (2, _MAX_PULSES // 2 + 1)])
    def test_pulse_count_above_the_cap_exit_2(self, tmp_path, monkeypatch, capsys, n_phases,
                                              pulses):
        def refuse(*args, **kwargs):
            raise AssertionError("the phase ramp was allocated")

        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(np, "repeat", refuse)
        monkeypatch.setenv("HETASYM_N_PHASES", str(n_phases))
        monkeypatch.setenv("HETASYM_PULSES_PER_PHASE", str(pulses))
        out = tmp_path / "t.csv"
        assert run("simulate", "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: n_phases * pulses_per_phase = {n_phases} * {pulses} is more than "
            f"{_MAX_PULSES} pulses\n")
        assert not out.exists()

    def test_header_embeds_metadata(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", n_phases=100, seed=5)
        out = tmp_path / "t.csv"
        run("simulate", "--config", cfg, "--out", out)
        text = out.read_text()
        assert [line for line in text.splitlines() if "seed" in line] == ["# config: seed = 5"]
        assert "# config_sha256: " in text
        assert "# config: amplitude_sq = 552.0" in text

    def test_environment_seed_overrides_the_file(self, tmp_path, monkeypatch):
        # HETASYM_SEED wins over the file's seed, and the header names the
        # seed on its config line alone
        cfg = write_config(tmp_path / "c.cfg", n_phases=100, seed=5)
        monkeypatch.setenv("HETASYM_SEED", "2")
        out = tmp_path / "t.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        assert [line for line in out.read_text().splitlines() if "seed" in line] == [
            "# config: seed = 2"]


class TestScale:
    def simulate(self, tmp_path, **cfg_kwargs) -> Path:
        cfg = write_config(tmp_path / "sim.cfg", **cfg_kwargs)
        out = tmp_path / "raw.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        return out

    def test_dotted_out_names_keep_their_reports(self, tmp_path):
        # the report path was Path(out).with_suffix(".report.txt"), so
        # --out run.1 and --out run.2 both wrote run.report.txt
        raw = self.simulate(tmp_path)
        for out in ("run.1", "run.2"):
            assert run("scale", raw, "--out", tmp_path / out) == 0
        assert sorted(path.name for path in tmp_path.glob("run*")) == [
            "run.1", "run.1.report.txt", "run.2", "run.2.report.txt"]

    def test_symmetric_input_is_identity(self, tmp_path):
        raw = self.simulate(tmp_path, n_phases=5000, amplitude_sq=552.0)
        out = tmp_path / "scaled.csv"
        assert run("scale", raw, "--out", out) == 0
        before = read_trace_csv(raw)
        after = read_trace_csv(out)
        scale_factor = np.ptp(before.p) / np.ptp(before.x)
        np.testing.assert_allclose(after.x, before.x * scale_factor
                                   + (before.p.min() - before.x.min() * scale_factor),
                                   atol=1e-9)
        report = read_report(tmp_path / "scaled.report.txt")
        assert float(report["asymmetry_percent"]) < 2.0

    def test_asymmetric_input_reports_budget(self, tmp_path):
        # oracle: analytic detection variance of the wrapped deviation
        # atan2(sin, g cos) - theta integrated over one period; bench-measured
        # levels (0.1091 at this asymmetry) sit well below this ideal
        # uniform-sweep value, see the scale-report note in the README
        raw = self.simulate(tmp_path, n_phases=20000, amplitude_sq=552.0,
                            asymmetry_percent=33.77)
        out = tmp_path / "scaled.csv"
        assert run("scale", raw, "--out", out) == 0
        report = read_report(tmp_path / "scaled.report.txt")
        assert float(report["asymmetry_percent"]) == pytest.approx(33.77, abs=1.0)

        gain = (200.0 - 33.77) / (200.0 + 33.77)
        fine = np.linspace(0.0, TWO_PI, 400_001)
        delta = deviation_oracle(gain, fine)
        v_oracle = float(np.trapezoid(delta ** 2, fine) / TWO_PI)
        xi_oracle = 2.0 * 10.0 * (1.0 - math.exp(-v_oracle / 2.0))
        assert float(report["v_det_rad2"]) == pytest.approx(v_oracle, rel=0.05)
        assert float(report["xi_det_snu"]) == pytest.approx(xi_oracle, rel=0.05)

    def test_exact_identity_when_spans_coincide(self, tmp_path):
        # a noiseless full sweep hits +-A exactly on both quadratures, so
        # scaling is the identity to rounding
        raw = self.simulate(tmp_path, n_phases=360, amplitude_sq=552.0,
                            noise_var=1e-30)
        out = tmp_path / "scaled.csv"
        assert run("scale", raw, "--out", out) == 0
        before, after = read_trace_csv(raw), read_trace_csv(out)
        np.testing.assert_allclose(after.x, before.x, atol=1e-12)

    def test_two_row_minimal_file(self, tmp_path):
        # two estimated phases (-1.107 and 0.588 rad) cannot cover a rotation
        path = tmp_path / "two.csv"
        path.write_text("index,x,p\n0,1.0,-2.0\n1,3.0,2.0\n", encoding="utf-8")
        assert run("scale", path, "--out", tmp_path / "out.csv") == 2

    def test_degenerate_range_exit_2(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("index,x,p\n0,1.0,0.0\n1,1.0,1.0\n", encoding="utf-8")
        assert run("scale", path, "--out", tmp_path / "out.csv") == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run("scale", tmp_path / "nope.csv", "--out", tmp_path / "o.csv") == 2

    def test_partial_sweep_exit_2(self, tmp_path):
        # half a rotation misses an extreme of the x span; without the check
        # this reported ~42.7% for a true 14.29% asymmetry with exit code 0
        half_turn = make_phase_ramp(40000)[:20000]
        trace = simulate_heterodyne(552.0, half_turn, HeterodyneModel(14.29),
                                    RunConfig().seed)
        raw = tmp_path / "raw.csv"
        write_trace_csv(raw, trace, "simulate", RunConfig())
        assert run("scale", raw, "--out", tmp_path / "scaled.csv") == 2
        assert not (tmp_path / "scaled.report.txt").exists()
        assert run("phase-deviation", raw, "--out", tmp_path / "dev.csv") == 2

    def assert_no_output(self, tmp_path, raw: Path, message: str, capsys):
        """scale and phase-deviation exit 2 on raw, scale with message, and write nothing."""
        scaled, dev = tmp_path / "scaled.csv", tmp_path / "dev.csv"
        assert run("scale", raw, "--out", scaled) == 2
        assert message in capsys.readouterr().err
        assert run("phase-deviation", raw, "--out", dev) == 2
        assert not scaled.exists() and not (tmp_path / "scaled.report.txt").exists()
        assert not dev.exists()

    @pytest.mark.parametrize("n_phases", [2, 3, 5, 25])
    def test_coarse_sweep_exit_2(self, tmp_path, capsys, n_phases):
        # few phase points miss the quadrature extremes; without the gap rule
        # these symmetric traces reported 151.6, 10.99 and 3.82 % with exit 0;
        # 25 tags, 0.251 rad apart, are a tomography trace's sweep
        raw = self.simulate(tmp_path, n_phases=n_phases, pulses_per_phase=2000,
                            amplitude_sq=552.0, seed=3)
        self.assert_no_output(tmp_path, raw, "densely", capsys)

    def without_phase_true(self, raw: Path) -> Path:
        trace = read_trace_csv(raw)
        write_trace_csv(raw, QuadratureTrace(trace.x, trace.p), "simulate", RunConfig())
        return raw

    @pytest.mark.parametrize("n_phases", [2, 3, 5])
    def test_coarse_sweep_without_phase_true_exit_2(self, tmp_path, capsys, n_phases):
        # the gap rule on the estimated phases; these traces used to pass
        # unchecked and read the same 151.6, 10.99 and 3.82 % with exit 0
        raw = self.without_phase_true(self.simulate(
            tmp_path, n_phases=n_phases, pulses_per_phase=2000, amplitude_sq=552.0, seed=3))
        self.assert_no_output(tmp_path, raw, "estimated block phases", capsys)

    def test_no_defined_block_phase_exit_2(self, tmp_path):
        # both 2-sample blocks average to the origin, so no phase is defined
        path = tmp_path / "zero_blocks.csv"
        path.write_text("index,x,p\n0,1.0,1.0\n1,-1.0,-1.0\n2,2.0,2.0\n3,-2.0,-2.0\n",
                        encoding="utf-8")
        cfg = write_config(tmp_path / "block.cfg", block=2)
        assert run("scale", path, "--config", cfg, "--out", tmp_path / "out.csv") == 2
        assert run("phase-deviation", path, "--config", cfg, "--out", tmp_path / "dev.csv") == 2

    def cancelling_pairs(self, tmp_path, defined_blocks: int) -> Path:
        # a dense 200-phase sweep with phase_true and two pulses per phase,
        # (x, p) then (-x, -p), so each 2-sample block averages to the origin;
        # the first defined_blocks blocks repeat (x, p) and keep a phase
        theta = np.arange(200) * TWO_PI / 200
        sign = np.tile([1.0, -1.0], 200)
        sign[1:2 * defined_blocks:2] = 1.0
        x, p = sign * np.repeat(np.cos(theta), 2), sign * np.repeat(np.sin(theta), 2)
        path = tmp_path / "pairs.csv"
        write_trace_csv(path, QuadratureTrace(x, p, np.repeat(theta, 2)), "simulate", RunConfig())
        return path

    @pytest.mark.parametrize("defined_blocks", [0, 1])
    def test_too_few_defined_block_phases_exit_2(self, tmp_path, capsys, defined_blocks):
        # phase_true passes the coverage rule, but fewer than two blocks have
        # a phase, so neither command has a deviation to report
        raw = self.cancelling_pairs(tmp_path, defined_blocks)
        cfg = write_config(tmp_path / "block.cfg", block=2)
        scaled, dev = tmp_path / "scaled.csv", tmp_path / "deviation.csv"
        assert run("scale", raw, "--config", cfg, "--out", scaled) == 2
        assert f"{defined_blocks} of 200 have a phase" in capsys.readouterr().err
        assert not scaled.exists() and not (tmp_path / "scaled.report.txt").exists()
        assert run("phase-deviation", raw, "--config", cfg, "--out", dev) == 2
        assert "too few defined phase blocks" in capsys.readouterr().err
        assert not dev.exists()

    def test_two_defined_block_phases_pass(self, tmp_path):
        raw = self.cancelling_pairs(tmp_path, 2)
        cfg = write_config(tmp_path / "block.cfg", block=2)
        assert run("scale", raw, "--config", cfg, "--out", tmp_path / "scaled.csv") == 0
        assert read_report(tmp_path / "scaled.report.txt")["undefined_blocks_dropped"] == "198"
        dev = tmp_path / "deviation.csv"
        assert run("phase-deviation", raw, "--config", cfg, "--out", dev) == 0
        # the file's last comment line names the count as the report does
        comments = [line for line in dev.read_text().splitlines() if line.startswith("#")]
        assert comments[-1] == "# undefined_blocks_dropped: 198"

    def with_cells(self, tmp_path, cells: dict) -> Path:
        """A simulated 400-phase trace with each (column, row) set to its value."""
        trace = read_trace_csv(self.simulate(tmp_path, n_phases=400))
        columns = {"x": trace.x.copy(), "p": trace.p.copy()}
        for (column, row), value in cells.items():
            columns[column][row] = value
        path = tmp_path / "big.csv"
        write_trace_csv(path, QuadratureTrace(columns["x"], columns["p"], trace.phase_true),
                        "simulate", RunConfig())
        return path

    # the span +-1.7e308 overflowed: phase-deviation wrote its rows from an x
    # scaled onto 2 values with exit 0, and scale exited 2 naming an inf p1;
    # two 1.5e308 samples in one 2-sample block overflowed its mean, and
    # both commands exited 0; each came with RuntimeWarnings.  One p of
    # 1.5e308 scales the largest x onto it, so a block of the scaled x
    # overflows, which the message must not blame on the input's x
    @pytest.mark.parametrize("command", ["scale", "phase-deviation"])
    @pytest.mark.parametrize("cells, block, message", [
        ({("x", 0): 1.7e308, ("x", 1): -1.7e308}, 1,
         "error: the x span 1.7e+308 - -1.7e+308 overflows float64"),
        ({("x", 2): 1.5e308, ("x", 3): 1.5e308}, 2,
         "error: the x mean of samples 2..3 overflows float64 (largest |x| 1.5e+308)"),
        ({("p", 100): 1.5e308}, 2, "error: x scaled onto the p span: the x mean of samples"),
    ], ids=["span", "block-mean", "scaled-block-mean"])
    def test_overflow_exit_2(self, tmp_path, capsys, command, cells, block, message):
        raw = self.with_cells(tmp_path, cells)
        cfg = write_config(tmp_path / "block.cfg", block=block)
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert run(command, raw, "--config", cfg, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.report.txt").exists()

    # phase-deviation exited 0 with these before it ran the whole analysis
    @pytest.mark.parametrize("key, value, message", [
        ("v_a", "0", "error: v_a must be positive and finite, got 0.0"),
    ], ids=["v_a-0"])
    def test_bad_budget_key_exit_2_on_both_commands(self, tmp_path, monkeypatch, capsys,
                                                    key, value, message):
        raw = self.simulate(tmp_path, n_phases=400)
        cfg = write_config(tmp_path / "budget.cfg", **{key: value})
        for source in ("file", "environment"):
            if source == "environment":
                monkeypatch.setenv(f"HETASYM_{key.upper()}", value)
            config = ["--config", cfg] if source == "file" else []
            for command in ("scale", "phase-deviation"):
                capsys.readouterr()
                out = tmp_path / f"{command}.csv"
                assert run(command, raw, *config, "--out", out) == 2
                assert message in capsys.readouterr().err, source
                assert not out.exists() and not out.with_suffix(".report.txt").exists()

    def test_default_sweep_passes(self, tmp_path):
        raw = self.simulate(tmp_path)
        assert run("scale", raw, "--out", tmp_path / "scaled.csv") == 0
        assert run("phase-deviation", raw, "--out", tmp_path / "dev.csv") == 0

    def test_default_sweep_without_phase_true_passes(self, tmp_path):
        raw = self.without_phase_true(self.simulate(tmp_path))
        assert run("scale", raw, "--out", tmp_path / "scaled.csv") == 0
        assert run("phase-deviation", raw, "--out", tmp_path / "dev.csv") == 0


class TestPhaseDeviation:
    def deviation_rows(self, path: Path):
        rows = [line.split(",") for line in path.read_text().splitlines()
                if line and not line.startswith("#") and not line.startswith("theta")]
        data = np.array([[float(a), float(b)] for a, b in rows])
        return data[:, 0], data[:, 1]

    def simulate(self, tmp_path, pct, noiseless=True) -> Path:
        cfg = write_config(tmp_path / f"sim{pct}.cfg", n_phases=7200,
                           amplitude_sq=552.0, asymmetry_percent=pct,
                           noise_var=(1e-30 if noiseless else 1.0))
        out = tmp_path / f"raw{pct}.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        return out

    def test_symmetric_deviation_below_noise_floor(self, tmp_path):
        raw = self.simulate(tmp_path, 0.0)
        out = tmp_path / "dev.csv"
        assert run("phase-deviation", raw, "--out", out) == 0
        _, delta = self.deviation_rows(out)
        assert np.abs(delta).max() < 1e-9

    def test_noiseless_extrema_in_central_octants(self, tmp_path):
        raw = self.simulate(tmp_path, 14.29)
        out = tmp_path / "dev.csv"
        assert run("phase-deviation", raw, "--out", out) == 0
        theta, delta = self.deviation_rows(out)
        peak_loc = wrap_phase(theta[np.argmax(np.abs(delta))]) % (math.pi / 2.0)
        assert math.pi / 8 < peak_loc < 3 * math.pi / 8

    def test_theoretical_50_2_exceeds_33_77(self, tmp_path):
        peaks = []
        for pct in (33.77, 50.2):
            raw = self.simulate(tmp_path, pct)
            out = tmp_path / f"dev{pct}.csv"
            assert run("phase-deviation", raw, "--out", out) == 0
            _, delta = self.deviation_rows(out)
            peaks.append(np.abs(delta).max())
        assert peaks[1] > peaks[0]

    def readme_chain_trace(self, tmp_path) -> tuple[Path, Path]:
        """The trace and config of the README chain that tests/test_golden.py pins."""
        cfg = write_config(tmp_path / "run.cfg", amplitude_sq=552.0, n_phases=2000,
                           asymmetry_percent=14.29, seed=7)
        raw = tmp_path / "raw.csv"
        assert run("simulate", "--config", cfg, "--out", raw) == 0
        return raw, cfg

    def undefined_block_trace(self, tmp_path) -> tuple[Path, Path]:
        """A noiseless 200-point sweep at x gain 0.8 after one block of two
        samples at the origin, with block = 2: the first block has no phase."""
        theta = np.arange(200) * TWO_PI / 200
        raw = tmp_path / "raw.csv"
        write_trace_csv(raw, QuadratureTrace(np.append([0.0, 0.0], 0.8 * np.cos(theta)),
                                             np.append([0.0, 0.0], np.sin(theta))),
                        "simulate", RunConfig())
        return raw, write_config(tmp_path / "run.cfg", block=2)

    # scale took v_det from wrap(theta_scaled - theta_asym) while
    # phase-deviation wrote wrap(theta_asym - theta_scaled): on the README
    # chain the variance of the written rows and v_det_rad2 differed in the
    # last digit
    @pytest.mark.parametrize("trace, dropped", [("readme_chain_trace", 0),
                                                ("undefined_block_trace", 1)])
    def test_v_det_is_the_variance_of_the_written_rows(self, tmp_path, trace, dropped):
        raw, cfg = getattr(self, trace)(tmp_path)
        assert run("scale", raw, "--config", cfg, "--out", tmp_path / "scaled.csv") == 0
        assert run("phase-deviation", raw, "--config", cfg, "--out", tmp_path / "dev.csv") == 0
        report = read_report(tmp_path / "scaled.report.txt")
        assert report["undefined_blocks_dropped"] == str(dropped)
        _, delta = self.deviation_rows(tmp_path / "dev.csv")
        v_det = float(report["v_det_rad2"])
        assert float(np.var(delta)) == v_det
        assert float(report["xi_det_snu"]) == _excess_noise_from_phase_variance(
            load_config(cfg).v_a, v_det)

    def test_undefined_blocks_dropped_with_count(self, tmp_path, capsys):
        # a 100-point sweep, dense enough for the coverage check, plus one
        # sample at the origin, whose phase is undefined
        theta = np.arange(100) * TWO_PI / 100
        path = tmp_path / "zeros.csv"
        write_trace_csv(path, QuadratureTrace(np.append(0.0, np.cos(theta)),
                                              np.append(0.0, np.sin(theta))),
                        "simulate", RunConfig())
        out = tmp_path / "dev.csv"
        assert run("phase-deviation", path, "--out", out) == 0
        assert "# undefined_blocks_dropped: 1" in out.read_text()
        assert "phase-deviation: dropped 1 undefined blocks" in capsys.readouterr().err


class TestKeyrateSweep:
    def parse(self, path: Path):
        header = None
        rows = []
        cutoffs = {}
        for line in path.read_text().splitlines():
            if line.startswith("# max_distance_km"):
                tag, value = line.split(": ")
                cutoffs[tag.split("=")[1]] = float(value)
            elif line.startswith("#"):
                continue
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(tok) for tok in line.split(",")])
        return header, np.array(rows), cutoffs

    def test_sweep_structure_and_properties(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--out", out) == 0
        header, rows, cutoffs = self.parse(out)
        assert header[0] == "distance_km"
        assert len(header) == 7  # distance + 6 xi columns
        assert rows.shape == (61, 7)
        # (a) all rates positive back to back
        assert np.all(rows[0, 1:] > 0.0)
        # symmetrised column dominates every asymmetric column everywhere
        sym = rows[:, 6]  # xi_det = 0.0 is the last configured column
        for col in range(1, 6):
            assert np.all(sym >= rows[:, col])
        # per-point strict ordering in xi (columns are ordered decreasing xi)
        for col in range(1, 6):
            assert np.all(rows[:, col] < rows[:, col + 1])
        # max distances strictly ordered against xi
        ordered = [cutoffs[key] for key in sorted(cutoffs, key=float)]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))

    def test_custom_grid(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", distance_min_km=0.0,
                           distance_max_km=10.0, distance_step_km=2.5,
                           xi_det_values="0.0,0.0140")
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 0
        header, rows, _ = self.parse(out)
        assert rows.shape == (5, 3)

    @pytest.mark.parametrize("distance_max, step, expected", [
        (1.0, 0.6, [0.0, 0.6]),
        (0.3, 0.1, [0.0, 0.1, 0.2, 0.30000000000000004]),
    ])
    def test_grid_stops_at_max(self, tmp_path, distance_max, step, expected):
        cfg = write_config(tmp_path / "c.cfg", distance_max_km=distance_max,
                           distance_step_km=step, xi_det_values="0.0")
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 0
        _, rows, _ = self.parse(out)
        assert rows[:, 0].tolist() == expected

    def test_lossy_fibre(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", alpha_db_per_km=5.0, distance_max_km=10.0)
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 0
        _, rows, cutoffs = self.parse(out)
        assert np.all(np.isfinite(rows))
        assert abs(cutoffs["0.0"] - 3.302) <= 0.02

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_xi_det_exit_2(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path / "c.cfg", xi_det_values=f"0.01,{bad}")
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 2
        assert "xi_det_values" in capsys.readouterr().err
        assert not out.exists()

    # a repeat used to give two identical rate columns and cutoff lines
    @pytest.mark.parametrize("values", ["0.01,0.01", "0.01,0.010", "0.0,-0.0"])
    def test_repeated_xi_det_exit_2(self, tmp_path, capsys, values):
        cfg = write_config(tmp_path / "c.cfg", xi_det_values=values)
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 2
        assert "xi_det_values repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("distance_step_km", 0.0), ("distance_step_km", -1.0), ("distance_max_km", -1.0),
        # the key-rate chain used to reject it, naming distance_km
        ("distance_min_km", -5.0),
        # 60 / 1e-320 overflows to inf, which math.floor used to raise on
        ("distance_step_km", 1e-320),
        # 6e10 distances, whose list used to fill memory before any check
        ("distance_step_km", 1e-9),
    ])
    def test_bad_distance_grid_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "c.cfg", **{key: value})
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_noiseless_cutoff_is_inf(self, tmp_path):
        # with no excess noise at all the rate never resolves a cutoff
        cfg = write_config(tmp_path / "c.cfg", xi_line=0.0)
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 0
        assert "# max_distance_km xi_det=0.0: inf" in out.read_text().splitlines()

    # at 0.2 dB/km T is normal at 15,380 km and subnormal at 15,420 and
    # 16,000 km; the sweep to 16,000 km runs in 1,000 km steps
    @pytest.mark.parametrize("distance_min, distance_max", [
        (15380.0, 15380.0), (15420.0, 15420.0), (0.0, 16000.0),
    ])
    def test_far_distance_exit_0(self, tmp_path, distance_min, distance_max):
        cfg = write_config(tmp_path / "c.cfg", distance_min_km=distance_min,
                           distance_max_km=distance_max, distance_step_km=1000.0)
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 0
        _, rows, _ = self.parse(out)
        assert rows[-1, 0] == distance_max
        assert np.all(np.isfinite(rows))

    # T == 0 from 16,200 km
    @pytest.mark.parametrize("distance", [16200.0])
    def test_underflowing_transmittance_exit_3(self, tmp_path, capsys, distance):
        cfg = write_config(tmp_path / "c.cfg", distance_min_km=distance,
                           distance_max_km=distance)
        assert run("keyrate-sweep", "--config", cfg, "--out", tmp_path / "rates.csv") == 3
        assert f"at {distance} km" in capsys.readouterr().err

    # physical parameters whose larger eigenvalue overflows float64 (from
    # the first step past 0 km for v_a, at 0 km for xi_line) used to be
    # reported as "symplectic eigenvalue 0.0 < 1 ... (unphysical parameters)"
    @pytest.mark.parametrize("key, value, distance", [
        ("v_a", 1e200, 1.0), ("v_a", 1e300, 1.0), ("xi_line", 1e300, 0.0),
    ])
    def test_overflow_exit_3(self, tmp_path, capsys, key, value, distance):
        cfg = write_config(tmp_path / "c.cfg", **{key: value})
        out = tmp_path / "rates.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 3
        err = capsys.readouterr().err
        assert "symplectic eigenvalue overflows float64" in err
        assert f"at {distance} km" in err
        assert "unphysical" not in err
        assert not out.exists()


# the extremes of float64 that a config value can take: zero, the smallest
# subnormal, a tiny and a huge normal, the largest float, and their negatives
_EXTREMES = [0.0, 5e-324, 1e-300, 1e300, sys.float_info.max]
_EXTREME = st.sampled_from(_EXTREMES + [-value for value in _EXTREMES])
#: ordinary values of the config keys that KeyRateParams reads (its
#: seventh parameter, xi_det, comes from xi_det_values)
_ORDINARY = {
    "v_a": st.floats(1.0, 50.0), "beta": st.floats(0.5, 1.0),
    "xi_line": st.floats(0.0, 0.2), "eta": st.floats(0.3, 1.0),
    "v_elec": st.floats(0.0, 0.5), "alpha_db_per_km": st.floats(0.0, 1.0),
}
_SWEEP_KEYS = [*_ORDINARY, "xi_det_values", "distance_min_km", "distance_max_km",
               "distance_step_km"]


@st.composite
def sweep_configs(draw):
    """keyrate-sweep config values: up to three keys extreme, the rest
    ordinary.  A grid has at most 1,000 distances, unless it is drawn at or
    past the 10**6 cap, which keyrate-sweep rejects before computing."""
    extreme = draw(st.sets(st.sampled_from(_SWEEP_KEYS), max_size=3))

    def value(key, ordinary):
        return draw(_EXTREME if key in extreme else ordinary)

    values = {key: value(key, ordinary) for key, ordinary in _ORDINARY.items()}
    xi_det = [value("xi_det_values", st.floats(0.0, 0.2))]
    xi_det += draw(st.lists(st.floats(0.0, 0.2), max_size=2))
    values["xi_det_values"] = ",".join(render(xi) for xi in xi_det)
    start = value("distance_min_km", st.floats(0.0, 100.0))
    step = value("distance_step_km", st.floats(0.01, 10.0))
    count = draw(st.integers(0, 999) | st.sampled_from([10**6, 10**6 + 1]))
    stop = value("distance_max_km", st.just(start + count * step))
    if step > 0.0 and stop >= start:
        assume(not 999.0 < (stop - start) / step < 10**6)
    values.update(distance_min_km=start, distance_max_km=stop, distance_step_km=step)
    return values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sweep_configs())
@example({key: getattr(RunConfig(), key) for key in _SWEEP_KEYS})
def test_keyrate_sweep_contract(values):
    # whatever the values, keyrate-sweep exits 0, 2 or 3 and raises nothing;
    # on exit 0 every rate is finite and every cutoff finite and >= 0, or inf
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "c.cfg",
                           **{key: render(values[key]) for key in _SWEEP_KEYS})
        out = Path(tmp) / "rates.csv"
        code = run("keyrate-sweep", "--config", cfg, "--out", out)
        assert code in (0, 2, 3)
        if code != 0:
            return
        lines = out.read_text().splitlines()
    cutoffs = [float(line.rsplit(": ", 1)[1]) for line in lines
               if line.startswith("# max_distance_km")]
    assert cutoffs and all(c == math.inf or 0.0 <= c < math.inf for c in cutoffs)
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


@st.composite
def simulate_configs(draw):
    """simulate config values: each float key extreme, ordinary or, for the
    two keys with a bounded range, at either side of an end of it; and a
    sweep of at most 64 x 64 pulses whose counts may fall below their minimum."""
    quarter = math.pi / 2
    values = {
        "amplitude_sq": draw(_EXTREME | st.floats(1.0, 1000.0)),
        "noise_var": draw(_EXTREME | st.floats(0.1, 10.0)),
        "asymmetry_percent": draw(_EXTREME | st.floats(0.0, 50.0) | st.sampled_from(
            [-5e-324, 0.0, 5e-324, math.nextafter(200.0, 0.0), 200.0])),
        "hybrid_phase_error": draw(_EXTREME | st.floats(-0.5, 0.5) | st.sampled_from(
            [sign * edge for sign in (1.0, -1.0)
             for edge in (quarter, math.nextafter(quarter, 0.0))])),
    }
    return {**values, "n_phases": draw(st.integers(0, 64)),
            "pulses_per_phase": draw(st.integers(0, 64))}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(simulate_configs())
@example({key: getattr(RunConfig(), key) for key in (
    "amplitude_sq", "noise_var", "asymmetry_percent", "hybrid_phase_error", "n_phases",
    "pulses_per_phase")})
def test_simulate_contract(values):
    # whatever the values, simulate exits 0 or 2 and raises and warns
    # nothing; on exit 0 every number of the trace is finite
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "c.cfg",
                           **{key: render(value) for key, value in values.items()})
        out = Path(tmp) / "raw.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("simulate", "--config", cfg, "--out", out)
        assert code in (0, 2)
        if code == 0:
            assert all(math.isfinite(v) for v in numbers_in(out))


#: a dense symmetric sweep of 588 samples, divisible by every drawn block, so
#: that 588 / 7 = 84 estimated block phases still cover a full rotation
_SWEEP = simulate_heterodyne(552.0, make_phase_ramp(588), HeterodyneModel(), 5)
_CELL_VALUES = [sys.float_info.max, -sys.float_info.max, 1e308, -1e308, 5e-324, 0.0]


@st.composite
def sweep_traces(draw):
    """(x, p, phase_true or None, block): the sweep with each column scaled
    by 1 or 1e+-300, up to two cells set to extremes, phase_true kept or
    dropped, and a block length."""
    x, p = (_SWEEP.x * draw(st.sampled_from([1.0, 1e300, 1e-300])),
            _SWEEP.p * draw(st.sampled_from([1.0, 1e300, 1e-300])))
    for column, row, value in draw(st.lists(st.tuples(
            st.sampled_from("xp"), st.integers(0, _SWEEP.n - 1), st.sampled_from(_CELL_VALUES)),
            max_size=2)):
        (x if column == "x" else p)[row] = value
    phase_true = _SWEEP.phase_true if draw(st.booleans()) else None
    return x, p, phase_true, draw(st.sampled_from([1, 2, 3, 7]))


def numbers_in(path: Path) -> list[float]:
    """Every value of a report's entries or of a CSV's data rows."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    if path.suffix == ".txt":
        return [float(line.split(" = ", 1)[1]) for line in lines]
    return [float(cell) for line in lines[1:] for cell in line.split(",")]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_traces())
# the two overflows that exited 0: a span of +-1.7e308, and two 1.5e308
# samples in one 2-sample block
@example((np.concatenate([[1.7e308, -1.7e308], _SWEEP.x[2:]]), _SWEEP.p, _SWEEP.phase_true, 1))
@example((np.concatenate([[1.5e308, 1.5e308], _SWEEP.x[2:]]), _SWEEP.p, _SWEEP.phase_true, 2))
def test_trace_commands_contract(drawn):
    # whatever the trace, scale and phase-deviation exit 0, 2 or 3 and raise
    # and warn nothing; on exit 0 every number they write is finite
    x, p, phase_true, block = drawn
    with tempfile.TemporaryDirectory() as tmp:
        raw, cfg = Path(tmp) / "raw.csv", write_config(Path(tmp) / "c.cfg", block=block)
        write_trace_csv(raw, QuadratureTrace(x, p, phase_true), "simulate", RunConfig())
        for command in ("scale", "phase-deviation"):
            out = Path(tmp) / f"{command}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run(command, raw, "--config", cfg, "--out", out)
            assert code in (0, 2, 3)
            if code == 0:
                written = [out] + ([out.with_suffix(".report.txt")] if command == "scale" else [])
                assert all(math.isfinite(v) for path in written for v in numbers_in(path))


#: a tiny weak-state trace: 8 phases x 4 pulses, 64 quadrature samples
_TOMO_TRACE = simulate_heterodyne(4.0, make_phase_ramp(8, 4), HeterodyneModel(), 1)
_TOMO_KEYS = ["dim", "tol", "max_iter", "amplitude_scale", "use_true_phase", "block",
              "wigner_extent", "wigner_points"]


@st.composite
def tomography_configs(draw):
    """tomography config values: up to two float keys extreme, the rest
    ordinary, and integer keys in range (a block of 3 does not divide the 32
    shots; the range rules for integers are tested on their own)."""
    ordinary = {"tol": st.floats(1e-12, 1e-3), "amplitude_scale": st.floats(0.5, 4.0),
                "wigner_extent": st.floats(0.1, 50.0)}
    extreme = draw(st.sets(st.sampled_from(sorted(ordinary)), max_size=2))
    values = {key: draw(_EXTREME if key in extreme else strategy)
              for key, strategy in ordinary.items()}
    return {**values, "dim": draw(st.integers(8, 16)), "max_iter": draw(st.integers(0, 60)),
            "use_true_phase": draw(st.booleans()), "block": draw(st.sampled_from([1, 2, 3, 4, 8])),
            "wigner_points": draw(st.integers(2, 41))}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tomography_configs())
# a far Wigner grid: at dim 25 the Laguerre sums overflowed from about 1e8 on;
# an amplitude_scale of 5e-324 overflowed dividing the samples by it
@example({**{key: getattr(RunConfig(), key) for key in _TOMO_KEYS}, "wigner_extent": 1e8})
@example({**{key: getattr(RunConfig(), key) for key in _TOMO_KEYS}, "amplitude_scale": 5e-324})
def test_tomography_contract(values):
    # whatever the values, tomography exits 0, 2 or 3 and raises and warns
    # nothing; on exit 0 every value of its report is finite
    with tempfile.TemporaryDirectory() as tmp:
        raw, out = Path(tmp) / "raw.csv", Path(tmp) / "tomo"
        cfg = write_config(Path(tmp) / "c.cfg",
                           **{key: render(values[key]) for key in _TOMO_KEYS})
        write_trace_csv(raw, _TOMO_TRACE, "simulate", RunConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)  # dropped shots, too few tags
            code = run("tomography", raw, "--config", cfg, "--out", out)
        assert code in (0, 2, 3)
        if code == 0:
            report = read_report(out.with_suffix(".report.txt"))
            assert all(math.isfinite(float(value)) for key, value in report.items()
                       if key not in ("converged", "engine"))


def csv_table(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """The comment lines, header names and data rows (lists of cells) of a CSV file."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    return comments, header, rows


def write_csv_table(path: Path, comments, header, rows) -> None:
    path.write_text("\n".join(comments + [",".join(row) for row in [header, *rows]]) + "\n",
                    encoding="utf-8")


# cells a hand edit can leave in a file: huge, tiny, zero, not finite, beyond float64
_EDITED_CELLS = ["1e3", "-1e6", "1e150", "1.7e308", "-1.7976931348623157e308", "5e-324", "0",
                 "-0.0", "nan", "inf", "1e400"]


@st.composite
def trace_edits(draw):
    """Edits of the tomography trace's CSV, each drawn or not: only the shots
    whose phase_true is below a bound less than pi kept, up to three rows
    repeated (the index renumbered or left repeated), one cell set, and one
    column cut; with the config keys that read the trace."""
    return {
        "below": draw(st.none() | st.sampled_from([math.pi / 4, math.pi / 2, 3.0])),
        "repeat": draw(st.none() | st.lists(st.integers(0, 31), min_size=1, max_size=3)),
        "renumber": draw(st.booleans()),
        "cell": draw(st.none() | st.tuples(st.sampled_from(["x", "p", "phase_true"]),
                                           st.integers(0, 31), st.sampled_from(_EDITED_CELLS))),
        "cut": draw(st.none() | st.sampled_from(["index", "x", "p", "phase_true"])),
        "use_true_phase": draw(st.booleans()), "block": draw(st.sampled_from([1, 2, 4])),
        "dim": draw(st.integers(14, 16)),
    }


def edit_trace(path: Path, edits: dict) -> None:
    comments, header, rows = csv_table(path)
    column = header.index
    if edits["below"] is not None:
        rows = [row for row in rows if float(row[column("phase_true")]) < edits["below"]]
    for position in sorted(edits["repeat"] or (), reverse=True):
        position %= len(rows)
        rows.insert(position, list(rows[position]))
    if edits["renumber"]:
        rows = [[str(i)] + row[1:] for i, row in enumerate(rows)]
    if edits["cell"] is not None:
        name, position, value = edits["cell"]
        rows[position % len(rows)][column(name)] = value
    if edits["cut"] is not None:
        keep = [i for i, name in enumerate(header) if name != edits["cut"]]
        header, rows = [header[i] for i in keep], [[row[i] for i in keep] for row in rows]
    write_csv_table(path, comments, header, rows)


_UNEDITED = {"below": None, "repeat": None, "renumber": False, "cell": None, "cut": None,
             "use_true_phase": True, "block": 1, "dim": 14}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trace_edits())
# a phase_true of 1.7e308 overflowed the grouped engine's k theta table
@example({**_UNEDITED, "cell": ("phase_true", 0, "1.7e308")})
def test_tomography_trace_edits_contract(edits):
    # whatever the edit of its trace, tomography exits 0, 2 or 3 and raises
    # and warns nothing; on exit 0 every value of its report is finite
    with tempfile.TemporaryDirectory() as tmp:
        raw, out = Path(tmp) / "raw.csv", Path(tmp) / "tomo"
        write_trace_csv(raw, _TOMO_TRACE, "simulate", RunConfig())
        edit_trace(raw, edits)
        cfg = write_config(Path(tmp) / "c.cfg", wigner_points=11,
                           **{key: render(edits[key]) for key in ("use_true_phase", "block", "dim")})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)  # dropped shots, too few tags
            code = run("tomography", raw, "--config", cfg, "--out", out)
        assert code in (0, 2, 3)
        if code == 0:
            report = read_report(out.with_suffix(".report.txt"))
            assert all(math.isfinite(float(value)) for key, value in report.items()
                       if key not in ("converged", "engine"))


#: two dim-4 states: a pure one with complex amplitudes and a mixed diagonal one
_PSI = np.array([3.0, 4.0j, 2.0 - 1.0j, 1.0]) / math.sqrt(31.0)
_DENSITIES = [DensityMatrix(np.outer(_PSI, _PSI.conj())),
              DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128))]


@st.composite
def density_edits(draw):
    """Edits of a 16-entry density CSV: up to two cells set (to a value from the
    list, or to the cell plus a small offset), then one row dropped, repeated or
    copied over another, or none."""
    cell = st.tuples(st.integers(0, 15), st.integers(0, 3), st.sampled_from(
        _EDITED_CELLS + ["2", "-1", "+1e-13", "+1e-11", "+1e-7", "+0.5"]))
    rows = st.tuples(st.sampled_from(["drop", "repeat", "copy"]), st.integers(0, 15),
                     st.integers(0, 15))
    return draw(st.lists(cell, max_size=2)), draw(st.none() | rows)


def edit_density(path: Path, edits) -> None:
    comments, header, rows = csv_table(path)
    cells, row_edit = edits
    for position, index, value in cells:
        old = rows[position][index]
        rows[position][index] = repr(float(old) + float(value)) if value[0] == "+" else value
    if row_edit is not None:
        kind, source, target = row_edit
        if kind == "drop":
            del rows[source]
        elif kind == "repeat":
            rows.append(list(rows[source]))
        else:
            rows[target] = list(rows[source])
    write_csv_table(path, comments, header, rows)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([0, 1]), st.sampled_from([0, 1]), density_edits())
# an imaginary part of 1.7e308 overflowed the Hermiticity check's difference
@example(0, 0, ([(0, 3, "1.7e308")], None))
def test_fidelity_density_edits_contract(first, second, edits):
    # whatever the edit of its first file, fidelity exits 0, 2 or 3 and
    # raises and warns nothing; on exit 0 it prints two numbers in [0, 1]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "rho.csv", Path(tmp) / "sigma.csv"]
        for path, index in zip(paths, (first, second)):
            write_density_csv(path, _DENSITIES[index], "tomography", RunConfig())
        edit_density(paths[0], edits)
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as printed:
            warnings.simplefilter("error", RuntimeWarning)
            code = run("fidelity", *paths)
    assert code in (0, 2, 3)
    if code == 0:
        values = [float(line.split(" = ", 1)[1]) for line in printed.getvalue().splitlines()]
        assert len(values) == 2 and all(0.0 <= value <= 1.0 for value in values)


class TestTomography:
    def bright_trace(self, tmp_path, pct=0.0, n_phases=80, ppp=25) -> Path:
        cfg = write_config(tmp_path / "sim.cfg", n_phases=n_phases,
                           pulses_per_phase=ppp, amplitude_sq=552.0,
                           asymmetry_percent=pct, seed=21)
        out = tmp_path / f"trace{pct}.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        return out

    def tomo_config(self, tmp_path, **extra) -> Path:
        scale = math.sqrt(552.0) / 4.0  # normalize the bright reference to alpha = 2
        base = dict(dim=25, max_iter=300, tol="1e-9", amplitude_scale=scale,
                    wigner_extent=6.0, wigner_points=61)
        base.update(extra)
        return write_config(tmp_path / "tomo.cfg", **base)

    def test_symmetric_coherent_fidelity(self, tmp_path):
        raw = self.bright_trace(tmp_path)
        cfg = self.tomo_config(tmp_path)
        out = tmp_path / "tomo"
        assert run("tomography", raw, "--config", cfg, "--out", out) == 0
        report = read_report(tmp_path / "tomo.report.txt")
        assert float(report["fidelity_sqrt"]) > 0.99
        assert report["converged"] == "true"
        assert abs(float(report["alpha_fit_re"]) - 2.0) < 0.1
        assert 0.98 <= float(report["wigner_normalization"]) <= 1.001
        rho = read_density_csv(tmp_path / "tomo.rho.csv")
        assert rho.dim == 25

    def test_asymmetric_below_scaled(self, tmp_path):
        raw = self.bright_trace(tmp_path, pct=14.29)
        scaled = tmp_path / "scaled.csv"
        assert run("scale", raw, "--out", scaled) == 0
        cfg = self.tomo_config(tmp_path)
        assert run("tomography", raw, "--config", cfg, "--out", tmp_path / "asym") == 0
        assert run("tomography", scaled, "--config", cfg, "--out", tmp_path / "sym") == 0
        f_asym = float(read_report(tmp_path / "asym.report.txt")["fidelity_sqrt"])
        f_scaled = float(read_report(tmp_path / "sym.report.txt")["fidelity_sqrt"])
        assert f_asym < f_scaled
        assert f_scaled > 0.99

    def weak_trace(self, tmp_path) -> Path:
        """25 phase tags x 40 pulses of a weak coherent state (A^2 = 4 SNU, seed 1)."""
        raw = tmp_path / "raw.csv"
        trace = simulate_heterodyne(4.0, make_phase_ramp(25, 40), HeterodyneModel(), 1)
        write_trace_csv(raw, trace, "simulate", RunConfig())
        return raw

    @pytest.mark.parametrize("out, prefix", [("t.v1", "t.v1"), ("out.csv", "out"),
                                             ("tomo", "tomo")])
    def test_side_files_drop_a_trailing_csv_only(self, tmp_path, out, prefix):
        # --out t.v1 wrote t.rho.csv, t.wigner.csv and t.report.txt
        cfg = write_config(tmp_path / "tomo.cfg", dim=12, wigner_points=11)
        raw = self.weak_trace(tmp_path)
        assert run("tomography", raw, "--config", cfg, "--out", tmp_path / out) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["raw.csv", "tomo.cfg", f"{prefix}.rho.csv", f"{prefix}.wigner.csv",
             f"{prefix}.report.txt"])

    @pytest.mark.parametrize("out", ["", "/"])
    def test_out_naming_no_file_exit_2_before_the_mle(self, tmp_path, monkeypatch, capsys, out):
        # Path.with_suffix raised ValueError after the MLE: a traceback, exit 1
        def no_mle(*args, **kwargs):
            raise AssertionError("mle_reconstruct ran")

        raw = self.weak_trace(tmp_path)
        monkeypatch.setattr("hetasym.tomography._mle_reconstruct", no_mle)
        assert run("tomography", raw, "--out", out) == 2
        assert capsys.readouterr().err == f"error: --out {out!r} names no file\n"

    def test_two_quadratures_warn_on_stderr(self, tmp_path):
        # a 4-point sweep tags theta and theta - pi/2, which name 2 quadratures
        # modulo pi; this exited 0 with converged = true, a root fidelity of
        # 0.998 and nothing on stderr
        raw = tmp_path / "raw.csv"
        sim = write_config(tmp_path / "sim.cfg", amplitude_sq=4.0, n_phases=4,
                           pulses_per_phase=500, seed=1)
        assert run("simulate", "--config", sim, "--out", raw) == 0
        cfg = write_config(tmp_path / "tomo.cfg", dim=14, wigner_points=11)
        src = str(Path(hetasym.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONWARNINGS", None)
        result = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom hetasym.cli import main\nsys.exit(main())",
             "tomography", str(raw), "--config", str(cfg), "--out", str(tmp_path / "tomo")],
            env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert ("UserWarning: phase tags measure 2 distinct quadratures modulo pi, fewer than "
                "dim = 14: the reconstruction is not informationally complete") in result.stderr

    def test_dim_hint_names_the_smallest_accepted_dim(self, tmp_path, capsys):
        # the fitted |alpha| is 0.984 at dim 10: dims 8-10 keep too little of
        # its norm, and the hint read "use dim >= 16" although dim 11 passes
        raw = self.weak_trace(tmp_path)
        for dim, code in ((10, 2), (11, 0)):
            cfg = write_config(tmp_path / "tomo.cfg", dim=dim, wigner_points=11)
            assert run("tomography", raw, "--config", cfg, "--out", tmp_path / "tomo") == code
        assert capsys.readouterr().err.endswith("use dim >= 11\n")

    @pytest.mark.parametrize("extent", [1e13, 1e155])
    def test_far_wigner_grid(self, tmp_path, extent):
        # at dim 16 the Laguerre sums overflowed from about 1e12 on, and r^2
        # from 1.3e154 on: exit 2 after the whole MLE, with RuntimeWarnings;
        # W is 0 wherever e^{-r^2} rounds to 0, so only the origin is nonzero
        cfg = write_config(tmp_path / "tomo.cfg", dim=16, wigner_points=31, wigner_extent=extent)
        out = tmp_path / "tomo"
        assert run("tomography", self.weak_trace(tmp_path), "--config", cfg, "--out", out) == 0
        assert all(math.isfinite(float(value)) for key, value in
                   read_report(out.with_suffix(".report.txt")).items()
                   if key not in ("converged", "engine"))
        rows = [line.split(",") for line in out.with_suffix(".wigner.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        assert [(x, p) for x, p, w in rows if float(w) != 0.0] == [("0.0", "0.0")]

    def test_wigner_cell_area_overflow_exit_2(self, tmp_path, capsys):
        # W(0, 0) times a cell area of 4.4e397 would make the normalization inf
        cfg = write_config(tmp_path / "tomo.cfg", dim=16, wigner_points=31, wigner_extent=1e200)
        out = tmp_path / "far"
        assert run("tomography", self.weak_trace(tmp_path), "--config", cfg, "--out", out) == 2
        assert "error: wigner_extent = 1e+200 is too large" in capsys.readouterr().err
        assert not list(tmp_path.glob("far.*"))

    def test_non_convergence_exit_3_with_outputs(self, tmp_path):
        raw = self.bright_trace(tmp_path)
        cfg = self.tomo_config(tmp_path, max_iter=2, tol="1e-15")
        out = tmp_path / "tomo"
        assert run("tomography", raw, "--config", cfg, "--out", out) == 3
        report = read_report(tmp_path / "tomo.report.txt")
        assert report["converged"] == "false"
        assert (tmp_path / "tomo.rho.csv").exists()

    @pytest.mark.parametrize("ppp, n_phases, engine", [(25, 80, "grouped"), (1, 400, "dense")])
    def test_report_names_engine_and_gap(self, tmp_path, ppp, n_phases, engine):
        raw = self.bright_trace(tmp_path, n_phases=n_phases, ppp=ppp)
        cfg = self.tomo_config(tmp_path)
        assert run("tomography", raw, "--config", cfg, "--out", tmp_path / "tomo") == 0
        report = read_report(tmp_path / "tomo.report.txt")
        assert report["engine"] == engine
        assert report["converged"] == "true"
        assert float(report["optimality_gap"]) <= 1e-9

    def test_report_counts_rank_one_steps_and_dropped_samples(self, tmp_path):
        # shots at exactly x = p = 0 have no estimated phase; both of their
        # quadrature samples are dropped, and the report counts them
        raw = self.bright_trace(tmp_path, n_phases=400, ppp=1)
        trace = read_trace_csv(raw)
        x, p = trace.x.copy(), trace.p.copy()
        x[:3] = p[:3] = 0.0
        holed = tmp_path / "holed.csv"
        write_trace_csv(holed, QuadratureTrace(x, p), "simulate", RunConfig())
        cfg = self.tomo_config(tmp_path, use_true_phase="false")
        with pytest.warns(UserWarning, match=r"dropping 3 shots \(6 quadrature"):
            run("tomography", holed, "--config", cfg, "--out", tmp_path / "tomo")
        report = read_report(tmp_path / "tomo.report.txt")
        assert report["samples_dropped"] == "6"
        assert int(report["rank_one_steps"]) >= 1

    @pytest.mark.parametrize("key, value", [
        ("wigner_points", -5), ("wigner_points", 1), ("wigner_extent", 0.0),
    ])
    def test_bad_wigner_grid_exit_2(self, tmp_path, monkeypatch, capsys, key, value):
        raw = self.bright_trace(tmp_path, n_phases=40, ppp=1)
        monkeypatch.setenv(f"HETASYM_{key.upper()}", str(value))
        assert run("tomography", raw, "--config", self.tomo_config(tmp_path),
                   "--out", tmp_path / "tomo") == 2
        assert f"{key} must" in capsys.readouterr().err
        assert not (tmp_path / "tomo.report.txt").exists()

    def test_huge_wigner_grid_exit_2_before_the_mle(self, tmp_path, monkeypatch, capsys):
        # a 10^7 x 10^7 grid used to run the whole MLE, then fail to allocate
        # the grid in _wigner with a traceback and exit 1
        def no_mle(*args, **kwargs):
            raise AssertionError("mle_reconstruct ran")

        monkeypatch.setattr("hetasym.tomography._mle_reconstruct", no_mle)
        raw = self.bright_trace(tmp_path, n_phases=40, ppp=1)
        monkeypatch.setenv("HETASYM_WIGNER_POINTS", "10000000")
        assert run("tomography", raw, "--config", self.tomo_config(tmp_path),
                   "--out", tmp_path / "big") == 2
        assert "error: wigner_points = 10000000 is too large" in capsys.readouterr().err
        assert not list(tmp_path.glob("big.*"))

    def test_unresolved_wigner_axis_exit_2_before_the_mle(self, tmp_path, monkeypatch, capsys):
        # 31 points over +-5e-324 round to 3 distinct values: the whole MLE
        # used to run before WignerGrid rejected the axis, naming no key
        def no_mle(*args, **kwargs):
            raise AssertionError("mle_reconstruct ran")

        monkeypatch.setattr("hetasym.tomography._mle_reconstruct", no_mle)
        cfg = write_config(tmp_path / "tomo.cfg", dim=16, wigner_points=31,
                           wigner_extent=5e-324)
        out = tmp_path / "tiny"
        assert run("tomography", self.weak_trace(tmp_path), "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            "error: the Wigner axis of wigner_points = 31 over +-wigner_extent = 5e-324 must")
        assert not list(tmp_path.glob("tiny.*"))

    def test_overflowing_quadrature_exit_2(self, tmp_path, capsys):
        # x = 1e200 squares to inf in the projector tables: exit 2 naming
        # the value as the trace holds it, its column and its index, not a
        # floored sample and an unconverged exit 3
        cfg = write_config(tmp_path / "sim.cfg", n_phases=25, pulses_per_phase=40,
                           amplitude_sq=4.0, seed=1)
        raw = tmp_path / "raw.csv"
        assert run("simulate", "--config", cfg, "--out", raw) == 0
        trace = read_trace_csv(raw)
        x = trace.x.copy()
        x[7] = 1e200
        big = tmp_path / "big.csv"
        write_trace_csv(big, QuadratureTrace(x, trace.p, trace.phase_true), "simulate",
                        RunConfig())
        capsys.readouterr()
        tomo_cfg = write_config(tmp_path / "tomo.cfg", dim=12)
        assert run("tomography", big, "--config", tomo_cfg, "--out", tmp_path / "tomo") == 2
        message = "error: x = 1e+200 SNU at index 7 overflows float64 when squared by the MLE"
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("tomo*.csv")) and not list(tmp_path.glob("tomo*.txt"))

    def test_fidelity_command(self, tmp_path, capsys):
        raw = self.bright_trace(tmp_path)
        cfg = self.tomo_config(tmp_path)
        assert run("tomography", raw, "--config", cfg, "--out", tmp_path / "t") == 0
        rho_path = tmp_path / "t.rho.csv"
        capsys.readouterr()
        assert run("fidelity", rho_path, rho_path) == 0
        assert capsys.readouterr().out.splitlines() == ["fidelity_sqrt = 1.0",
                                                         "fidelity_squared = 1.0"]

    def test_convention_flag_removed(self, tmp_path, capsys):
        # tomography and fidelity both print both fidelity conventions
        for argv in (["tomography", "t.csv"], ["fidelity", "a.csv", "b.csv"]):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--convention", "squared")
            assert exc.value.code == 2
            assert "--convention" in capsys.readouterr().err

    def test_tomography_deterministic(self, tmp_path):
        raw = self.bright_trace(tmp_path)
        cfg = self.tomo_config(tmp_path, wigner_points=21)
        for name in ("r1", "r2"):
            assert run("tomography", raw, "--config", cfg, "--out", tmp_path / name) == 0
        assert ((tmp_path / "r1.rho.csv").read_bytes()
                == (tmp_path / "r2.rho.csv").read_bytes())
        assert ((tmp_path / "r1.wigner.csv").read_bytes()
                == (tmp_path / "r2.wigner.csv").read_bytes())


# keys that once existed: the sweep takes xi_det from xi_det_values and
# distances from its grid, asymmetry_percent sets the gains, noise_var is
# the sum of the two noise variances, the throughput keys changed no output,
# and the laser drift, which the trace cannot show, is added to v_det by hand
REMOVED_KEYS = ["xi_det", "distance_km", "jobs", "baud", "frame_ratio", "gain_x", "gain_p",
                "convention", "shot_noise_var", "elec_noise_var",
                "linewidth_a", "linewidth_b", "pulse_separation", "v_drift_rad2"]


class TestErrorPaths:
    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", no_such_key=1)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o.csv") == 2

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exit_2(self, tmp_path, key):
        cfg = write_config(tmp_path / "bad.cfg", **{key: 0.01})
        assert run("keyrate-sweep", "--config", cfg, "--out", tmp_path / "o.csv") == 2

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_in_environment_exit_2(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.setenv(f"HETASYM_{key.upper()}", "0.01")
        assert run("keyrate-sweep", "--out", tmp_path / "o.csv") == 2
        assert f"HETASYM_{key.upper()}" in capsys.readouterr().err

    # the command line names files only: seed and dim are config keys, and
    # the output path is --out alone
    @pytest.mark.parametrize("argv, env, message", [
        (["simulate", "--seed", "1"], {}, "unrecognized arguments: --seed 1"),
        (["tomography", "t.csv", "--dim", "14"], {}, "unrecognized arguments: --dim 14"),
        (["fidelity", "a.csv", "b.csv", "--config", "c.cfg"], {},
         "unrecognized arguments: --config c.cfg"),
        (["keyrate-sweep", "--config", "out.cfg"], {}, "unknown key 'out'"),
        (["keyrate-sweep"], {"HETASYM_OUT": "x.csv"}, "HETASYM_OUT: unknown config key"),
    ], ids=["--seed", "--dim", "fidelity --config", "out = x", "HETASYM_OUT"])
    def test_removed_option_exit_2(self, tmp_path, monkeypatch, capsys, argv, env, message):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "out.cfg", out="x.csv")
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        try:
            code = run(*argv, "--out", "o.csv")
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "x.csv").exists()

    def test_repeated_config_key_exit_2(self, tmp_path, capsys):
        # the second line used to win silently
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seed = 1\nv_a = 12\nseed = 2\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 2
        assert "config line 3: key 'seed' is already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("xi_det_values = ,", "xi_det_values is empty"),
        ("use_true_phase = maybe", "cannot parse 'maybe' as bool"),
        ("v_a 12", "expected 'key = value'"),
    ])
    def test_bad_config_line_exit_2(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert run("keyrate-sweep", "--config", cfg, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"v_a = 1\xff0\n")
        assert run("keyrate-sweep", "--config", cfg, "--out", tmp_path / "o.csv") == 2
        assert str(cfg) in capsys.readouterr().err

    def test_density_round_trip(self, tmp_path):
        raw_cfg = write_config(tmp_path / "c.cfg", n_phases=40, pulses_per_phase=5,
                               amplitude_sq=4.0)
        trace_path = tmp_path / "t.csv"
        run("simulate", "--config", raw_cfg, "--out", trace_path)
        tomo_cfg = write_config(tmp_path / "t.cfg", dim=16, max_iter=50,
                                tol="1e-7", wigner_points=11)
        assert run("tomography", trace_path, "--config", tomo_cfg,
                   "--out", tmp_path / "t2") in (0, 3)
        rho = read_density_csv(tmp_path / "t2.rho.csv")
        assert rho.dim == 16


# runs main(argv) and prints its exit code (a SystemExit's for --version)
# and every module then loaded, as the last line of standard output
_MODULES_SCRIPT = """
import json, sys
from hetasym.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def modules_loaded_by(cwd: Path, *argv) -> set[str]:
    """The modules a fresh interpreter holds after ``hetasym argv`` exits 0."""
    src = str(Path(hetasym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _MODULES_SCRIPT, *map(str, argv)],
                            cwd=cwd, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, (argv, result.stdout, result.stderr)
    return set(modules)


def test_csv_commands_do_not_import_numpy_ma(tmp_path):
    # each command imports only what it runs, in a fresh interpreter:
    # --version and keyrate-sweep load no numpy at all, the trace commands
    # no tomography or key-rate code, and fidelity no detector, phase or
    # key-rate code; and np.unique without return_counts imports numpy.ma (10-16 ms a
    # command), which scale, phase-deviation and fidelity must not load; only the
    # config hash of a written file needs hashlib, which loads OpenSSL
    cfg = write_config(tmp_path / "run.cfg", n_phases=200, amplitude_sq=552.0,
                       asymmetry_percent=14.29)
    assert run("simulate", "--config", cfg, "--out", tmp_path / "raw.csv") == 0
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(np.complex128))
    write_density_csv(tmp_path / "rho.csv", rho, "tomography", RunConfig())
    trace_code = {"hetasym.tomography", "hetasym.keyrate"}
    not_loaded = {
        ("--version",): {"numpy", "hashlib"},
        ("keyrate-sweep", "--out", "rates.csv"): {"numpy"},
        ("simulate", "--config", "run.cfg", "--out", "again.csv"): trace_code,
        ("scale", "raw.csv", "--config", "run.cfg", "--out", "scaled.csv"):
            trace_code | {"numpy.ma"},
        ("phase-deviation", "raw.csv", "--config", "run.cfg", "--out", "dev.csv"):
            trace_code | {"numpy.ma"},
        ("fidelity", "rho.csv", "rho.csv"):
            {"hetasym.detector", "hetasym.keyrate", "hetasym.phase", "numpy.ma", "hashlib"},
    }
    for argv, names in not_loaded.items():
        assert modules_loaded_by(tmp_path, *argv) & names == set(), argv
