"""In-process tracing for the per-layer metrics.

Spans are recorded by wrapping, from outside the program, the public
functions that ``hetasym.cli`` imports, the ``cmd_*`` functions it dispatches
to, and ``hetasym.keyrate.key_rate`` (so the rate evaluations inside
``max_distance`` are seen).  A span is (name, start, end, parent); spans stay
in memory and are reduced to per-layer numbers after each traced run.

Layers are the package modules.  ``traces`` validation runs inside
``detector`` and ``csvio`` and is counted there.
"""

from __future__ import annotations

import functools
import inspect
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "detector", "csvio", "phase", "keyrate", "tomography")
COMMANDS = ("simulate", "scale", "phase_deviation", "keyrate_sweep", "tomography", "fidelity")

# Spans whose arguments and result are kept for the counters derived after
# the run; every other span keeps only its timing, so the 60k key_rate
# spans of a sweep stay small.
_KEEP_PAYLOAD = {
    "detector.simulate_heterodyne", "phase.estimate_phase", "tomography.mle_reconstruct", "tomography.wigner", "csvio.write_trace_csv",
    "csvio.read_trace_csv", "csvio.write_lines", "csvio.write_report",
    "csvio.write_density_csv", "csvio.write_wigner_csv", "csvio.read_density_csv",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "payload")

    def __init__(self, name: str, parent: int):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.payload = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped functions; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        keep = name in _KEEP_PAYLOAD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                span.payload = (args, kwargs, result)
            return result

        return traced

    def install(self, cli_module, keyrate_module) -> None:
        """Replace the traced names in the cli and keyrate module namespaces."""
        for attr, obj in list(vars(cli_module).items()):
            if not inspect.isfunction(obj):
                continue
            module = obj.__module__
            if module == cli_module.__name__ and attr.startswith("cmd_"):
                self._patch(cli_module, attr, f"cli.{attr}")
            elif module.startswith("hetasym.") and module != cli_module.__name__:
                self._patch(cli_module, attr, f"{module.rsplit('.', 1)[1]}.{attr}")
        self._patch(keyrate_module, "key_rate", "keyrate.key_rate")

    def _patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover (children
    of one parent never overlap in a single-threaded run)."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def _arg(payload, index: int, name: str):
    args, kwargs, _ = payload
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.exists() else 0


def _rows_written(span: Span) -> int:
    short = span.name.split(".", 1)[1]
    if short == "write_trace_csv":
        return _arg(span.payload, 1, "trace").n
    if short == "write_density_csv":
        return _arg(span.payload, 1, "rho").dim ** 2
    if short == "write_wigner_csv":
        return _arg(span.payload, 1, "grid").values.size
    if short == "write_report":
        return len(_arg(span.payload, 3, "entries"))
    # write_lines: everything after the comment block and the header row
    return sum(1 for line in _arg(span.payload, 1, "lines") if not line.startswith("#")) - 1


def _engine_table_mib(n: int, distinct: int, dim: int, grouped: bool) -> float:
    """Computed (not measured) size of the MLE engine's precomputed tables:
    grouped keeps real Hermite-Gauss rows (n x dim float64) plus one
    dim x dim complex phase table per tag; dense keeps the complex
    projectors (n x dim complex128)."""
    if grouped:
        return (n * dim * 8 + distinct * dim * dim * 16) / 2**20
    return n * dim * 16 / 2**20


def layer_metrics(spans: list[Span], traced_wall: float) -> dict[str, float]:
    """Reduce the spans of one traced instance run to the per-layer metrics.

    Layers and commands that the run never entered read 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name: str) -> float:
        return float(sum(spans[i].duration for i in by_name.get(name, ())))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def kept(name: str) -> list[Span]:
        """Spans of ``name`` that returned (a call that raised has no payload)."""
        return [spans[i] for i in by_name.get(name, ()) if spans[i].payload is not None]

    m: dict[str, float] = {"traced_wall_s": traced_wall}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(t for s, t in zip(spans, own) if s.layer == layer))
    for command in COMMANDS:
        name = f"cli.cmd_{command}"
        m[f"cli.{command}_s"] = total(name)
        m[f"cli.{command}.self_s"] = float(sum(own[i] for i in by_name.get(name, ())))
    m["config.load_s"] = total("config.load_config")

    for short in ("write_trace", "read_trace", "write_density", "write_wigner", "read_density"):
        m[f"csvio.{short}_s"] = total(f"csvio.{short}_csv")
    m["csvio.write_lines_s"] = total("csvio.write_lines")
    m["csvio.write_report_s"] = total("csvio.write_report")
    io_spans = [s for s in spans if s.layer == "csvio" and s.payload is not None]
    writes = [s for s in io_spans if s.name.startswith("csvio.write_")]
    reads = [s for s in io_spans if s.name.startswith("csvio.read_")]
    m["csvio.bytes_written"] = sum(_size(_arg(s.payload, 0, "path")) for s in writes)
    m["csvio.bytes_read"] = sum(_size(_arg(s.payload, 0, "path")) for s in reads)
    m["csvio.rows_written"] = sum(_rows_written(s) for s in writes)

    sweep_calls = [i for i in by_name.get("keyrate.key_rate", ())
                   if spans[i].parent >= 0 and spans[spans[i].parent].layer == "cli"]
    m["keyrate.key_rate_s"] = float(sum(spans[i].duration for i in sweep_calls))
    m["keyrate.key_rate_calls"] = len(sweep_calls)
    m["keyrate.max_distance_s"] = total("keyrate.max_distance")
    m["keyrate.max_distance_rate_evals"] = sum(
        1 for i in by_name.get("keyrate.key_rate", ())
        if spans[i].parent >= 0 and spans[spans[i].parent].name == "keyrate.max_distance")

    m["detector.simulate_s"] = total("detector.simulate_heterodyne")
    m["detector.samples"] = sum(s.payload[2].n for s in kept("detector.simulate_heterodyne"))
    m["phase.min_max_scale_s"] = total("phase.min_max_scale")
    m["phase.estimate_phase_s"] = total("phase.estimate_phase")
    m["phase.estimate_phase_calls"] = count("phase.estimate_phase")
    m["phase.blocks_dropped"] = sum(int(np.isnan(s.payload[2]).sum())
                                    for s in kept("phase.estimate_phase"))

    m.update(_tomography_metrics(kept, total))
    return m


def _tomography_metrics(kept, total) -> dict[str, float]:
    m = {
        "tomography.mle_s": total("tomography.mle_reconstruct"),
        "tomography.samples_from_trace_s": total("tomography.samples_from_trace"),
        "tomography.wigner_s": total("tomography.wigner"),
        "tomography.fit_coherent_s": total("tomography.fit_coherent"),
        "tomography.fidelity_s": total("tomography.fidelity"),
        "tomography.mle_iterations": 0, "tomography.mle_s_per_iter": 0.0,
        "tomography.mle_engine": 0, "tomography.distinct_tags": 0,
        "tomography.n_samples": 0, "tomography.floored": 0,
        "tomography.engine_table_mb": 0.0, "tomography.wigner_points": 0,
    }
    for span in kept("tomography.wigner"):
        m["tomography.wigner_points"] += span.payload[2].values.size
    for span in kept("tomography.mle_reconstruct"):
        samples = _arg(span.payload, 0, "samples")
        dim = int(_arg(span.payload, 1, "dim"))
        result = span.payload[2]
        distinct = int(np.unique(samples.theta).size)
        m["tomography.mle_iterations"] += result.iterations
        m["tomography.mle_engine"] = int(result.grouped)
        m["tomography.distinct_tags"] += distinct
        m["tomography.n_samples"] += samples.n
        m["tomography.floored"] += result.floored
        m["tomography.engine_table_mb"] += _engine_table_mib(samples.n, distinct, dim,
                                                             result.grouped)
    if m["tomography.mle_iterations"]:
        m["tomography.mle_s_per_iter"] = m["tomography.mle_s"] / m["tomography.mle_iterations"]
    return m
