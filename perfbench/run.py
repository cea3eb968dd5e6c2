"""hetasym benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is taken from ``src/``
(nothing needs to be installed).  With ``--trace 0`` every command of the
workload runs as a fresh ``python -m hetasym.cli`` subprocess, one after
another, and the end-to-end metrics are printed.  With ``--trace 1`` the same
commands run in this process through ``hetasym.cli.main``, once plain and
once traced, and the per-layer metrics are printed.  Either way the outputs
are checked, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
(``# env``, ``# summary``, ``# outputs``) carry the environment, the ungated
metrics and the SHA-256 of every output file; the same record is written to
``.bench_work/records/``.

``--smoke`` runs every workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json is emitted with its unit.

See METRICS.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Setup time is the median of ``hetasym --version`` runs spread over the
#: run: about this many, and never fewer.
SETUP_SAMPLES = 12

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

_LAYER_UNITS = {
    "tomography.mle_gap": "dimensionless", "tomography.fidelity_sqrt": "dimensionless",
    "tomography.mle_engine": "flag", "tomography.engine_table_mb": "MiB",
    "csvio.bytes_written": "bytes", "csvio.bytes_read": "bytes",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric: times end in _s or _per_iter, the rest
    are counts unless listed."""
    if name in _LAYER_UNITS:
        return _LAYER_UNITS[name]
    return "s" if name.endswith(("_s", "_per_iter")) else "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def _median_of_instances(per_instance: dict[int, list[float]]) -> float:
    """Median across instances of each instance's median across passes, so
    the figure does not depend on how many passes fitted in the run."""
    return _median([_median(v) for v in per_instance.values() if v])


class Run:
    """One benchmark run of one workload: counts, failures and records."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[int, dict[str, str]] = {}
        self.fidelity: dict[int, float] = {}
        self.gap: dict[int, float] = {}
        self.iterations: dict[int, int] = {}
        self.samples: dict = {}   # every measured value, for the record file

    def instance_dir(self, k: int) -> Path:
        return WORK / self.workload.name / f"i{k:02d}"

    def prepare(self) -> None:
        shutil.rmtree(WORK / self.workload.name, ignore_errors=True)
        for k in range(self.workload.instances):
            sim_seed = workloads.instance_seed(self.workload.name, self.seed, k)
            self.workload.write_configs(self.instance_dir(k), sim_seed)

    def expect(self, failures: list[str]) -> None:
        self.attempted += 1
        self.failures += failures

    def check_outputs(self, k: int, stdout: dict[str, str]) -> None:
        """Run every output check of instance k; record hashes, gap, fidelity."""
        d = self.instance_dir(k)
        wl = self.workload
        guarded = []
        if "scale" in wl.commands:
            guarded.append(lambda: checks.check_scale(d))
        if "phase-deviation" in wl.commands:
            rows = int(wl.simulate["n_phases"]) * int(wl.simulate.get("pulses_per_phase", 1))
            guarded.append(lambda: checks.check_phase_deviation(d, rows))
        if "keyrate-sweep" in wl.commands:
            from hetasym.config import load_config
            sweep = load_config(str(d / "analysis.cfg"), env={})
            steps = round((sweep.distance_max_km - sweep.distance_min_km)
                          / sweep.distance_step_km)
            guarded.append(lambda: checks.check_keyrate(d, steps + 1, len(sweep.xi_det_list())))
        if "tomography" in wl.commands:
            guarded.append(lambda: checks.check_tomography(d))
        if "fidelity" in wl.commands:
            guarded.append(lambda: checks.check_fidelity(stdout.get("fidelity", "")))
        for check in guarded:
            try:
                self.expect(check())
            except (OSError, ValueError, IndexError, KeyError) as exc:
                self.expect([f"instance {k}: check could not read outputs: {exc!r}"])

        hashes = checks.output_hashes(d)
        if k in self.hashes:
            self.expect([] if hashes == self.hashes[k] else
                        [f"instance {k}: outputs differ between reruns of the same inputs"])
        else:
            self.hashes[k] = hashes
        if "tomography" in wl.commands and k not in self.gap:
            try:
                report = checks.read_report(d / "tomo.report.txt")
                self.fidelity[k] = float(report["fidelity_sqrt"])
                self.iterations[k] = int(report["iterations"])
                self.gap[k] = checks.mle_gap(d)
                self.expect([])
            except (OSError, ValueError, KeyError) as exc:
                self.expect([f"instance {k}: gap/fidelity unavailable: {exc!r}"])

    def result(self, metrics: dict[str, float], units) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": value, "unit": units(name)}
                        for name, value in metrics.items()},
        }


def _passes(instances: int, seconds: float, run_instance) -> None:
    """Repeat whole passes over the first ``instances`` instances while the
    next pass is expected to end within ``seconds``; always at least one."""
    start = time.perf_counter()
    pass_no = 0
    while True:
        began = time.perf_counter()
        for k in range(instances):
            run_instance(k, pass_no)
        pass_no += 1
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return


# ---------------------------------------------------------------- untraced


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv: list[str], cwd: Path, env: dict, log: Path):
    """Run ``python -m hetasym.cli argv``; returns (wall s, max RSS KiB, exit
    code, combined stdout/stderr)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hetasym.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, log.read_text(encoding="utf-8",
                                                                 errors="replace")


def measure_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    env = _subprocess_env()
    wl = run.workload
    setup_dir = WORK / wl.name
    setup: list[float] = []
    per_command: dict[str, dict[int, list[float]]] = {}
    peak_kib = 0
    last_setup = 0.0

    def version() -> None:
        nonlocal last_setup
        wall, _, code, out = run_cli(["--version"], setup_dir, env, setup_dir / "_version.out")
        run.expect([] if code == 0 else [f"--version exited {code}: {out.strip()}"])
        setup.append(wall)
        last_setup = time.perf_counter()

    def instance(k: int, pass_no: int) -> None:
        nonlocal peak_kib
        if time.perf_counter() - last_setup >= seconds / SETUP_SAMPLES:
            version()
        d = run.instance_dir(k)
        stdout = {}
        for command, argv in wl.steps(d):
            wall, rss, code, out = run_cli(argv, d, env, d / f"_{command}.out")
            run.expect([] if code == 0 else [f"instance {k}: {command} exited {code}: "
                                              f"{out.strip()[-300:]}"])
            stdout[command] = out
            peak_kib = max(peak_kib, rss)
            per_command.setdefault(command, {}).setdefault(k, []).append(wall)
        run.check_outputs(k, stdout)

    # compiles the package's bytecode in this checkout, as an install would
    run_cli(["--version"], setup_dir, env, setup_dir / "_version.out")
    _passes(wl.instances, seconds, instance)
    while len(setup) < SETUP_SAMPLES:
        version()

    times = {command: _median_of_instances(values) for command, values in per_command.items()}
    metrics = {
        "wall_s": sum(times.values()),
        "setup_s": _median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    summary = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()}
    for command, value in times.items():
        summary[f"{command.replace('-', '_')}_s"] = {"value": value, "unit": "s"}
    summary["error_rate"] = {"value": len(run.failures) / max(run.attempted, 1),
                             "unit": "fraction"}
    if run.gap:
        summary["fidelity_sqrt"] = {"value": _median(list(run.fidelity.values())),
                                    "unit": "dimensionless"}
        summary["mle_gap"] = {"value": _median(list(run.gap.values())), "unit": "dimensionless"}
        summary["mle_iterations"] = {"value": _median(list(run.iterations.values())),
                                     "unit": "count"}
    summary["instances"] = {"value": wl.instances, "unit": "count"}
    summary["passes"] = {"value": len(per_command["simulate"][0]), "unit": "count"}
    summary["setup_samples"] = {"value": len(setup), "unit": "count"}
    run.samples = {"setup": setup, **per_command}
    return metrics, summary


# ------------------------------------------------------------------ traced


def _in_process(main, steps) -> tuple[float, dict[str, int], dict[str, str]]:
    """Run the command sequence through ``main(argv)``; returns (summed wall of
    the calls, exit codes, captured output)."""
    wall, codes, outputs = 0.0, {}, {}
    for command, argv in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = time.perf_counter()
            try:
                codes[command] = main(argv)
            except SystemExit as exc:
                codes[command] = exc.code if isinstance(exc.code, int) else 2
            wall += time.perf_counter() - start
        outputs[command] = buf.getvalue()
    return wall, codes, outputs


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    import hetasym.cli as cli
    import hetasym.keyrate as keyrate

    per_metric: dict[str, dict[int, list[float]]] = {}
    plain_walls: dict[int, list[float]] = {}

    def record(k: int, values: dict[str, float]) -> None:
        for name, value in values.items():
            per_metric.setdefault(name, {}).setdefault(k, []).append(value)

    def instance(k: int, pass_no: int) -> None:
        d = run.instance_dir(k)
        steps = run.workload.steps(d)
        tracer = spans.Tracer()

        def plain():
            wall, codes, _ = _in_process(cli.main, steps)
            return wall, codes, checks.output_hashes(d)

        def traced():
            tracer.install(cli, keyrate)
            try:
                wall, codes, out = _in_process(tracer.wrap("cli.main", cli.main), steps)
            finally:
                tracer.uninstall()
            return wall, codes, out

        # alternate the order so first-call costs do not bias the overhead
        if (k + pass_no) % 2 == 0:
            plain_wall, plain_codes, plain_hashes = plain()
            traced_wall, codes, out = traced()
            other_hashes = checks.output_hashes(d)
        else:
            traced_wall, codes, out = traced()
            other_hashes = checks.output_hashes(d)
            plain_wall, plain_codes, plain_hashes = plain()
        for command, code in codes.items():
            run.expect([] if code == 0 and plain_codes[command] == 0 else
                        [f"instance {k}: in-process {command} exited {code} traced, "
                         f"{plain_codes[command]} plain"])
        run.expect([] if plain_hashes == other_hashes else
                   [f"instance {k}: traced outputs differ from untraced outputs"])
        run.check_outputs(k, out)

        own_total = sum(spans.self_times(tracer.spans))
        run.expect([] if abs(own_total - traced_wall) <= 0.1 * traced_wall else
                   [f"instance {k}: self times sum to {own_total:.4f} s of a traced "
                    f"{traced_wall:.4f} s"])
        values = spans.layer_metrics(tracer.spans, traced_wall)
        plain_walls.setdefault(k, []).append(plain_wall)
        values["tomography.mle_gap"] = run.gap.get(k, 0.0)
        values["tomography.fidelity_sqrt"] = run.fidelity.get(k, 0.0)
        record(k, values)

    _passes(run.workload.traced_instances, seconds, instance)
    metrics = {name: _median_of_instances(values) for name, values in per_metric.items()}
    # median traced minus median plain run of each instance, as the untraced
    # timings are taken
    metrics["trace_overhead_s"] = _median([
        _median(per_metric["traced_wall_s"][k]) - _median(plain_walls[k]) for k in plain_walls])
    run.samples = {**per_metric, "plain_wall_s": plain_walls}
    summary = {"instances": {"value": len(per_metric.get("traced_wall_s", {})),
                             "unit": "count"}}
    # where the in-process time goes: the shares the workloads were chosen for
    if metrics["cli.tomography_s"]:
        summary["mle_share_of_tomography"] = {
            "value": metrics["tomography.mle_s"] / metrics["cli.tomography_s"], "unit": "fraction"}
    summary["csvio_cli_self_share"] = {
        "value": (metrics["csvio.self_s"] + metrics["cli.self_s"]) / metrics["traced_wall_s"],
        "unit": "fraction"}
    return metrics, summary


# -------------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 table=workloads.FULL) -> tuple[dict, dict]:
    run = Run(table[name], seed)
    run.prepare()
    if trace:
        metrics, summary = measure_traced(run, seconds)
        result = run.result(metrics, layer_unit)
    else:
        metrics, summary = measure_untraced(run, seconds)
        result = run.result(metrics, E2E_UNITS.get)
    record = {"workload": name, "trace": int(trace), "env": checks.environment(seed),
              "summary": summary, "failures": run.failures,
              "outputs": {str(k): v for k, v in run.hashes.items()}, "result": result,
              "samples": run.samples}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, record


def smoke() -> int:
    """Every workload at tiny size, both modes: outputs correct, and every
    metric named in BENCHMARK.json emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in workloads.TINY:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run_workload(name, 1, 0, trace, workloads.TINY)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            problems = list(record["failures"])
            if expected != emitted:
                problems.append(f"metrics differ from BENCHMARK.json {key}: missing "
                                f"{sorted(set(expected) - set(emitted))}, extra "
                                f"{sorted(set(emitted) - set(expected))}, unit mismatches "
                                f"{sorted(m for m in expected if m in emitted and expected[m] != emitted[m])}")
            status = "ok" if not problems and result["correct"] else "FAIL"
            ok &= status == "ok"
            print(f"{status:4} {name:13} trace={int(trace)} attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(emitted)}")
            for problem in problems:
                print(f"     {problem}")
            print("     " + ", ".join(f"{figure} = {v['value']:.6g} {v['unit']}"
                                      for figure, v in record["summary"].items()))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)

    if not (SRC / "hetasym" / "cli.py").is_file():
        print(f"error: no hetasym sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # configs come only from the generated files, never from the caller's
    # HETASYM_* environment
    for key in [k for k in os.environ if k.startswith("HETASYM_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("# env " + json.dumps(record["env"]))
    print("# summary " + json.dumps(record["summary"]))
    print("# outputs " + json.dumps(record["outputs"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
