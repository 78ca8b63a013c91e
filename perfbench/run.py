"""Benchmark of the car2cloud pipeline: gen-traces -> simulate -> analyze.

Run from the repository root:

    python3 perfbench/run.py --workload paper_pair --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced and traced
    python3 perfbench/run.py --self-test        # tiny sizes, every metric emitted

Each pipeline pass is a fresh interpreter (child.py) that imports car2cloud
from ./src and calls cli.main for each command in README order.

--trace 0 reports the end-to-end metrics: set-up time (interpreter start to
``import car2cloud.cli`` done, median of several start-ups), the time of
each command kind summed over the pass, simulate rows/s and the child's peak
RSS, each the median over the passes made in --seconds (at least one).

--trace 1 runs an untraced and a traced pass on the same inputs and reports
per-function calls, total and self time, the tracing overhead (traced minus
untraced pipeline time) and the deterministic workload counters.

Times are wall times scaled to a reference CPU speed: the host's CPU speed
drifts by 10-30 % within seconds, so each stage's wall time is multiplied
by REFERENCE_PROBE_S over the median time of the speed probe that ran
inside the child during that stage.  The unscaled wall time and the scale
factor are printed beside the metrics and kept in the run record.

Both modes check the outputs (exit codes, row counts, bytes conservation,
determinism between passes, and reference digests at the default seed and
size).  The last stdout line is the JSON result; a fuller record with the
run environment goes to .perfbench_runs/.  Exit code 1 means a check
failed or the program could not be started.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import Check, check_outputs, digests
from workloads import DEFAULT_SEED, WORKLOADS, Plan

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
CHILD = Path(__file__).with_name("child.py")
REFERENCE = Path(__file__).with_name("reference_digests.json")

SETUP_PROBES = 7       # extra start-ups per untraced run, for a steady setup_s median
# Time of one child.SpeedProbe sample at the reference CPU speed.  Time
# metrics are wall times scaled by this over the median probe time seen
# meanwhile, i.e. seconds on a CPU running at the reference speed.
REFERENCE_PROBE_S = 3.0e-4
MIN_PROBE_SAMPLES = 5  # fewer samples in a stage: use the whole pass's speed
RUN_LIMIT_S = 170.0    # a whole run ends within this, whatever --seconds says
CALIBRATION_LOOP = 2_000_000

STAGES = {"gen-traces": "gen_s", "simulate": "simulate_s", "analyze": "analyze_s"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "gen_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "pipeline_s": "s",
    "simulate_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
COUNTER_UNITS = {
    "engine.rows": "count",
    "mobility.vehicle_seconds": "veh-s",
    "radio.handovers": "count",
    "linkrate.outage_ticks": "count",
    "scheduler.max_cell_load": "vehicles",
    "cvim.queue_hwm_bytes": "B",
    "cvim.delivered_ratio": "ratio",
}


class StartupError(Exception):
    """The program could not be imported or run at all."""


@dataclass
class Report:
    workload: str
    seed: int
    trace: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.checks)

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": len(self.checks),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


class Runner:
    """Spawns child passes for one benchmark run and keeps to its time limit."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.numpy = "unknown"

    def spawn(self, commands: list[list[str]], trace: bool) -> dict | None:
        spec_path, result_path = self.work / "spec.json", self.work / "child.json"
        spec = {"package": str(ROOT / "src" / "car2cloud"), "commands": commands, "trace": trace}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        timeout = max(self.deadline - time.monotonic(), 1.0)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), repr(t0), str(spec_path), str(result_path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(proc.stderr[-4000:], file=sys.stderr)
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.numpy = result["numpy"]
        if any(span["rc"] != 0 for span in result["spans"]):
            print(proc.stderr[-4000:], file=sys.stderr)
        return result

    def setup_probes(self, count: int) -> list[float]:
        """Import-only start-ups; the first warms the bytecode cache and is dropped."""
        samples = []
        for _ in range(count + 1):
            result = self.spawn([], trace=False)
            if result is None:
                raise StartupError("car2cloud could not be imported from ./src")
            samples.append(scaled_setup(result))
        return samples[1:]

    def repeat(self, step, seconds: float) -> list:
        """Run step() until `seconds` have passed, at least once, and never
        start one that would not end before the run's deadline."""
        start = time.monotonic()
        out = []
        while True:
            began = time.monotonic()
            out.append(step())
            now = time.monotonic()
            if out[-1] is None or now - start >= seconds or now + (now - began) > self.deadline:
                return out


def command_checks(commands: list[list[str]], result: dict | None) -> list[Check]:
    if result is None:
        return [(f"cli {argv[0]} ran", False, "pass failed") for argv in commands]
    return [(f"cli {argv[0]} exit code", span["rc"] == 0, f"rc {span['rc']}")
            for argv, span in zip(commands, result["spans"])]


def speed_factors(result: dict) -> tuple[float, float, list[float]]:
    """Factors that scale a pass's wall times to the reference CPU speed:
    for the whole pass, for its set-up and for each command.  Each is the
    reference probe time over the median probe time seen meanwhile."""
    probe = result["probe"]
    everything = [d for samples in probe.values() for d in samples]
    whole = REFERENCE_PROBE_S / statistics.median(everything) if everything else 1.0

    def factor(stage: str) -> float:
        samples = probe.get(stage, [])
        if len(samples) < MIN_PROBE_SAMPLES:
            return whole
        return REFERENCE_PROBE_S / statistics.median(samples)

    return whole, factor("setup"), [factor(str(i)) for i in range(len(result["spans"]))]


def stage_times(result: dict, scaled: bool = True) -> dict[str, float]:
    factors = speed_factors(result)[2] if scaled else [1.0] * len(result["spans"])
    times = dict.fromkeys(STAGES.values(), 0.0)
    for span, factor in zip(result["spans"], factors):
        times[STAGES[span["command"]]] += (span["end"] - span["start"]) * factor
    times["pipeline_s"] = sum(times.values())
    return times


def scaled_setup(result: dict) -> float:
    return result["setup_s"] * speed_factors(result)[1]


def reference_digests(workload: str, seed: int, tiny: bool) -> dict[str, str] | None:
    if tiny or seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_untraced(runner: Runner, report: Report, seconds: float, tiny: bool) -> None:
    plan = WORKLOADS[report.workload](ROOT, fresh_dir(runner.work / "pass"), tiny)
    commands = plan.commands(report.seed)
    setup = runner.setup_probes(1 if tiny else SETUP_PROBES)
    first_digests: dict[str, str] = {}

    def one_pass():
        result = runner.spawn(commands, trace=False)
        report.checks.extend(command_checks(commands, result))
        if result is None:
            return None
        if not first_digests:
            checks, counters = check_outputs(
                plan, reference_digests(report.workload, report.seed, tiny))
            report.checks.extend(checks)
            first_digests.update(digests(plan))
            report.record.update(counters=counters, digests=dict(first_digests))
        else:
            report.checks.append(("outputs identical across passes",
                                  digests(plan) == first_digests, ""))
        return result

    passes = [r for r in runner.repeat(one_pass, seconds) if r is not None]
    if not passes:
        return
    rows = report.record["counters"]["engine.rows"]
    samples: dict[str, list[float]] = {"setup_s": setup + [scaled_setup(r) for r in passes]}
    for result in passes:
        times = stage_times(result)
        for name, value in times.items():
            samples.setdefault(name, []).append(value)
        samples.setdefault("simulate_rows_per_s", []).append(rows / times["simulate_s"])
        samples.setdefault("peak_rss_mb", []).append(result["maxrss_kb"] / 1024.0)
        samples.setdefault("wall_pipeline_s", []).append(stage_times(result, scaled=False)["pipeline_s"])
        samples.setdefault("speed_factor", []).append(speed_factors(result)[0])
    report.metrics = {name: (statistics.median(samples[name]), unit)
                      for name, unit in END_TO_END_UNITS.items()}
    report.record.update(samples=samples, spans=[r["spans"] for r in passes])


def layer_metrics(result: dict, plan: Plan) -> dict[str, float]:
    stats = result["stats"]
    factor = speed_factors(result)[0]
    values = {}
    for name, (calls, total, child) in sorted(stats.items()):
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total * factor
        values[f"{name}.self_s"] = (total - child) * factor
    values["radio.snr_evals"] = stats["radio.best_link"][0] * plan.n_stations
    return values


def measure_traced(runner: Runner, report: Report, seconds: float, tiny: bool) -> None:
    plain = WORKLOADS[report.workload](ROOT, fresh_dir(runner.work / "untraced"), tiny)
    traced = WORKLOADS[report.workload](ROOT, fresh_dir(runner.work / "traced"), tiny)
    runner.setup_probes(0)  # only the warm-up start-up, which also proves the import works

    def one_pair():
        results = []
        for plan, trace in ((plain, False), (traced, True)):
            commands = plan.commands(report.seed)
            result = runner.spawn(commands, trace=trace)
            report.checks.extend(command_checks(commands, result))
            if result is None:
                return None
            results.append(result)
        if "counters" not in report.record:
            checks, counters = check_outputs(
                plain, reference_digests(report.workload, report.seed, tiny))
            report.checks.extend(checks)
            report.record.update(counters=counters, digests=digests(plain))
        report.checks.append(("traced outputs identical to untraced",
                              digests(traced) == digests(plain), ""))
        return results

    pairs = [p for p in runner.repeat(one_pair, seconds) if p is not None]
    if not pairs:
        return
    samples: dict[str, list[float]] = {}
    for untraced_result, traced_result in pairs:
        values = layer_metrics(traced_result, traced)
        values["speed_factor"] = speed_factors(traced_result)[0]
        values["wall_pipeline_s"] = stage_times(traced_result, scaled=False)["pipeline_s"]
        values["trace.overhead_s"] = (stage_times(traced_result)["pipeline_s"]
                                      - stage_times(untraced_result)["pipeline_s"])
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    for name, values in samples.items():
        if name not in ("speed_factor", "wall_pipeline_s"):
            unit = "count" if name.endswith((".calls", "snr_evals")) else "s"
            report.metrics[name] = (statistics.median(values), unit)
    for name, value in report.record["counters"].items():
        report.metrics[name] = (value, COUNTER_UNITS[name])
    report.record.update(samples=samples, spans=[p[1]["spans"] for p in pairs])


def calibrate() -> float:
    """Time of a fixed pure-Python loop, so machine speed drift shows beside results."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i
    return time.perf_counter() - start


def environment(numpy_version: str) -> dict:
    git_sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or git_sha
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "car2cloud").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> Report:
    report = Report(workload, seed, trace)
    runner = Runner(fresh_dir(RUNS / f"work-{workload}-{seed}-{trace}"))
    calibration = [calibrate()]
    try:
        (measure_traced if trace else measure_untraced)(runner, report, seconds, tiny)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    calibration.append(calibrate())
    env = environment(runner.numpy)
    env["calibration_s"] = calibration
    report.record.update(env=env, workload=workload, seed=seed, trace=trace, seconds=seconds,
                         tiny=tiny, result=report.result(),
                         checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in report.checks])
    suffix = "-tiny" if tiny else ""
    (RUNS / f"{workload}-seed{seed}-trace{trace}{suffix}.json").write_text(
        json.dumps(report.record, indent=1), encoding="utf-8")
    return report


def print_report(report: Report) -> None:
    env = report.record["env"]
    calibration = ", ".join(f"{c:.4f}" for c in env["calibration_s"])
    print(f"perfbench {report.workload} seed={report.seed} trace={report.trace}")
    print(f"  env: git={env['git_sha'][:12]} src={env['src_sha256'][:12]} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"calibration_s={calibration}")
    samples = report.record.get("samples", {})
    if samples:
        print(f"  times are wall times x speed factor (median {statistics.median(samples['speed_factor']):.4f}"
              f" over {len(samples['speed_factor'])} passes; median wall pipeline"
              f" {statistics.median(samples['wall_pipeline_s']):.4f} s)")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<44} {report.failed / max(len(report.checks), 1):>16.6g} ratio"
          f"  ({report.failed} failed of {len(report.checks)} commands and checks)")
    for name, ok, detail in report.checks:
        if not ok:
            print(f"  FAILED {name}: {detail}")


def self_test() -> int:
    """Run every workload at a tiny size, untraced and traced, through the
    same code, and require each metric BENCHMARK.json names, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run(workload, DEFAULT_SEED, 0, trace, tiny=True)
            emitted = {name: unit for name, (_, unit) in report.metrics.items()}
            where = f"{workload} trace={trace}"
            if report.failed:
                problems.append(f"{where}: {report.failed} failed checks")
            if emitted != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(emitted.items()))
                extra = sorted(set(emitted.items()) - set(expected[trace].items()))
                problems.append(f"{where}: missing {missing}, unexpected {extra}")
            print(f"self-test {where}: {len(emitted)} metrics, {len(report.checks)} checks")
    for problem in problems:
        print(f"self-test FAILED {problem}")
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload != "all":
            report = run(args.workload, args.seed, args.seconds, args.trace)
            print_report(report)
            print(json.dumps(report.result()))
            return 0 if report.failed == 0 else 1
        reports = [run(w, args.seed, args.seconds, t) for w in WORKLOADS for t in (0, 1)]
    except StartupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    failed = sum(r.failed for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(r.checks) for r in reports),
        "failed": failed,
        "metrics": {f"{r.workload}.{k}": v for r in reports for k, v in r.result()["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
