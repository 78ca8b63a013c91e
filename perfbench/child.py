"""One workload pass in a fresh interpreter: import car2cloud, run cli.main.

Usage: python3 perfbench/child.py <t0> <spec.json> <result.json>

``t0`` is the parent's ``time.monotonic()`` taken just before it started
this process; on Linux the monotonic clock is shared between processes, so
``setup_s`` covers interpreter start-up and the package import (numpy
included).  The spec names the package directory that must be imported,
the cli.main argument lists to run in order, and whether to trace.

A speed probe runs from the first line on (see SpeedProbe), so that the
parent can scale wall times to a reference CPU speed.

Tracing replaces public functions by timing wrappers at the module
attribute their caller looks them up through.  Per-call timings are folded
into (calls, total, child) sums, because a workload makes about a million
such calls; the per-command stage spans are kept in memory.  Everything is
written to the result file when the pass ends.
"""

import signal
import time

PROBE_INTERVAL_S = 0.02  # process CPU time between two speed samples
PROBE_FLOATS = 1500      # floats allocated and summed per sample
PROBE_LOOPS = 5000       # empty loop iterations per sample


class SpeedProbe:
    """Samples the speed of the CPU from inside the measured thread.

    The host's CPU speed drifts by 10-30 % within seconds, and the two CPUs
    drift independently, so a calibration taken beside a pass cannot
    correct it.  Instead a SIGPROF handler times a fixed piece of work every
    PROBE_INTERVAL_S of CPU time, interleaved with the pipeline's own work,
    and keeps the durations per stage.  The work, an allocate-and-sum and an
    empty loop of about 0.1 ms each, tracked the drift of every stage better
    than either part alone or a pointer chase; it costs about 1 % of a pass.
    """

    def __init__(self):
        self.stage = "setup"
        self.samples: dict[str, list[float]] = {}
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        sum([float(i) for i in range(PROBE_FLOATS)])
        for _ in range(PROBE_LOOPS):
            pass
        self.samples.setdefault(self.stage, []).append(time.perf_counter() - start)

    def stop(self) -> dict[str, list[float]]:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        return self.samples


# Started before the other imports, so that set-up is sampled too; this file
# only ever runs as a script.
PROBE = SpeedProbe()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import car2cloud.cli as cli  # noqa: E402
import numpy  # noqa: E402

# (module, attribute) pairs to wrap; the metric name is the defining module
# and qualified name of the function, e.g. engine.best_link -> radio.best_link.
TRACED = [
    ("engine", "best_link"),
    ("scheduler", "rr_allocate"),
    ("scheduler", "vehicle_rate"),
    ("linkrate", "rb_rate"),
    ("cvim", "package"),
    ("cvim", "tick_records"),
    ("cvim", "try_transmit"),
    ("cvim", "TransmitQueue.queued_bytes"),
    ("cvim", "count_packages_per_cell"),
    ("mobility", "generate_traces"),
    ("mobility", "emit_trace_csv"),
    ("mobility", "parse_trace_csv"),
    ("radio", "parse_stations_csv"),
    ("engine", "load_config"),
    ("engine", "run"),
    ("engine", "write_results_csv"),
    ("engine", "read_results_csv"),
    ("engine", "summarize"),
    ("analysis", "rate_stats"),
    ("analysis", "cdf"),
    ("analysis", "write_stats_json"),
    ("analysis", "write_cdf_csv"),
    ("analysis", "write_cell_packages_csv"),
]


class Tracer:
    """Per-function call counts, total time and time spent in wrapped callees."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._child = [0.0]  # child-time accumulator per open call; [0] is the root

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += child.pop()
                child[-1] += elapsed

        return traced

    def install(self):
        for module_name, attr in TRACED:
            module = importlib.import_module(f"car2cloud.{module_name}")
            if "." in attr:  # a property on a class
                cls_name, prop_name = attr.split(".")
                cls = getattr(module, cls_name)
                fget = getattr(cls, prop_name).fget
                setattr(cls, prop_name, property(self.wrap(self._name(fget), fget)))
            else:
                fn = getattr(module, attr)
                setattr(module, attr, self.wrap(self._name(fn), fn))

    @staticmethod
    def _name(fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def main() -> int:
    setup_s = time.monotonic() - float(sys.argv[1])
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    package = cli.__file__.rsplit("/", 1)[0]
    if package != spec["package"]:
        print(f"imported car2cloud from {package}, expected {spec['package']}", file=sys.stderr)
        return 1
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    spans = []
    for i, argv in enumerate(spec["commands"]):
        PROBE.stage = str(i)
        run = tracer.wrap(f"cli.{argv[0]}", cli.main) if tracer else cli.main
        start = time.perf_counter()
        try:
            rc = run(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        spans.append({"command": argv[0], "start": start, "end": time.perf_counter(), "rc": rc})
    result = {
        "probe": PROBE.stop(),
        "setup_s": setup_s,
        "numpy": numpy.__version__,
        "spans": spans,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": tracer.stats if tracer else None,
    }
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
