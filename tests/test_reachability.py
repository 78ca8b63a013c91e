"""src/ holds what the commands run, and a named reason for everything else.

Every benchmark workload's commands run at their tiny size, and a `plan`,
under sys.settrace, which records each function that is called.  A
function of src/ that none of them calls must be on NOT_RUN, with the
reason it stays; a helper that only tests call should go instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import car2cloud
from car2cloud import cli

PACKAGE = Path(car2cloud.__file__).resolve().parent
ROOT = PACKAGE.parent.parent

TRACED = "perfbench/child.py's TRACED names it, so the benchmark's traced run wraps it"
QUEUE = "the transmit queue that TRACED try_transmit drains"
PACKAGE_ONLY = "only TRACED cvim.package calls it"
NOT_RUN = {
    "scheduler.rr_allocate": TRACED,
    "scheduler.vehicle_rate": TRACED,
    "cvim.package": TRACED,
    "cvim.tick_records": TRACED,
    "cvim.try_transmit": TRACED,
    "cvim.TransmitQueue.queued_bytes": TRACED,
    "cvim.TransmitQueue.__init__": QUEUE,
    "cvim.TransmitQueue.__len__": QUEUE,
    "cvim.TransmitQueue._head": QUEUE,
    "cvim.TransmitQueue._pop": QUEUE,
    "cvim.TransmitQueue.push": QUEUE,
    "cvim.TransmitQueue.push_size": QUEUE,
    "cvim.PackageMeta.__post_init__": PACKAGE_ONLY,
    "cvim.checksum": PACKAGE_ONLY,
    "cvim._records_blob": PACKAGE_ONLY,
    "cvim.pseudonymize": PACKAGE_ONLY,
    "csvio._first_bad_row": "names the first bad line of a CSV chunk: an error path",
    "mobility._check_sample": "names the rule a bad trace sample breaks: an error path",
    "mobility.TraceTable.__len__": "a TraceTable is sized as a TickTable is, by len()",
    "cvim.MeasurementChannel.__post_init__": "runs on import, for BASE_CHANNELS",
    "radio._per_element": "runs on import, for _HYPOT and _LOG10",
}


def src_functions() -> dict[tuple[str, int, str], str]:
    """Every def of src/, by its code object's (file, first line, name), to its module.qualname."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue  # comprehensions and lambdas run as part of their function
            if const.co_flags & inspect.CO_NEWLOCALS:
                qualname = prefix + const.co_name
                found[const.co_filename, const.co_firstlineno, const.co_name] = (
                    f"{module}.{qualname}"
                )
                walk(const, module, f"{qualname}.<locals>.")
            else:  # a class body
                walk(const, module, f"{prefix}{const.co_name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        # Compiled under the file name the imported module's code carries.
        filename = importlib.import_module(f"car2cloud.{path.stem}").__file__
        walk(compile(path.read_text(encoding="utf-8"), filename, "exec"), path.stem, "")
    return found


def workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def functions_run(tmp_path: Path) -> set[tuple[str, int, str]]:
    """The code objects called while every workload runs at its tiny size, then plan."""
    bench = workloads()
    commands = []
    for name, make in bench.WORKLOADS.items():
        (tmp_path / name).mkdir()
        commands += make(ROOT, tmp_path / name, True).commands(bench.DEFAULT_SEED)
    commands.append(["plan", "--rate", "1e6", "--snr", "10", "--speed", "20"])
    ran = set()

    def record(frame, event, arg):
        code = frame.f_code
        ran.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.settrace(previous)
    assert codes == [0] * len(commands)
    return ran


def test_every_src_function_runs_or_has_a_reason(tmp_path):
    functions = src_functions()
    ran = functions_run(tmp_path)
    not_run = {name for key, name in functions.items() if key not in ran}
    assert sorted(not_run - NOT_RUN.keys()) == []
    # The list names only functions that exist and that no command runs.
    assert sorted(NOT_RUN.keys() - not_run) == []
