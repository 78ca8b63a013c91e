"""The package runs in its caller's process and thread, and its number text lives in csvio.

No module forks, opens a pipe, pickles, or starts a process or thread, so
the package is safe to call from a program that runs threads.  orjson is
the codec's decision, behind one module, car2cloud.csvio: it writes the
codec's number text and, where a byte gate shows that it reads the text as
int and float do, reads it back.  Each module's source is read with ast, so
that a use is found wherever it sits, also in a function no test calls.
Float totals are explicit left-to-right folds, not builtin sum, whose
rounding changed in Python 3.12.  numpy's transcendental functions may
differ from math's in the last ulp, so only the association screen, which
sends every row it cannot decide exactly to best_link, refers to them.
Ids are coded once, where they arrive as strings, by one id coder, and
tables carry the codes from there to the writers.  The CSV readers read
their header lines by one rule, and no module reads the CPU count.
"""

import ast
from itertools import chain
from pathlib import Path

import car2cloud

PACKAGE = Path(car2cloud.__file__).resolve().parent
CONCURRENCY_NAMES = {
    "os.fork", "os.pipe", "pickle", "multiprocessing", "concurrent.futures", "threading",
}


def names_used(path: Path) -> set[str]:
    """The modules the module at path imports, their packages, and its module.attribute names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(chain.from_iterable(packages(alias.name) for alias in node.names))
        elif isinstance(node, ast.ImportFrom):
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
            found.update(packages(node.module or ""))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def packages(module: str) -> list[str]:
    """module and each package that holds it: a.b.c, a.b and a."""
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def users(names: set[str]) -> dict[str, list[str]]:
    """Each package module that uses any of names, with the ones it uses."""
    found = {path.name: sorted(names_used(path) & names) for path in sorted(PACKAGE.glob("*.py"))}
    return {module: used for module, used in found.items() if used}


def test_no_module_forks_pipes_pickles_or_starts_threads():
    assert users(CONCURRENCY_NAMES) == {}


def test_only_csvio_imports_orjson():
    assert users({"orjson"}) == {"csvio.py": ["orjson"]}


def builtin_sum_calls(path: Path) -> list[int]:
    """The lines of the module at path that call a name sum."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]


def test_no_module_calls_builtin_sum():
    found = {path.name: builtin_sum_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


NUMPY_TRANSCENDENTALS = {"log", "log10", "log2", "exp", "power", "hypot"}


def scoped_nodes(path: Path):
    """Each node of the module at path, with the innermost enclosing function or
    class (module.Class.function), or the module."""

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
            else:
                yield from visit(child, scope)

    return visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def numpy_transcendental_refs(path: Path) -> dict[str, list[str]]:
    """Each function of the module at path that refers to one of NUMPY_TRANSCENDENTALS.

    A reference is a numpy.name attribute, called or passed as a value, or
    a from-numpy import; it counts for the innermost enclosing function,
    or for the module.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    numpy_names = {
        alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    found: dict[str, set[str]] = {}
    for scope, node in scoped_nodes(path):
        names = []
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in numpy_names:
                names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = [alias.name for alias in node.names]
        for name in NUMPY_TRANSCENDENTALS.intersection(names):
            found.setdefault(scope, set()).add(name)
    return {scope: sorted(names) for scope, names in found.items()}


def test_only_the_association_screen_refers_to_numpy_transcendentals():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(numpy_transcendental_refs(path))
    # screen_links passes np.log10 to the link budget as a value.
    assert "log10" in found.pop("radio.screen_links")
    assert found == {}


def callers(name: str) -> set[str]:
    """Each function of the package that calls name, by name or as module.name."""
    return {
        scope
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, node in scoped_nodes(path)
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    }


def test_ids_are_coded_only_where_they_arrive_as_strings():
    # Tables carry id codes from the readers and the generator to the writers.
    # The CSV readers' ids are coded by read_columns as it reads them, the
    # others by id_codes; both run csvio's one id coder.
    assert callers("read_columns") == {
        "mobility.parse_trace_csv", "radio.parse_stations_csv", "engine.read_results_csv",
    }
    assert callers("id_codes") == {"mobility.parse_fcd_xml", "mobility._Recorder.table"}
    assert callers("_IdCoder") == {"csvio.id_codes", "csvio.read_columns"}
    assert users({"sys.intern"}) == {}


def test_the_csv_readers_share_one_header_rule():
    assert callers("read_header") == callers("read_columns")
    assert callers("readline") == {"csvio.read_header"}


def test_one_function_tests_the_canonical_row_order():
    # mobility._trace_table, which makes every trace table, and engine.run,
    # which reads canonical rows in place, share one test of that order.
    assert callers("canonical_order") == {"mobility._trace_table", "engine.run"}


def test_no_module_reads_the_cpu_count():
    # Results, bytes and errors must not depend on how many CPUs the host reports.
    assert users({"os.sched_getaffinity", "os.cpu_count", "os.process_cpu_count"}) == {}
