"""The CSV codec's worker process lives behind one module, car2cloud.csvio.

Forking, pipes and pickling are the codec's decisions: its worker protocol.
Each module's source is read with ast, so that a use is found wherever it
sits, also in a function no test calls.
"""

import ast
from pathlib import Path

import car2cloud

PACKAGE = Path(car2cloud.__file__).resolve().parent
WORKER_NAMES = {"os.fork", "os.pipe", "pickle"}


def worker_names(path: Path) -> set[str]:
    """Which of WORKER_NAMES the module at path imports or refers to."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
            found.add(node.module or "")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
    return found & WORKER_NAMES


def test_only_csvio_forks_pipes_or_pickles():
    users = {
        path.name: sorted(worker_names(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if worker_names(path)
    }
    assert users == {"csvio.py": sorted(WORKER_NAMES)}
