"""The CSV codec's worker process and number text live behind one module, car2cloud.csvio.

Forking, pipes and pickling are the codec's decisions: its worker protocol.
So is orjson, which writes the codec's number text and, where a byte gate
shows that it reads the text as int and float do, reads it back.  Each
module's source is read with ast, so that a use is found wherever it sits,
also in a function no test calls.
"""

import ast
from pathlib import Path

import car2cloud

PACKAGE = Path(car2cloud.__file__).resolve().parent
WORKER_NAMES = {"os.fork", "os.pipe", "pickle"}


def names_used(path: Path) -> set[str]:
    """The modules the module at path imports, and the module.attribute names it refers to."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
            found.add(node.module or "")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def users(names: set[str]) -> dict[str, list[str]]:
    """Each package module that uses any of names, with the ones it uses."""
    found = {path.name: sorted(names_used(path) & names) for path in sorted(PACKAGE.glob("*.py"))}
    return {module: used for module, used in found.items() if used}


def test_only_csvio_forks_pipes_or_pickles():
    assert users(WORKER_NAMES) == {"csvio.py": sorted(WORKER_NAMES)}


def test_only_csvio_imports_orjson():
    assert users({"orjson"}) == {"csvio.py": ["orjson"]}
