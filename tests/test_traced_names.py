"""The benchmark's traced run wraps car2cloud functions by module attribute.

perfbench/child.py lists them in TRACED as (module, attribute) pairs and
looks each up with getattr when it installs its wrappers, so a renamed or
dropped name breaks the traced run with an AttributeError.  The list is
read with ast, without importing the script, which starts a profiling
timer on import.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def traced_names() -> list[tuple[str, str]]:
    for node in ast.parse(CHILD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {CHILD}")


def test_every_traced_name_resolves():
    names = traced_names()
    assert ("engine", "best_link") in names
    for module_name, attr in names:
        target = importlib.import_module(f"car2cloud.{module_name}")
        if "." in attr:  # a property on a class
            cls_name, prop_name = attr.split(".")
            assert isinstance(getattr(getattr(target, cls_name), prop_name), property), attr
        else:
            assert callable(getattr(target, attr)), f"{module_name}.{attr}"
