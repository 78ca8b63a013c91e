"""The test oracles compute what they check without car2cloud's kernels.

tests/scalar_engine.py and tests/scalar_models.py are the independent code
that engine.run's kernels and the public scalar functions are checked
against bit for bit.  An oracle that borrowed a kernel would repeat its
faults and pass.  Each oracle's source is read with ast, and a kernel
counts as borrowed whether it is imported by name or reached as
module.attribute.  cvim.try_transmit and cvim.TransmitQueue stay allowed:
they are a queue of their own, not the drain kernel.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
KERNELS = {
    "screen_links", "best_link", "link_snrs", "snr", "rr_shares", "rr_allocate",
    "rb_rates", "rb_rate", "drain_queues",
}


def dotted(node: ast.expr) -> str | None:
    """a.b.c for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def car2cloud_refs(source: str) -> set[str]:
    """Every car2cloud name the source imports or reaches as an attribute, in full."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> the car2cloud object it names
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "car2cloud":
                    bound[alias.asname or "car2cloud"] = alias.name if alias.asname else "car2cloud"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "car2cloud":
            for alias in node.names:
                found.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        name = dotted(node) if isinstance(node, ast.Attribute) else None
        if name and name.split(".")[0] in bound:
            head, _, rest = name.partition(".")
            found.add(f"{bound[head]}.{rest}")
    return found


def borrowed_kernels(source: str) -> list[str]:
    return sorted(ref for ref in car2cloud_refs(source) if ref.rsplit(".", 1)[1] in KERNELS)


def test_a_kernel_counts_through_any_import_form():
    source = (
        "import car2cloud.radio\n"
        "import car2cloud.linkrate as lr\n"
        "from car2cloud import scheduler\n"
        "from car2cloud.cvim import drain_queues as drain, try_transmit\n"
        "from scalar_models import snr, best_link\n"
        "car2cloud.radio.link_snrs\n"
        "lr.rb_rates\n"
        "scheduler.rr_allocate\n"
        "link.snr\n"
    )
    assert borrowed_kernels(source) == [
        "car2cloud.cvim.drain_queues",
        "car2cloud.linkrate.rb_rates",
        "car2cloud.radio.link_snrs",
        "car2cloud.scheduler.rr_allocate",
    ]


@pytest.mark.parametrize("oracle", ["scalar_engine.py", "scalar_models.py"])
def test_oracle_borrows_no_kernel(oracle):
    assert borrowed_kernels((TESTS / oracle).read_text(encoding="utf-8")) == []
