"""The benchmark's tracer and workloads still find every heckekit name they use.

heckebench/tracer.py patches the entries in its ENTRIES table after
`import heckekit`, reading methods as `cls.__dict__[attr]`, and
heckebench/workloads.py imports names from heckekit.  Both files are read
as source here, never imported or changed, so a refactor that would crash
`heckebench/run.py --trace 1` fails the test suite instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "heckebench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


def traced_entries() -> list[tuple[str, str, str | None, tuple[str, ...]]]:
    """(metric prefix, module, class or None, attribute names) of every ENTRIES row."""
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ENTRIES" for t in node.targets):
            return [tuple(ast.literal_eval(field) for field in row.elts[:4]) for row in node.value.elts]
    raise AssertionError("heckebench/tracer.py defines no ENTRIES")


def workload_imports() -> list[tuple[str, str]]:
    """(module, name) of every `from heckekit... import name` in workloads.py."""
    return [
        (node.module, alias.name)
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "heckekit"
        for alias in node.names
    ]


def test_contract_is_not_empty():
    assert len(traced_entries()) > 30 and len(workload_imports()) > 10


@pytest.mark.parametrize("prefix, module, cls, attrs", traced_entries(), ids=[row[0] for row in traced_entries()])
def test_traced_entry_exists(prefix, module, cls, attrs):
    home = importlib.import_module(f"heckekit.{module}")
    if cls is None:
        assert callable(getattr(home, attrs[0], None)), f"{prefix}: heckekit.{module}.{attrs[0]} is gone"
        return
    owner = getattr(home, cls)
    for attr in attrs:
        assert attr in owner.__dict__, f"{prefix}: {cls}.{attr} is not defined on {cls} itself"


@pytest.mark.parametrize("module, name", workload_imports(), ids=[f"{m}.{n}" for m, n in workload_imports()])
def test_workload_import_exists(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"
