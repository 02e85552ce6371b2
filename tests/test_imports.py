"""Every imported name is used, and every name heckekit exports resolves.

The first is the unused-import check the repository runs instead of a linter.

A name counts as used if it is read anywhere in its module (a Name node) or
listed in the module's __all__.  tests/test_acceptance.py is frozen and keeps
two unused names (v, check_composition), so it is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FROZEN = {"test_acceptance.py"}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {ast.literal_eval(item) for item in node.value.elts}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = [*(ROOT / "src" / "heckekit").glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    assert files
    assert [hit for path in sorted(files) if path.name not in FROZEN for hit in unused_imports(path)] == []


def test_every_exported_name_resolves():
    import heckekit

    assert [name for name in heckekit.__all__ if not hasattr(heckekit, name)] == []
