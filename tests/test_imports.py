"""Every imported name is used, every private helper is read, and every name heckekit exports resolves.

The first two are the unused-name checks the repository runs instead of a
linter.

A name counts as used if it is read anywhere in its module (a Name node) or
listed in the module's __all__.  tests/test_acceptance.py is frozen and keeps
two unused names (v, check_composition), so it is exempt.  A top-level
private name (_name, not a dunder) defined in src/heckekit counts as read if
some module of the package loads it as a name or an attribute, so a deletion
cannot leave an orphaned helper behind.
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


def top_level_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds at top level (def, class, assignment), with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node.lineno
    return names


def dead_private_names(files: list[Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in files}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in top_level_names(tree).items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_no_dead_private_names():
    files = sorted((ROOT / "src" / "heckekit").glob("*.py"))
    assert files
    assert dead_private_names(files) == []


def test_every_exported_name_resolves():
    import heckekit

    assert [name for name in heckekit.__all__ if not hasattr(heckekit, name)] == []
