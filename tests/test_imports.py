"""Every imported name is used, every private helper is read, and every name heckekit exports resolves.

The first two are the unused-name checks the repository runs instead of a
linter.

A name counts as used if it is read anywhere in its module (a Name node) or
listed in the module's __all__.  tests/test_acceptance.py is frozen and keeps
two unused names (v, check_composition), so it is exempt.  A top-level
private name (_name, not a dunder) defined in src/heckekit counts as read if
some module of the package loads it as a name or an attribute, so a deletion
cannot leave an orphaned helper behind.  A top-level public name must be read
the same way or be exported in heckekit.__all__, so code that only tests
call cannot enter src/heckekit; the names already there are listed, each
with its reason, in TEST_ONLY_PUBLIC.
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


def unread_names(files: list[Path], public: bool, exported=()) -> dict[str, str]:
    """Each private (or public) top-level name of files that no file loads as a name or attribute, with its place.

    A public name listed in exported counts as read.
    """
    trees = {path: ast.parse(path.read_text()) for path in files}
    read = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {
        name: f"{path.name}:{line}"
        for path, tree in trees.items()
        for name, line in top_level_names(tree).items()
        if (not name.startswith("_") if public else name.startswith("_") and not name.startswith("__"))
        and name not in read
    }


def dead_private_names(files: list[Path]) -> list[str]:
    return [f"{place}: {name}" for name, place in unread_names(files, public=False).items()]


def test_no_dead_private_names():
    files = sorted((ROOT / "src" / "heckekit").glob("*.py"))
    assert files
    assert dead_private_names(files) == []


def test_every_exported_name_resolves():
    import heckekit

    assert [name for name in heckekit.__all__ if not hasattr(heckekit, name)] == []


# Public names of src/heckekit that only tests read (ROADMAP item 15's inventory), each with its reason.
TEST_ONLY_PUBLIC = {
    "is_scalar_matrix": "imported by the frozen acceptance suite and the workloads",
    "check_met_demazure_match": "imported by the frozen acceptance suite (criterion 8)",
    "check_met_demazure_relations": "imported by the frozen acceptance suite and the workloads (criterion 8)",
    "demazure_polynomial": "imported by the frozen acceptance suite",
    "idempotent_element": "a row of the benchmark tracer",
    "check_representative_independence": "a theorem check that only tests run",
    "check_content_preservation": "a theorem check that only tests run",
}


def test_every_public_name_is_read_or_exported():
    import heckekit

    unread = unread_names(sorted((ROOT / "src" / "heckekit").glob("*.py")), public=True, exported=heckekit.__all__)
    assert {name: place for name, place in unread.items() if name not in TEST_ONLY_PUBLIC} == {}
    assert sorted(TEST_ONLY_PUBLIC.keys() - unread.keys()) == []  # a listed name that gained a reader leaves the list


def test_a_public_name_read_only_by_tests_is_caught(tmp_path):
    package, tests = tmp_path / "package", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "core.py").write_text("def used():\n    return 1\n\n\ndef only_tested():\n    return used()\n")
    (package / "cli.py").write_text("from .core import used\n\nprint(used())\n")
    (tests / "test_core.py").write_text("from package.core import only_tested\n\nonly_tested()\n")
    assert unread_names(sorted(package.glob("*.py")), public=True) == {"only_tested": "core.py:5"}
    assert unread_names(sorted(package.glob("*.py")), public=True, exported=["only_tested"]) == {}
