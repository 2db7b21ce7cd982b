"""Source hygiene: every name a library module imports is used there, and
every public function, class and method is referenced somewhere in src/."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "painleve_instanton").glob("*.py"))

# Independent oracles the tests check the pipeline against; the pipeline
# itself never calls them.
ORACLES = ("residue_numeric", "residue_table_printed", "line_transverse",
           "duality_residual", "conserved_tr", "params_from_n")


def unused_imports(tree):
    """Names bound by import statements that the module never loads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom math import pi, tau\nprint(pi)\n")
    assert unused_imports(tree) == [(2, "os"), (3, "tau")]


def unreferenced_public_names(trees):
    """Public top-level functions and classes, and public methods of
    top-level classes, whose name no module loads as a name or attribute."""
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {item.name for item in node.body
                            if isinstance(item, ast.FunctionDef)}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name in defined - used if not name.startswith("_"))


def test_no_public_name_without_a_caller():
    found = unreferenced_public_names([ast.parse(p.read_text(), filename=str(p))
                                       for p in SRC])
    extra = [name for name in found if name not in ORACLES]
    assert extra == [], f"public names nothing in src/ references: {extra}"
    stale = [name for name in ORACLES if name not in found]
    assert stale == [], f"ORACLES entries src/ defines and references, or lacks: {stale}"


def test_detects_a_public_name_without_a_caller():
    tree = ast.parse("def used():\n    return Box().size()\n\n\n"
                     "def unused():\n    return used()\n\n\n"
                     "def _private():\n    pass\n\n\n"
                     "class Box:\n    def size(self):\n        return 1\n\n"
                     "    def spare(self):\n        return self._private\n")
    assert unreferenced_public_names([tree]) == ["spare", "unused"]
