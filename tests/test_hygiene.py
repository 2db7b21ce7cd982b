"""Source hygiene: every name a library module imports is used there, every
module-level name is loaded somewhere in src/, and every public function,
class and method is referenced somewhere in src/, except where the
name-based scan cannot tell: those names are listed.  Every third-party
import is declared in pyproject.toml: under src/ as a runtime dependency,
under tests/ and bench/ as one or as an optional extra."""

import ast
import re
import sys
from pathlib import Path

import pytest

from painleve_instanton import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "painleve_instanton").glob("*.py"))

# Independent oracles the tests check the pipeline against; the pipeline
# itself never calls them.
ORACLES = ("residue_numeric", "residue_table_printed", "line_transverse",
           "connection_form", "duality_residual", "eigen2", "asd_rhs", "residues",
           "fd_weights")

# Public names the caller scan cannot see, because a builtin container's
# attribute or a variable bound in src/ has the same spelling.  Each has real
# callers, checked by reading them; a new one must be checked and added.
SHADOWED = ("delta", "values")
BUILTIN_ATTRS = frozenset().union(*(dir(t) for t in (dict, list, str, tuple, object)))


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


def unloaded_module_names(trees):
    """Names a module binds at its top level (assignments, functions and
    classes; dunders aside) that no module loads as a name or attribute."""
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return sorted(name for name in defined - loaded
                  if not (name.startswith("__") and name.endswith("__")))


def test_no_module_name_without_a_load():
    found = unloaded_module_names([ast.parse(p.read_text(), filename=str(p))
                                   for p in SRC])
    extra = [name for name in found if name not in ORACLES]
    assert extra == [], f"module-level names nothing in src/ loads: {extra}"


def test_detects_a_module_name_without_a_load():
    tree = ast.parse("__all__ = ['table']\n_W = (1.0, 2.0)\n_SPARE, _USED = 3, 4\n"
                     "_B: float = 0.5\nLIMIT = 10\nLIMIT += 1\n\n\n"
                     "def table(x):\n    w = _W\n    return w[x] * _USED + LIMIT\n\n\n"
                     "def _helper():\n    pass\n\n\n"
                     "class Box:\n    SIZE = 2\n")
    assert unloaded_module_names([tree]) == ["Box", "_B", "_SPARE", "_helper", "table"]


def public_names(trees):
    """Public top-level functions and classes, and public methods of
    top-level classes."""
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {item.name for item in node.body
                            if isinstance(item, ast.FunctionDef)}
    return {name for name in defined if not name.startswith("_")}


def unreferenced_public_names(trees):
    """Public names no module loads as a name or attribute."""
    defined = public_names(trees)
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def shadowed_public_names(trees):
    """Public names spelled like an attribute of dict/list/str/tuple/object
    or like a variable or argument bound anywhere in the trees: a load of
    either counts as a caller in the scan above."""
    bound = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.add(node.id)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
    return sorted(name for name in public_names(trees)
                  if name in BUILTIN_ATTRS or name in bound)


def test_no_public_name_without_a_caller():
    found = unreferenced_public_names([ast.parse(p.read_text(), filename=str(p))
                                       for p in SRC])
    extra = [name for name in found if name not in ORACLES]
    assert extra == [], f"public names nothing in src/ references: {extra}"
    stale = [name for name in ORACLES if name not in found]
    assert stale == [], f"ORACLES entries src/ defines and references, or lacks: {stale}"


def oracles_paragraph(readme):
    """README's "Independent oracles" paragraph and its list, up to the
    next heading."""
    return readme.split("**Independent oracles.**", 1)[1].split("\n#", 1)[0]


def test_readme_names_every_oracle():
    paragraph = oracles_paragraph((ROOT / "README.md").read_text())
    listed = re.findall(r"^- `\w+\.(\w+)`", paragraph, flags=re.M)
    assert sorted(listed) == sorted(ORACLES)


def readme_flags(readme):
    """The flags README's "Flags:" paragraph names in backquotes, up to the
    blank line that ends it."""
    paragraph = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`(--[\w-]+)", paragraph))


def test_readme_names_every_flag():
    flags = {flag for _, _, options in cli._COMMANDS.values() for flag in options}
    assert readme_flags((ROOT / "README.md").read_text()) == flags


def test_detects_a_flag_readme_names():
    readme = ("Intro `--help`.\n\nFlags: `--n` and\n`--format {csv,json}`; "
              "not `--tol`.\n\nAlso `--opt value`.\n")
    assert readme_flags(readme) == {"--n", "--format", "--tol"}


def test_detects_a_public_name_without_a_caller():
    tree = ast.parse("def used():\n    return Box().size()\n\n\n"
                     "def unused():\n    return used()\n\n\n"
                     "def _private():\n    pass\n\n\n"
                     "class Box:\n    def size(self):\n        return 1\n\n"
                     "    def spare(self):\n        return self._private\n")
    assert unreferenced_public_names([tree]) == ["spare", "unused"]


def test_shadowed_public_names_are_listed():
    found = shadowed_public_names([ast.parse(p.read_text(), filename=str(p))
                                   for p in SRC])
    assert found == sorted(SHADOWED), (
        f"check the callers of {sorted(set(found) - set(SHADOWED))} and list them; "
        f"drop {sorted(set(SHADOWED) - set(found))}")


def test_detects_a_shadowed_public_name():
    tree = ast.parse("def size(count):\n    return count\n\n\n"
                     "def spare():\n    pass\n\n\n"
                     "class Box:\n    def index(self):\n        return 1\n\n"
                     "    def used(self):\n        spare = size(2)\n        return spare\n")
    assert shadowed_public_names([tree]) == ["index", "spare"]


# the modules that fill the output schemas `columns` declares
WRITERS = ("cli", "columns", "report")


def imports_columns(tree):
    """Whether a module of the package imports `columns` or a name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "columns" or (
                    node.module is None and any(a.name == "columns" for a in node.names)):
                return True
    return False


def test_only_the_writers_import_columns():
    extra = [p.stem for p in SRC if p.stem not in WRITERS
             and imports_columns(ast.parse(p.read_text(), filename=str(p)))]
    assert extra == [], f"modules other than {WRITERS} that import columns: {extra}"


def test_detects_an_import_of_columns():
    for source in ("from .columns import Rows\n", "from . import columns\n",
                   "def f():\n    from .columns import csv_blocks\n"):
        assert imports_columns(ast.parse(source))
    assert not imports_columns(ast.parse("from .errors import ShotFailed\nimport columns\n"))


def imported_modules(trees):
    """Top-level names of the modules the trees import absolutely."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def requirement_modules(requirements):
    """Module names of pyproject.toml requirement strings, spelled as
    imports spell them."""
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def declared_modules(pyproject):
    """Module names of the runtime and optional dependencies a parsed
    pyproject.toml declares, spelled as imports spell them."""
    project = pyproject["project"]
    return requirement_modules(
        [*project["dependencies"],
         *(r for extra in project["optional-dependencies"].values() for r in extra)])


def undeclared_imports(trees, declared):
    """Modules the trees import absolutely that are neither in the standard
    library nor among the `declared` names."""
    return sorted(imported_modules(trees) - declared - set(sys.stdlib_module_names))


def read_pyproject():
    """The repository's parsed pyproject.toml (skips without tomllib)."""
    return pytest.importorskip("tomllib").loads((ROOT / "pyproject.toml").read_text())


def test_test_and_bench_imports_are_declared():
    local = {p.stem for d in (ROOT, ROOT / "src", ROOT / "tests", ROOT / "bench")
             for p in d.iterdir() if p.suffix == ".py" or p.is_dir()}
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    undeclared = undeclared_imports([ast.parse(p.read_text(), filename=str(p)) for p in files],
                                    declared_modules(read_pyproject()) | local)
    assert undeclared == [], f"imported under tests/ or bench/, undeclared: {undeclared}"


def test_src_imports_are_runtime_dependencies():
    # an optional extra is not installed with the package, so it does not count
    runtime = requirement_modules(read_pyproject()["project"]["dependencies"])
    undeclared = undeclared_imports([ast.parse(p.read_text(), filename=str(p)) for p in SRC],
                                    runtime)
    assert undeclared == [], f"imported under src/, not a runtime dependency: {undeclared}"


def test_detects_an_undeclared_import():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom mpmath import mp\n"
                     "from . import helper\n\n\ndef f():\n    import sympy\n")
    assert imported_modules([tree]) == {"os", "numpy", "mpmath", "sympy"}
    pyproject = {"project": {"dependencies": ["numpy>=1.24"],
                             "optional-dependencies": {"bench": ["pytest-benchmark"]}}}
    assert declared_modules(pyproject) == {"numpy", "pytest_benchmark"}


def test_detects_a_src_import_only_an_extra_declares():
    tree = ast.parse("import json\nimport numpy as np\nimport orjson\n"
                     "from sympy import Symbol\nfrom .columns import Rows\n")
    project = {"dependencies": ["numpy>=1.24"],
               "optional-dependencies": {"test": ["sympy", "pytest"]}}
    assert undeclared_imports([tree], requirement_modules(project["dependencies"])) == [
        "orjson", "sympy"]
    assert undeclared_imports([tree], declared_modules({"project": project})) == ["orjson"]
