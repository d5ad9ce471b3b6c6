"""The package imports only the standard library and the runtime
dependencies ``pyproject.toml`` declares, every module reads what it
imports, and ``outage`` stands on the seed streams alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slicepower"
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
# each requirement's distribution name: "numpy" from "numpy>=1.24"
DECLARED = {re.match(r"[\w.-]+", req)[0] for req in PYPROJECT["project"]["dependencies"]}
ALLOWED = set(sys.stdlib_module_names) | DECLARED
MODULES = sorted(SRC.glob("*.py"))


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _sibling_imports(path: Path) -> set:
    """Modules of the package that ``path`` imports relatively."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return names


def _unread_imports(tree: ast.Module) -> set:
    """Names bound by the module-level imports of ``tree`` that the module
    neither reads nor lists in ``__all__``."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return bound - read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_declared_dependencies(path):
    assert _top_level_imports(path) - ALLOWED == set()


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    # __init__.py is exempt: it imports only to re-export
    assert _unread_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_an_unread_import_is_found():
    tree = ast.parse("import math\nimport os.path\nfrom . import a as b, c\n"
                     "__all__ = ['c']\nos.sep\n")
    assert _unread_imports(tree) == {"math", "b"}


def test_outage_imports_only_rng():
    # the cancellation verdict is alloc's, the interference-limited rate waterfill's
    assert _sibling_imports(SRC / "outage.py") == {"rng"}


def test_sibling_imports_are_found():
    path = SRC / "alloc.py"
    assert {"rng", "grid", "outage", "table", "waterfill"} <= _sibling_imports(path)
