"""The package imports only the standard library and its declared
dependencies (numpy, and pytest for ``slicepower verify``)."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slicepower"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pytest"}


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_declared_dependencies(path):
    assert _top_level_imports(path) - ALLOWED == set()
