"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import arrcover

PACKAGE_DIR = Path(arrcover.__file__).parent


def imported_roots(tree):
    """Top-level module names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 1
    allowed = set(sys.stdlib_module_names) | {"arrcover"}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        outside = sorted(set(imported_roots(tree)) - allowed)
        assert not outside, f"{path.name} imports {outside}"
