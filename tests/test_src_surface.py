"""Every definition and import in the package is reached from the package.

A function, method or class that no module of the package names is code
only tests run; it belongs in a test helper or nowhere.  The exported names
of ``arrcover._HOMES`` are the API and count as used.
"""

import ast
from pathlib import Path

import arrcover

PACKAGE_DIR = Path(arrcover.__file__).parent
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def used_names(tree):
    """Every identifier a module reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_exported_or_used():
    assert len(TREES) > 1
    used = set(arrcover._HOMES)
    for tree in TREES.values():
        used.update(used_names(tree))
    unused = sorted(
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )
    assert not unused, f"defined but never used in src: {unused}"


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        used = set(used_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, f"imported but never used: {unused}"
