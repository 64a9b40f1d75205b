"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratbound"


def _unused_imports(tree):
    """The names a module imports and never reads, with their import lines."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = [f"{p.name}:{line} {name}" for p in modules
              for line, name in _unused_imports(ast.parse(p.read_text()))]
    assert unused == []


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nimport numpy as np\nfrom .x import (a, b)\nnp.sum(a)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "b")]
