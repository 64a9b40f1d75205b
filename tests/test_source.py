"""Checks on the package source itself."""

import ast
import re
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


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter of a function or lambda that its
    body never reads; names that start with _ are exempt, and so is a method's receiver
    (self, cls), which the interface fixes (EmpiricalMeasure.total_mass is the constant 1)."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params
                   if not p.arg.startswith("_") and p.arg not in read | {"self", "cls"}]
    return sorted(unread)


def test_functions_read_every_parameter():
    unread = [f"{p.name}:{line} {name}({param})" for p in sorted(SRC.glob("*.py"))
              for line, name, param in _unread_parameters(ast.parse(p.read_text()))]
    assert unread == []


def test_unread_parameter_check_sees_an_unread_name():
    tree = ast.parse("def f(a, b, _c, *args, k=1, **kw):\n    b = a\n    return kw\n"
                     "g = lambda x, y: y\nclass C:\n    def one(self):\n        return 1\n")
    assert _unread_parameters(tree) == [(1, "f", "args"), (1, "f", "b"), (1, "f", "k"),
                                      (4, "<lambda>", "x")]


def _exports(tree):
    """The names a package __init__ binds at top level: its imports and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def _unnamed(names, texts):
    """The names that no text holds as a whole word."""
    return [n for n in names if not any(re.search(rf"\b{re.escape(n)}\b", t) for t in texts)]


def test_every_export_is_named_outside_the_package():
    # a public name stays only if the README, a test, the benchmark or CI names it
    root = SRC.parents[1]
    readers = [root / "README.md", *(p for p in (root / "tests").glob("*.py")
                                     if p.name != Path(__file__).name),
               *(p for p in (root / "perfbench").iterdir() if p.suffix in (".py", ".md", ".json")),
               *(root / ".github" / "workflows").glob("*.yml")]
    exports = _exports(ast.parse((SRC / "__init__.py").read_text()))
    assert len(exports) >= 40
    assert _unnamed(exports, [p.read_text() for p in readers]) == []


def test_export_check_sees_an_unnamed_name():
    tree = ast.parse("from .a import (b, c)\nfrom . import d\nx = 1\nimport os\n")
    assert _exports(tree) == ["b", "c", "d", "x"]
    assert _unnamed(_exports(tree), ["b and d", "xc, c2"]) == ["c", "x"]
