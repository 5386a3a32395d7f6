"""Every module-level import in the library is used somewhere in its
module, every module-level private function or class is referenced
somewhere in the package, and no module imports ``dataclasses`` (no
linter is assumed to be installed)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "galmod"


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def test_unused_imports_flagged():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "from . import intlinalg as la\nprint(gcd, la)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: lcm"]


def test_no_unused_module_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text()))
        if unused:
            found[path.name] = unused
    assert not found, found


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced_private(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_private`` functions and classes that no line of any
    of ``trees`` refers to."""
    used = set().union(*(_referenced_names(t) for t in trees.values()))
    return [f"{name}: line {node.lineno}: {node.name}"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]


def test_unreferenced_private_flagged():
    trees = {"a.py": ast.parse("def _used():\n    pass\n"
                               "def _dead():\n    pass\n"
                               "class _Dead:\n    pass\n"),
             "b.py": ast.parse("from .a import _used\n")}
    assert _unreferenced_private(trees) == ["a.py: line 3: _dead",
                                            "a.py: line 5: _Dead"]


def test_no_unreferenced_private_helpers():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert not _unreferenced_private(trees)


def _dataclass_imports(tree: ast.Module) -> list[str]:
    """Every import of ``dataclasses``, at any depth: the library builds
    its types without generating methods at import time."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_dataclass_imports_flagged():
    tree = ast.parse("import os, dataclasses\n"
                     "from dataclasses import dataclass\n"
                     "from . import records\n"
                     "def f():\n    import dataclasses as dc\n")
    assert _dataclass_imports(tree) == ["line 1", "line 2", "line 5"]


def test_no_dataclass_imports():
    found = {path.name: _dataclass_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), found
