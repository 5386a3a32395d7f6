"""Every module-level import in the library is used somewhere in its
module (no linter is assumed to be installed)."""

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
