"""Lint guard: no module of the package imports a name it never uses."""
import ast
from pathlib import Path

import pytest

import qlegendre

PACKAGE = Path(qlegendre.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names quoted in annotations, such as -> "GaussInt"
    used |= {
        n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
        and n.value.isidentifier()
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_catches_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom .x import a, b as c\nprint(a)\n"
    assert unused_imports(src) == ["c (line 3)", "os (line 2)"]
