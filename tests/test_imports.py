"""Every name a trajgraph module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree.
The package `__init__` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

import trajgraph

MODULES = sorted(p for p in Path(trajgraph.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from a import b as c, d\n\ndef f(x: d):\n    from e import g\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == ["c", "g", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
