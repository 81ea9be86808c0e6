"""Every name a trajgraph module imports is used in that module, and every
top-level def, class or assignment is named somewhere besides its own
definition: in the package, the tests or the benchmark.

No linter ships with the project, so this walks each module's syntax tree.
The package `__init__` is exempt from the import rule: its imports are
re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import trajgraph

PACKAGE = Path(trajgraph.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = [p for root in (PACKAGE, PACKAGE.parents[1] / "tests",
                          PACKAGE.parents[1] / "perfbench")
           for p in sorted(root.rglob("*.py"))]


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


def _top_level_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _mentions(tree: ast.AST):
    """Names, attributes, imported names and string constants in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def orphaned_definitions(modules: list[str], readers: dict[str, str]) -> list[str]:
    """`module.name` of each top-level definition of the `modules` among
    `readers` that no reader mentions outside that definition."""
    trees = {key: ast.parse(source) for key, source in readers.items()}
    everywhere = Counter(name for tree in trees.values() for name in _mentions(tree))
    orphans = []
    for key in modules:
        for name, node in _top_level_definitions(trees[key]):
            inside = Counter(_mentions(node))[name]
            if not name.startswith("__") and everywhere[name] == inside:
                orphans.append(f"{key}.{name}")
    return sorted(orphans)


def test_checker_finds_orphaned_definitions():
    readers = {"m": ("import os\nLIMIT = 3\nUNUSED: int = 4\n\n"
                     "def used():\n    return LIMIT\n\n"
                     "def recursive(n):\n    return recursive(n - 1)\n\n"
                     "class Patched:\n    pass\n"),
               "t": "from m import used\nsetattr(m, 'Patched', None)\n"}
    assert orphaned_definitions(["m"], readers) == ["m.UNUSED", "m.recursive"]


def test_every_top_level_definition_is_named_elsewhere():
    readers = {str(p): p.read_text() for p in READERS}
    assert orphaned_definitions([str(p) for p in PACKAGE.glob("*.py")], readers) == []
