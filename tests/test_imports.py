"""Every name a trajgraph module or test file imports is used in that
file; every top-level def, class or assignment is named somewhere besides
its own definition: in the package, the tests or the benchmark; and no
function signature restates a config default as a literal.

No linter ships with the project, so this walks each module's syntax tree.
The package `__init__` is exempt from the import rule: its imports are
re-exports.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import trajgraph
from trajgraph.config import DEFAULTS
from trajgraph.data import SyntheticConfig
from trajgraph.model import ModelConfig
from trajgraph.training import TrainConfig

PACKAGE = Path(trajgraph.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((PACKAGE.parents[1] / "tests").glob("*.py"))
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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
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


def restated_defaults(source: str, defaults: dict[str, list]) -> list[str]:
    """`function(parameter)` for each parameter named in `defaults` whose
    literal default equals one of that name's config defaults."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
        pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for arg, default in pairs:
            try:
                value = ast.literal_eval(default)
            except ValueError:
                continue
            # 1 == True in Python; a flag and a count are different values
            if any(value == d and isinstance(value, bool) == isinstance(d, bool)
                   for d in defaults.get(arg.arg, ())):
                found.append(f"{node.name}({arg.arg})")
    return sorted(found)


def test_checker_finds_restated_defaults():
    source = ("def f(seed=0, tau=5, hidden_dim=64, *, penalty='entropy', flag=True):\n"
              "    pass\n\n"
              "class C:\n"
              "    def m(self, seed=None, samples=20, rate=_D['rate']):\n"
              "        pass\n")
    defaults = {"seed": [0], "tau": [5], "hidden_dim": [128], "penalty": ["entropy"],
                "samples": [20], "flag": [1], "rate": [0.5]}
    assert restated_defaults(source, defaults) == ["f(penalty)", "f(seed)", "f(tau)",
                                                   "m(samples)"]


def test_no_literal_default_restates_a_config_default():
    """A setting's value lives in its config dataclass or `DEFAULTS`; a
    signature that repeats it would drift from it silently."""
    defaults: dict[str, list] = {}
    for cls in (SyntheticConfig, ModelConfig, TrainConfig):
        for f in fields(cls):
            defaults.setdefault(f.name, []).append(f.default)
    for key, value in DEFAULTS["eval"].items():
        defaults.setdefault(key, []).append(value)
    found = [f"{path.stem}.{hit}" for path in MODULES
             for hit in restated_defaults(path.read_text(), defaults)]
    assert found == []
