"""Every name a trajgraph module or test file imports is used in that
file; every top-level def, class or assignment is named somewhere besides
its own definition: in the package, the tests or the benchmark; every
parameter of a package function is read in its body; every defaulted
parameter is set by some call in the package or the benchmark; no function
signature restates a config default as a literal; and importing the
command line leaves out `scipy.stats`, which only the edge audit needs.

No linter ships with the project, so this walks each module's syntax tree.
The package `__init__` is exempt from the import rule: its imports are
re-exports.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

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
CALLERS = [p for root in (PACKAGE, PACKAGE.parents[1] / "perfbench")
           for p in sorted(root.rglob("*.py")) if "tests" not in p.relative_to(root).parts]


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


def unread_parameters(source: str) -> list[str]:
    """`function(parameter)` for each parameter of a def or lambda in
    `source` that its body never reads. A method's `self` and a
    placeholder named `_` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}({p})" for p in params if p not in read | {"self", "_"}]
    return sorted(found)


def test_checker_finds_unread_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    def inner(d):\n        return a + c\n    return inner\n\n"
              "class C:\n    def m(self, x):\n        return [y for y in x]\n\n"
              "g = lambda _, e: 0\n")
    assert unread_parameters(source) == ["<lambda>(e)", "f(args)", "f(b)", "f(kw)",
                                         "inner(d)"]


# a parameter whose function must keep it, though its body does not read it
UNREAD_ALLOWED = {
    # the signature of a backward closure: a node's tape slot holds it in
    # place of the closure a finished backward has freed
    "autodiff._consumed(g)",
    # passed by `perfbench/workload.py` and read by `perfbench/tracing.py`
    # until the benchmark's next version drops it
    "evaluation.sampled_metrics(threads)",
}


def test_every_parameter_is_read():
    found = {f"{path.stem}.{hit}" for path in MODULES
             for hit in unread_parameters(path.read_text())}
    assert found == UNREAD_ALLOWED


class _Def(NamedTuple):
    called: str               # the name a call uses
    qualified: str            # `module.qualified name`, as reported
    positional: list[str]     # the parameters a call fills by position
    keyword_only: list[str]
    defaulted: list[str]
    node: ast.FunctionDef


def _defs(module: str, tree: ast.Module) -> list[_Def]:
    """Each def in `tree`. A class's `__init__` is called by the class
    name; other dunder methods are skipped; a method's `self` is not filled
    by position."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, prefix, in_class)
                continue
            a = child.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in child.decorator_list)
            if in_class and not static:
                positional = positional[1:]
            keyword_only = [p.arg for p in a.kwonlyargs]
            if child.name == "__init__" and in_class:
                found.append(_Def(prefix[:-1].rsplit(".", 1)[-1], f"{module}.{prefix[:-1]}",
                                  positional, keyword_only, defaulted, child))
            elif not (child.name.startswith("__") and child.name.endswith("__")):
                found.append(_Def(child.name, f"{module}.{prefix}{child.name}",
                                  positional, keyword_only, defaulted, child))
            visit(child, f"{prefix}{child.name}.", False)

    visit(tree, "", False)
    return found


def _calls(tree: ast.AST, enclosing=None):
    """(called name, call, innermost enclosing def or None) of each call to
    a name or an attribute in `tree`."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
            if name:
                yield name, child, enclosing
        yield from _calls(child, child if isinstance(child, ast.FunctionDef) else enclosing)


def _passed(call: ast.Call, d: _Def):
    """(parameter, value) for each parameter of `d` that `call` passes; the
    value is None when the call unpacks `*` or `**` into it."""
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            yield from ((p, None) for p in d.positional[i:])
            break
        if i < len(d.positional):
            yield d.positional[i], arg
    for kw in call.keywords:
        if kw.arg is None:
            yield from ((p, None) for p in d.positional + d.keyword_only)
        else:
            yield kw.arg, kw.value


def unset_defaults(modules: list[str], callers: dict[str, str],
                   allowed: frozenset = frozenset()) -> list[str]:
    """`module.function(parameter)` for each defaulted parameter of a def in
    the `modules` among `callers` that no call in `callers` sets.

    Calls match defs by name. A call sets each parameter it passes by
    position or keyword, and every parameter when it unpacks `*` or `**`.
    Passing on the calling function's own defaulted parameter sets the
    parameter only if that one is set, or is in `allowed`; a parameter in
    `allowed` is still reported when no call sets it."""
    trees = {key: ast.parse(source) for key, source in callers.items()}
    defs = [d for key in modules for d in _defs(Path(key).stem, trees[key])]
    by_name: dict[str, list[_Def]] = {}
    for d in defs:
        by_name.setdefault(d.called, []).append(d)
    by_node = {id(d.node): d for d in defs}
    evidence = []    # (parameter set, the parameter it is passed on from, or None)
    for tree in trees.values():
        for name, call, enclosing in _calls(tree):
            outer = by_node.get(id(enclosing))
            for d in by_name.get(name, ()):
                for p, value in _passed(call, d):
                    if p not in d.defaulted:
                        continue
                    passed_on = (outer is not None and isinstance(value, ast.Name)
                                 and value.id in outer.defaulted)
                    evidence.append((f"{d.qualified}({p})",
                                     f"{outer.qualified}({value.id})" if passed_on else None))
    is_set: set[str] = set()
    while new := {e for e, source in evidence
                  if source is None or source in is_set | allowed} - is_set:
        is_set |= new
    return sorted(f"{d.qualified}({p})" for d in defs for p in d.defaulted
                  if f"{d.qualified}({p})" not in is_set)


def test_checker_finds_unset_defaults():
    callers = {"m": ("def f(a, b=1, *, c=2):\n    return g(a, c)\n\n"
                     "def g(x, y=0):\n    return x + y\n\n"
                     "def h(u, v=0):\n    return u + v\n\n"
                     "class K:\n"
                     "    def __init__(self, p, q=1):\n        self.p = p + q\n\n"
                     "    def __repr__(self, r=1):\n        return str(r)\n\n"
                     "    def m(self, s=1, t=2):\n        return s + t\n"),
               "t": "f(0, 5)\nK(0, q=3).m(2)\nh(*args)\n"}
    # f(c) is passed on to g(y) and set nowhere else
    assert unset_defaults(["m"], callers) == ["m.K.m(t)", "m.f(c)", "m.g(y)"]
    assert unset_defaults(["m"], callers, frozenset({"m.f(c)"})) == ["m.K.m(t)", "m.f(c)"]


# a defaulted parameter that no call in the package or the benchmark sets,
# and that stays
UNSET_ALLOWED = frozenset({
    # the console script calls main() with no argument
    "cli.main(argv)",
    # the graph selection and sampling choices that an `[eval] graph_mode`
    # setting is to wire up
    "evaluation.select_graph(previous)",
    "evaluation.select_graph(theta_low)",
    "evaluation.select_graph(theta_high)",
    "evaluation.select_graph(heuristic)",
    "evaluation.sampled_metrics(sample_mode)",
})


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A value that no caller sets is a constant, not an option; tests do
    not count as callers."""
    callers = {str(p): p.read_text() for p in CALLERS}
    found = unset_defaults([str(p) for p in MODULES], callers, UNSET_ALLOWED)
    assert set(found) == UNSET_ALLOWED


def test_importing_the_cli_leaves_out_scipy_stats():
    """Every command pays for what `trajgraph.cli` imports at start-up, so
    `evaluation.graph_quality` imports `scipy.stats` itself."""
    code = "import sys, trajgraph.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
