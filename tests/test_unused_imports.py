"""No module in src/ imports a name it never uses, and src/ defines no
private name that it never uses.

A name counts as used when the module reads it anywhere (also as the base of
an attribute or inside a string annotation) or lists it in `__all__`.  The only
exemption is an import line marked ``# noqa: F401``, for a name another
package looks up on the module; the only such package is the benchmark's
tracer, so every exempt name must be one that `perfbench/tracing.py`'s
`WRAPPED` looks up on that module.

A private (``_``-prefixed, not dunder) module-level function, class or
variable, or a private method, counts as used when some module of src/
reads it: as a name, or as the attribute of an attribute access.  A
deletion must take the helpers that only it used along with it.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))

sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402


def _imported(tree: ast.Module, lines: list[str], exempt: bool = False):
    """(bound name, line) of every import outside `from __future__` on a line
    not marked noqa: F401, or with `exempt` of every import on such a line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # an alias node carries its own line in a parenthesised import
                line = getattr(alias, "lineno", node.lineno)
                if ("noqa: F401" in lines[line - 1]) == exempt:
                    yield (alias.asname or alias.name).split(".")[0], line


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a string annotation is a plain string in the tree
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree, source.splitlines())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_exempt_imports_are_names_the_tracer_wraps():
    wrapped = {(owner.__name__, attr) for owner, attr, _, _ in tracing.WRAPPED}
    for path in MODULES:
        source = path.read_text()
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for name, line in _imported(ast.parse(source), source.splitlines(), exempt=True):
            assert (module, name) in wrapped, f"{module}:{line} imports {name} under noqa"


def test_guard_flags_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Sequence\n"
        "from .numkit import (\n"
        "    flatten,\n"
        "    unflatten,  # noqa: F401  looked up by another package\n"
        "    pinv,\n"
        ")\n"
        "__all__ = ['pinv']\n"
        "def f(x: Sequence[int]) -> 'np.ndarray':\n"
        "    return flatten(x)\n"
    )
    assert unused_imports(source) == [("os", 2)]
    assert list(_imported(ast.parse(source), source.splitlines(), exempt=True)) == [
        ("unflatten", 7)]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module):
    """(name, line) of every private module-level function, class or
    assigned name, and of every private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _private(item.name)):
                        yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and _private(sub.id):
                        yield sub.id, node.lineno


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
               and isinstance(n.ctx, ast.Load)})


def unused_private_definitions(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return [(path, name, line) for path, tree in trees.items()
            for name, line in private_definitions(tree) if name not in read]


def test_src_has_no_unused_private_definitions():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unused_private_definitions(sources) == []


def test_guard_flags_unused_private_definitions():
    sources = {
        "a.py": (
            "import functools\n"
            "_LIMIT = 3\n"
            "_orphan_table = {}\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "@functools.cache\n"
            "def _positions(k):\n"
            "    return k\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._cache = None\n"
            "    def _used(self):\n"
            "        return _helper(1)\n"
            "    def _unused(self):\n"
            "        return 0\n"
            "    def run(self):\n"
            "        return self._used()\n"
        ),
        "b.py": "from a import _positions\n",
    }
    # an import binds a name without reading it, and an assignment to an
    # attribute is not a read
    assert unused_private_definitions(sources) == [
        ("a.py", "_orphan_table", 3), ("a.py", "_positions", 7), ("a.py", "_unused", 14)]
