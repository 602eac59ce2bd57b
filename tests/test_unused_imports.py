"""No module in src/ imports a name it never uses.

A name counts as used when the module reads it anywhere (also as the base of
an attribute or inside a string annotation) or lists it in `__all__`.  The only
exemption is an import line marked ``# noqa: F401``, for a name another
package looks up on the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree: ast.Module, lines: list[str]):
    """(bound name, line) of every import outside `from __future__`, except
    those on a line marked noqa: F401."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # an alias node carries its own line in a parenthesised import
                line = getattr(alias, "lineno", node.lineno)
                if "noqa: F401" in lines[line - 1]:
                    continue
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
