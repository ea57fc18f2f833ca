"""Every top-level import of a frobkit module is used or re-exported.

No linter runs on this repository, so this walks the sources with ``ast``:
a name bound by a module-level ``import`` or ``from ... import`` must be
read somewhere in the module or listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "frobkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # `a.b` reads the name `a`, so attribute access is covered above
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name not in exported)


def test_detects_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\nfrom typing import Sequence, Mapping\n"
           "__all__ = ['Mapping']\n"
           "def f(x: Sequence):\n    return x\n")
    # annotations are names too, so Sequence is used; os is not
    assert unused_imports(src) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
