"""Every top-level import of a frobkit module is used or re-exported, every
private helper is used, and violation records are built in one place.

No linter runs on this repository, so this walks the sources with ``ast``:
a name bound by a module-level ``import`` or ``from ... import`` must be
read somewhere in the module or listed in its ``__all__``; every name in
``__all__`` must be bound at the module's top level; the name of a
module-level private function or class, or of a private method, must be
read somewhere in the package; a dict with a ``"residual"`` key may
appear only in ``structures.violation``; no float enters the package
through a literal or the name ``float`` (exact rationals only); no
``at_origin()`` call is subscripted or iterated in a comprehension on the
spot (it builds the whole constant matrix); and the modules meet only at
their top-level imports of public names (no private name is imported and
no frobkit module is imported inside a function).
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


def undefined_exports(source: str) -> list:
    """Names in a module's ``__all__`` that no top-level ``def``, ``class``,
    assignment or import of the module binds."""
    tree = ast.parse(source)
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = {n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            bound |= names
    return sorted(name for name in exported if name not in bound)


def test_detects_an_undefined_export():
    src = ("from fractions import Fraction as Q\n"
           "__all__ = ['Q', 'f', 'Box', 'ONE', 'LIMIT', 'Ring', 'Fraction']\n"
           "def f():\n    Ring = 1\n    return Ring\n"
           "class Box:\n    pass\n"
           "ONE, LIMIT = 1, 2\n")
    # a name bound only inside a function, or imported under another
    # name, is not exported
    assert undefined_exports(src) == ["Fraction", "Ring"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def orphaned_private_helpers(sources: dict) -> list:
    """(module, line, name) of every module-level private function or class
    and every private method in ``sources`` ({module: source}) whose name is
    read nowhere in them: not as a name, an attribute or an imported name."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)) and _private(d.name)):
                    defined.append((module, d.lineno, d.name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return sorted(d for d in defined if d[2] not in read)


def test_detects_an_orphaned_private_helper():
    a = ("def _used():\n    return 1\n"
         "def _orphan():\n    return _used()\n"
         "class _Box:\n    def __init__(self):\n        self._fill()\n"
         "    def _fill(self):\n        pass\n"
         "    def _spare(self):\n        pass\n")
    b = "from a import _Box\n"
    # dunders are not private, and a name read in another module counts
    assert orphaned_private_helpers({"a": a, "b": b}) == [
        ("a", 3, "_orphan"), ("a", 10, "_spare")]
    assert orphaned_private_helpers({"a": a}) == [
        ("a", 3, "_orphan"), ("a", 5, "_Box"), ("a", 10, "_spare")]


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert orphaned_private_helpers(sources) == []


def residual_dicts(source: str, allowed: str = "") -> list:
    """Lines that build a dict with a "residual" key, as a display or as
    ``dict(residual=...)``, outside the function named ``allowed``."""
    tree = ast.parse(source)
    inside = {id(n) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == allowed
              for n in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "dict"):
            keys = [kw.arg for kw in node.keywords]
        else:
            continue
        if "residual" in keys and id(node) not in inside:
            lines.append(node.lineno)
    return sorted(lines)


def test_detects_a_residual_dict():
    src = ("def violation(out, r):\n    out.append({'residual': r})\n"
           "def bad(out, r):\n    out.append({'check': 1, 'residual': r})\n"
           "    return dict(residual=r)\n")
    assert residual_dicts(src, "violation") == [4, 5]
    assert residual_dicts(src) == [2, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_residual_records_built_only_by_violation(path):
    allowed = "violation" if path.name == "structures.py" else ""
    assert residual_dicts(path.read_text(), allowed) == []


def test_violation_builds_the_record():
    assert len(residual_dicts((SRC / "structures.py").read_text())) == 1


def float_uses(source: str) -> list:
    """Lines holding a float or complex literal or a read of the name
    ``float``."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if ((isinstance(n, ast.Constant)
             and isinstance(n.value, (float, complex)))
                or (isinstance(n, ast.Name) and n.id == "float"
                    and isinstance(n.ctx, ast.Load))):
            lines.append(n.lineno)
    return sorted(lines)


def test_detects_a_float():
    src = ("from fractions import Fraction\n"
           "half = Fraction(1, 2)\nx = 0.5\n"
           "def f(c):\n    return float(c) + 2j\n"
           "s = '0.5'\nfloat_ok = 1\n")
    # strings and names that merely contain "float" are not floats
    assert float_uses(src) == [3, 5, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text()) == []


def _frobkit_import(node) -> bool:
    """Whether an import statement imports from the frobkit package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "frobkit"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "frobkit" for alias in node.names)


def private_imports(source: str) -> list:
    """(line, name) of every private name imported from a frobkit module."""
    return sorted((n.lineno, alias.name) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.ImportFrom) and _frobkit_import(n)
                  for alias in n.names if _private(alias.name))


def test_detects_a_private_import():
    src = ("from .unfold import _zeta_frame, solve\n"
           "from frobkit.series import _limit\n"
           "from os.path import _joinrealpath\n"
           "from .series import __all__\n")
    # a private name of another package and a dunder are not flagged
    assert private_imports(src) == [(1, "_zeta_frame"), (2, "_limit")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def nested_imports(source: str) -> list:
    """Lines that import a frobkit module inside a function body."""
    return sorted({n.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(fn) if _frobkit_import(n)})


def test_detects_a_nested_import():
    src = ("from .pencil import gc_check\n"
           "def f(P):\n    from .unfold import solve\n"
           "    def g():\n        import frobkit.series\n"
           "    import json\n    return solve(P)\n")
    # top-level and non-frobkit imports are not flagged
    assert nested_imports(src) == [3, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert nested_imports(path.read_text()) == []


def _origin_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at_origin")


def dense_origin_reads(source: str) -> list:
    """Lines that subscript an ``at_origin()`` call or iterate one in a
    comprehension: each builds the whole constant matrix to read a part of
    it, which ``column`` and ``nonzero`` read off the stored entries."""
    reads = [n.value if isinstance(n, ast.Subscript) else n.iter
             for n in ast.walk(ast.parse(source))
             if isinstance(n, (ast.Subscript, ast.comprehension))]
    return sorted({r.lineno for r in reads if _origin_call(r)})


def test_detects_a_dense_origin_read():
    src = ("def f(C, k):\n    x = C.at_origin()[k][0]\n"
           "    rows = [row[0] for row in C.at_origin()]\n"
           "    a = C.at_origin()\n    return a[k], rank(C.at_origin())\n")
    # a whole matrix passed on, or read through a name, is not flagged
    assert dense_origin_reads(src) == [2, 3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dense_origin_reads(path):
    assert dense_origin_reads(path.read_text()) == []
