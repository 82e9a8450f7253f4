"""No module of the package or of the tests imports a name it never uses,
no function of the package imports anything, and the bound policy stays
in rings.py.

A name counts as used when it appears anywhere in the module as a plain
name (an attribute access `np.x` uses `np`). Package `__init__.py`
files are skipped, since their imports are the re-exported interface,
and so are `from __future__` imports. An import inside a function of
`src/idealis` hides a dependency, usually a cycle, from the module
header; only one under `if TYPE_CHECKING:` is allowed.

The block budget `_BLOCK_ENTRIES` and the cap `element_cap()` are read
in rings.py alone: no other module of the package names the budget or
calls the cap, so every bound is set and refused in one place. The
package's public names, `__all__`, hold no module.
"""

import ast
import types
from pathlib import Path

import pytest

import idealis

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "idealis").glob("*.py"))
MODULES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def function_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    guarded = {id(n) for node in ast.walk(tree)
               if isinstance(node, ast.If)
               and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
               for stmt in node.body for n in ast.walk(stmt)}
    lines = {n.lineno for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for n in ast.walk(fn)
             if isinstance(n, (ast.Import, ast.ImportFrom)) and id(n) not in guarded}
    return [f"line {line}" for line in sorted(lines)]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == \
        ["line 1: os"]
    assert unused_imports("from a import b, c as d\nprint(d)\n") == ["line 1: b"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_a_function_import():
    assert function_imports("import os\ndef f():\n    import sys\n") == ["line 3"]
    assert function_imports(
        "class A:\n    def f(self):\n        from . import b\n") == ["line 3"]
    assert function_imports(
        "def f():\n    if TYPE_CHECKING:\n        import sys\n"
        "    else:\n        import os\n") == ["line 5"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_function_imports(path):
    assert function_imports(path.read_text()) == []


def bound_reads(source: str) -> list[str]:
    """Lines that name _BLOCK_ENTRIES, as a name, an attribute or an
    import, or that call element_cap()."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name == "_BLOCK_ENTRIES" or isinstance(node, ast.ImportFrom) and any(
                alias.name == "_BLOCK_ENTRIES" for alias in node.names):
            lines.add(node.lineno)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "element_cap":
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_the_scan_sees_a_bound_read():
    assert bound_reads("from .rings import _BLOCK_ENTRIES, element_cap\n") == ["line 1"]
    assert bound_reads("step = rings._BLOCK_ENTRIES // n\n") == ["line 1"]
    assert bound_reads("x = 1\ncap = max(n, element_cap())\n") == ["line 2"]
    assert bound_reads("from .rings import element_cap\n") == []


def test_only_rings_reads_the_bounds():
    reads = {p.name: bound_reads(p.read_text()) for p in PACKAGE if p.name != "rings.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_public_names_hold_no_module():
    assert "annotations" not in idealis.__all__
    assert not [n for n in idealis.__all__ if isinstance(getattr(idealis, n), types.ModuleType)]
    namespace: dict = {}
    exec("from idealis import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(idealis.__all__)
