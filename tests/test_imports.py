"""No module of the package or of the tests imports a name it never uses.

A name counts as used when it appears anywhere in the module as a plain
name (an attribute access `np.x` uses `np`). Package `__init__.py`
files are skipped, since their imports are the re-exported interface,
and so are `from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "idealis").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
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


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == \
        ["line 1: os"]
    assert unused_imports("from a import b, c as d\nprint(d)\n") == ["line 1: b"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
