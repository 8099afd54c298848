"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isomean"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements in `source` and never loaded.

    A name counts as used when it occurs as an ``ast.Name``; the base of an
    attribute chain such as ``np.linalg.norm`` is such a node.
    ``from __future__`` imports are compiler directives and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    src = "from __future__ import annotations\nimport os, sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert unused_imports(src) == ["os (line 2)", "tau (line 3)"]


def test_scan_counts_attribute_bases_and_annotations():
    src = "import numpy as np\nfrom typing import Optional\ndef f(x: Optional[int]):\n    return np.linalg.norm(x)\n"
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
