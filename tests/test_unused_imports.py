"""No test or library module imports a name that it never uses.

The package ``__init__`` is left out: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest


def unused_imports(source: str):
    """Names an import binds in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_scan_finds_unused_names():
    source = ("import os.path\nimport numpy as np\nfrom x import a, b as c\n"
              "from __future__ import annotations\nprint(os.sep, c)\n")
    assert unused_imports(source) == ["a", "np"]


TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "qplab"


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: f"qplab/{p.name}")
def test_no_unused_library_imports(path):
    assert unused_imports(path.read_text()) == []
