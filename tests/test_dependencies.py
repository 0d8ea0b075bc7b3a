"""The third-party modules the code imports are the ones pyproject.toml
declares: the package's exactly its dependencies, the tests' within those
and the ``test`` extra.

Every import counts, those inside functions (the lazy ``scipy``) too.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
LOCAL = {"qplab", "conftest"}


def third_party_imports(directory: Path) -> set:
    """Top-level names of the non-stdlib, non-local modules that the
    ``*.py`` files in ``directory`` import."""
    found = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - LOCAL


def requirement_names(requirements) -> set:
    """Module names of requirement strings such as ``numpy>=1.24``."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
            .replace("-", "_") for req in requirements}


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")     # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_scan_sees_function_level_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\nimport numpy as np\nfrom . import sibling\n"
        "def f():\n    from scipy.linalg import solve\n    import qplab\n")
    assert third_party_imports(tmp_path) == {"numpy", "scipy"}


def test_package_imports_are_its_dependencies(project):
    assert third_party_imports(ROOT / "src" / "qplab") == requirement_names(
        project["dependencies"])


def test_test_imports_are_declared(project):
    declared = requirement_names(project["dependencies"]
                                 + project["optional-dependencies"]["test"])
    assert third_party_imports(ROOT / "tests") <= declared
