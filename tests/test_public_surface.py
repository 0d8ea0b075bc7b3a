"""Every public function and class of the library has a consumer.

A public top-level ``def`` or ``class`` of a module in ``src/qplab`` must be
read somewhere outside its own definition: by the library, the benchmark
harness (``perfbench/*.py``), the acceptance suite or, in a code span, the
README.  The other tests do not count, and neither do the package
``__init__``'s imports, which only re-export: a name that nothing but the
export list and the tests reaches is surface that nothing uses.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qplab"
MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name not in ("__init__.py", "__main__.py"))
CONSUMERS = [*MODULES, PACKAGE / "__main__.py",
             *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]


def definitions(tree):
    """Public top-level functions and classes: name -> (first, last) line."""
    return {node.name: (node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def references(tree):
    """(name, line) of every name, attribute and string constant read.

    A string constant counts because a name can be reached by string, as in
    ``getattr(module, "name")``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def code_span_names(markdown: str):
    """Identifiers inside the inline code spans and fenced blocks of a text."""
    spans = re.findall(r"```.*?```|`[^`\n]+`", markdown, flags=re.S)
    return {word for span in spans for word in re.findall(r"\w+", span)}


def unconsumed(path, consumers, readme_names):
    """Public names defined in ``path`` that no consumer reads."""
    defs = definitions(ast.parse(path.read_text()))
    used = set(readme_names)
    for src in consumers:
        for name, line in references(ast.parse(src.read_text())):
            first, last = defs.get(name, (0, 0))
            if not (src == path and first <= line <= last):
                used.add(name)
    return sorted(set(defs) - used)


def test_scan_finds_unconsumed_names(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return helper()\n\n"
                   "def helper():\n    return 1\n\n"
                   "def recursive(n):\n    return recursive(n - 1)\n\n"
                   "class Report:\n    pass\n\n"
                   "def by_string():\n    pass\n\n"
                   "def documented():\n    pass\n\n"
                   "def _private():\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import used, by_string\n"
                    "used()\ngetattr(lib, 'by_string')\n")
    readme = code_span_names("Call `documented(x)`; Report and used are prose.")
    assert unconsumed(lib, [lib, user], readme) == ["Report", "recursive"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_consumer(path):
    readme = code_span_names((ROOT / "README.md").read_text())
    assert unconsumed(path, CONSUMERS, readme) == []
