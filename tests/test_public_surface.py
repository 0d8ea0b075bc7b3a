"""Every public function, class, method, property and field of the library
has a consumer, and the package exports only what its users import.

A public top-level ``def`` or ``class`` of a module in ``src/qplab``, and a
public method, property or annotated field of such a class, must be read
somewhere outside its own definition: by the library, the benchmark harness
(``perfbench/*.py``), the acceptance suite or, in a code span, the README.
The other tests do not count, and neither do the package ``__init__``'s
imports, which only re-export: a name that nothing but the export list and
the tests reaches is surface that nothing uses.  A member is reached as an
attribute (or by string), so a bare variable of the same name does not count
for it.
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


def public(nodes):
    """(name, node) of the public functions, classes and annotated fields."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def definitions(tree):
    """Public top-level functions and classes, and the public methods,
    properties and annotated fields of those classes as ``Class.member``:
    name -> (first, last) line."""
    defs = {}
    for name, node in public(tree.body):
        if isinstance(node, ast.AnnAssign):
            continue                # a module-level annotated constant
        defs[name] = (node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for member, sub in public(node.body):
                defs[f"{name}.{member}"] = (sub.lineno, sub.end_lineno)
    return defs


def references(tree):
    """(name, line, bare) of every name, attribute and string constant read;
    ``bare`` marks a plain name.

    A string constant counts because a name can be reached by string, as in
    ``getattr(module, "name")``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, False


def code_span_names(markdown: str):
    """Identifiers inside the inline code spans and fenced blocks of a text."""
    spans = re.findall(r"```.*?```|`[^`\n]+`", markdown, flags=re.S)
    return {word for span in spans for word in re.findall(r"\w+", span)}


def unconsumed(path, consumers, readme_names):
    """Public names defined in ``path`` that no consumer reads."""
    defs = definitions(ast.parse(path.read_text()))
    by_name = {}
    for key, span in defs.items():
        by_name.setdefault(key.rpartition(".")[2], []).append((key, span))
    used = {key for name in readme_names for key, _ in by_name.get(name, ())}
    for src in consumers:
        for name, line, bare in references(ast.parse(src.read_text())):
            for key, (first, last) in by_name.get(name, ()):
                if not ((bare and "." in key)
                        or (src == path and first <= line <= last)):
                    used.add(key)
    return sorted(set(defs) - used)


def test_scan_finds_unconsumed_names(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return helper()\n\n"
                   "def helper():\n    return 1\n\n"
                   "def recursive(n):\n    return recursive(n - 1)\n\n"
                   "class Report:\n"
                   "    field: int\n"
                   "    unread_field: int\n"
                   "    _private_field: int\n"
                   "    def read(self):\n        return self.read\n\n"
                   "    def unread(self):\n        return 1\n\n"
                   "    @property\n    def bare(self):\n        return 1\n\n"
                   "    def _own(self):\n        return 1\n\n"
                   "def by_string():\n    pass\n\n"
                   "def documented():\n    pass\n\n"
                   "def _private():\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import used, by_string, Report\n"
                    "used()\ngetattr(lib, 'by_string')\n"
                    "Report().read()\nReport().field\nbare = 1\n")
    readme = code_span_names("Call `documented(x)`; Report and used are prose.")
    assert unconsumed(lib, [lib, user], readme) == [
        "Report.bare", "Report.unread", "Report.unread_field", "recursive"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_consumer(path):
    readme = code_span_names((ROOT / "README.md").read_text())
    assert unconsumed(path, CONSUMERS, readme) == []


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and d.func.id == "dataclass"
               for d in node.decorator_list)


def _init_field(node):
    """An annotated dataclass field that ``__init__`` takes, i.e. not
    ``field(init=False, ...)``."""
    value = node.value
    return not (isinstance(value, ast.Call)
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))


def _params(fn, method):
    """(name, default or None, positional) of a function's parameters,
    without the ``self`` of a method."""
    args = fn.args
    pos = args.posonlyargs + args.args
    defaults = [None] * (len(pos) - len(args.defaults)) + args.defaults
    params = [(a.arg, d, True) for a, d in zip(pos, defaults)]
    params += [(a.arg, d, False)
               for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return params[1:] if method else params


def signatures(tree):
    """(label, callee name, params) of every public function, every public
    method and ``__init__`` of a public class, and the generated
    ``__init__`` of a public dataclass."""
    for name, node in public(tree.body):
        if isinstance(node, ast.FunctionDef):
            yield name, name, _params(node, method=False)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [(f.target.id, f.value, True) for f in node.body
                          if isinstance(f, ast.AnnAssign) and _init_field(f)]
                yield name, name, fields
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                if sub.name == "__init__":
                    yield name, name, _params(sub, method=True)
                elif not sub.name.startswith("_"):
                    yield (f"{name}.{sub.name}", sub.name,
                           _params(sub, method=True))


def _is_default(arg, default):
    """Whether an argument is the default itself, written out."""
    if ast.dump(arg) == ast.dump(default):
        return True
    try:
        return ast.literal_eval(arg) == ast.literal_eval(default)
    except ValueError:              # not a literal
        return False


def varied_by(call, params):
    """Parameters a call passes a value other than their default; a
    ``*args`` splat varies every positional parameter from its place on,
    a ``**kw`` splat every parameter."""
    positional = [(name, default) for name, default, pos in params if pos]
    defaults = {name: default for name, default, _ in params}
    varied = set()
    for i, ((name, default), arg) in enumerate(zip(positional, call.args)):
        if isinstance(arg, ast.Starred):
            varied |= {name for name, _ in positional[i:]}
            break
        if default is None or not _is_default(arg, default):
            varied.add(name)
    for kw in call.keywords:
        if kw.arg is None:
            varied |= set(defaults)
        elif defaults.get(kw.arg) is None \
                or not _is_default(kw.value, defaults[kw.arg]):
            varied.add(kw.arg)
    return varied


def unvaried_defaults(path, consumers):
    """``label(param)`` of each defaulted parameter defined in ``path`` that
    no call in ``consumers`` sets to another value.  A call is matched to a
    definition by the bare name it calls."""
    by_callee = {}
    for label, callee, params in signatures(ast.parse(path.read_text())):
        by_callee.setdefault(callee, []).append((label, params))
    varied = set()
    for src in consumers:
        for call in ast.walk(ast.parse(src.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            for label, params in by_callee.get(callee, ()):
                varied |= {(label, name) for name in varied_by(call, params)}
    return sorted(f"{label}({name})"
                  for label, params in sum(by_callee.values(), [])
                  for name, default, _ in params
                  if default is not None and (label, name) not in varied)


def test_scan_finds_unvaried_defaults(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("from dataclasses import dataclass, field\n\n"
                   "def by_keyword(x, a=1, b=2):\n    pass\n\n"
                   "def by_position(x, a=1, b=2):\n    pass\n\n"
                   "def by_splat(x, a=1, *, b=2):\n    pass\n\n"
                   "def by_default(x, a=1, b='s'):\n    pass\n\n"
                   "def _private(x, a=1):\n    pass\n\n"
                   "@dataclass(frozen=True)\n"
                   "class Spec:\n"
                   "    n: int\n"
                   "    size: int = 8\n"
                   "    note: str = 'x'\n"
                   "    _cache: int = field(init=False, default=0)\n"
                   "    def scaled(self, k=2.0):\n        return k\n\n"
                   "class Error(Exception):\n"
                   "    def __init__(self, msg, path=()):\n        pass\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import *\n"
                    "by_keyword(0, b=n)\n"
                    "by_position(0, 1, 5)\n"
                    "by_splat(*args)\n"
                    "by_splat(0, **kw)\n"
                    "by_default(0, 1.0, b='s')\n"
                    "_private(0, 2)\n"
                    "Spec(3, 16).scaled(2.0)\n"
                    "Error('m', ('k',))\n")
    assert unvaried_defaults(lib, [lib, user]) == [
        "Spec(note)", "Spec.scaled(k)", "by_default(a)", "by_default(b)",
        "by_keyword(a)", "by_position(a)"]


# Defaults that no consumer varies but that stay: the benchmark harness
# passes ``cosine_potential``'s strip_width=2.0 by keyword.
KEPT_DEFAULTS = {"model.py": ["cosine_potential(strip_width)"]}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_default_is_varied(path):
    assert unvaried_defaults(path, CONSUMERS) == KEPT_DEFAULTS.get(path.name,
                                                                   [])


def imported_from(tree, module):
    """Names a module's ``from <module> import ...`` statements bind."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


def test_package_exports_what_its_users_import():
    """``qplab`` re-exports every error class and the names the acceptance
    suite imports from it; any other export must appear in a README code
    span.  Tests reach the rest by module path."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    errors = {node.name for node in ast.parse(
        (PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)}
    acceptance = imported_from(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()), "qplab")
    readme = code_span_names((ROOT / "README.md").read_text())
    assert errors | acceptance <= exported
    assert exported - errors - acceptance - readme == set()
