"""Every public function, class, method, property and field of the library
has a consumer, and the package exports only what its users import.

A public top-level ``def`` or ``class`` of a module in ``src/qplab``, and a
public method, property or annotated field of such a class, must be read
somewhere outside its own definition: by the library, the benchmark harness
(``perfbench/*.py``), the acceptance suite or, in a code span, the README.
The other tests do not count, and neither do the package ``__init__``'s
imports, which only re-export: a name that nothing but the export list and
the tests reaches is surface that nothing uses.  A member is reached as an
attribute, so a bare variable of the same name does not count for it.

A read ``x.member`` counts for the class of ``x`` when evidence inside the
same function, or the function or module around it, tells that class:
``self``, an annotation, the return annotation of the call that bound
``x``, or iteration, subscripts and comprehensions over annotated
sequences.  Only a read whose receiver stays
unknown counts for every class with a member of that name, and then only
for classes of the modules its file imports.  A string counts as a read
only in ``getattr``/``hasattr`` or in a tuple that names the class or
module, as the benchmark's tracer targets do.  A README code span names a
member when it reads ``.member`` or is the member alone or a call of it.
"""

import ast
import functools
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


# Types the scan tells apart: ("inst", C) an instance of class C, ("class",
# C) the class itself, ("module", m) a module, ("seq", T) a sequence of T,
# ("tuple", (T, ...)) a tuple of known length, OTHER any other known type,
# such as a number, a string or a dict; None where nothing tells.
OTHER = ("other",)
_SEQUENCES = {"List", "Sequence", "Iterable", "Iterator", "Tuple"}
_OTHERS = {"bool", "int", "float", "str", "dict", "Dict", "Mapping", "ndarray"}
_SCOPES = (ast.FunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _ident(node):
    """The last identifier of a name or a dotted attribute."""
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None)


def _common(types):
    """The one type all of ``types`` share, or None."""
    types = list(types)
    return types[0] if types and all(t == types[0] for t in types) else None


def _element(t):
    """The type of an element met when iterating over a ``t``."""
    if t and t[0] == "seq":
        return t[1]
    return _common(t[1]) if t and t[0] == "tuple" else None


class Types:
    """What the library's and one consumer's annotations say about the
    receivers of the consumer's attribute reads."""

    def __init__(self, library, tree):
        self.home = {}          # top-level name -> library module
        self.bases = {}         # class -> its first base, or None
        self.attrs = {}         # class -> {field or property: annotation}
        self.methods = {}       # class -> {method: return annotation}
        self.returns = {}       # function -> return annotation
        for path in library:
            self._collect(parsed(path), path.stem)
        self._collect(tree, None)
        stems = {path.stem for path in library}
        self.modules = {}       # name bound to a module -> its library module
        self.imported = set()   # library modules the consumer imports from
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    last = alias.name.rpartition(".")[2]
                    self.imported |= {last} & stems
                    # ``import a.b`` binds the package a, not the module b.
                    whole = alias.asname or "." not in alias.name
                    bound = alias.asname or alias.name.partition(".")[0]
                    self.modules[bound] = last if whole and last in stems \
                        else None
            elif isinstance(node, ast.ImportFrom):
                last = (node.module or "").rpartition(".")[2]
                self.imported |= {last} & stems
                for alias in node.names:
                    if alias.name in stems:
                        self.imported.add(alias.name)
                        self.modules[alias.asname or alias.name] = alias.name
                    elif alias.name in self.home:
                        self.imported.add(self.home[alias.name])

    def _collect(self, tree, stem):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.returns[node.name] = node.returns
            elif isinstance(node, ast.ClassDef):
                attrs, methods = {}, {}
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign):
                        attrs[_ident(sub.target)] = sub.annotation
                    elif isinstance(sub, ast.FunctionDef):
                        prop = any(_ident(d) == "property"
                                   for d in sub.decorator_list)
                        (attrs if prop else methods)[sub.name] = sub.returns
                self.bases[node.name] = next(map(_ident, node.bases), None)
                self.attrs[node.name], self.methods[node.name] = attrs, methods
            else:
                continue
            if stem is not None:
                self.home[node.name] = stem

    def lineage(self, t):
        """The class of an instance or class type, then its first base, its
        first base's first base and so on, as far as they are known."""
        out = []
        name = t[1] if t and t[0] in ("inst", "class") else None
        while name in self.bases and name not in out:
            out.append(name)
            name = self.bases[name]
        return out

    def _member(self, t, name, table):
        """The annotation ``table`` (``attrs`` or ``methods``) holds for a
        member of the class of ``t``."""
        return next((table[cls][name] for cls in self.lineage(t)
                     if name in table[cls]), None)

    def annotation(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.Subscript):
            base, arg = _ident(node.value), node.slice
            if base == "Optional":
                return self.annotation(arg)
            if base == "Tuple" and isinstance(arg, ast.Tuple):
                last = arg.elts[-1]
                if isinstance(last, ast.Constant) and last.value is ...:
                    return ("seq", self.annotation(arg.elts[0]))
                return ("tuple", tuple(map(self.annotation, arg.elts)))
            if base in _SEQUENCES:
                return ("seq", self.annotation(arg))
            return OTHER if base in _OTHERS else None
        name = _ident(node)
        if name in self.bases:
            return ("inst", name)
        return OTHER if name in _OTHERS else None

    def of(self, node, env):
        """The type of an expression under ``env`` (name -> type)."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.bases:
                return ("class", node.id)
            if node.id in self.modules:
                return ("module", self.modules[node.id])
            return None
        if isinstance(node, ast.Attribute):
            owner = self.of(node.value, env)
            if owner and owner[0] == "module" and owner[1] \
                    and node.attr in self.bases:
                return ("class", node.attr)
            return self.annotation(self._member(owner, node.attr, self.attrs))
        if isinstance(node, ast.Call):
            func, callee = node.func, self.of(node.func, env)
            if callee and callee[0] == "class":
                return ("inst", callee[1])
            if isinstance(func, ast.Name) and func.id not in env:
                return self.annotation(self.returns.get(func.id))
            if isinstance(func, ast.Attribute):
                owner = self.of(func.value, env)
                if owner and owner[0] == "module" and owner[1]:
                    return self.annotation(self.returns.get(func.attr))
                return self.annotation(self._member(owner, func.attr,
                                                    self.methods))
            return None
        if isinstance(node, ast.Subscript):
            t, index = self.of(node.value, env), node.slice
            if isinstance(index, ast.Slice):
                return t if t and t[0] == "seq" else None
            if t and t[0] == "tuple" and isinstance(index, ast.Constant) \
                    and isinstance(index.value, int) \
                    and -len(t[1]) <= index.value < len(t[1]):
                return t[1][index.value]
            return t[1] if t and t[0] == "seq" else None
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return ("seq", self.of(node.elt, self.comprehension(node, env)))
        if isinstance(node, ast.Tuple):
            return ("tuple", tuple(self.of(e, env) for e in node.elts))
        if isinstance(node, ast.List):
            return ("seq", _common(self.of(e, env) for e in node.elts))
        if isinstance(node, (ast.Dict, ast.DictComp, ast.Set, ast.Constant,
                             ast.JoinedStr)):
            return OTHER
        return None

    def comprehension(self, node, env):
        """``env`` with the targets of a comprehension, which has a scope
        of its own."""
        for gen in node.generators:
            found = {}
            self._bind(gen.target, _element(self.of(gen.iter, env)), found)
            env = {**env, **{name: _common(types)
                             for name, types in found.items()}}
        return env

    def scope(self, fn, outer, cls=None):
        """``outer`` with the names a function (or lambda) binds, typed from
        its parameters and the values bound to them.  A name bound to two
        types, or to one nothing tells, is None."""
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        binds = [(ast.Name(a.arg), lambda env, a=a: (
            ("inst", cls) if cls and a.arg == "self"
            else self.annotation(a.annotation))) for a in params]
        body = [fn.body] if isinstance(fn, ast.Lambda) else fn.body
        binds += self._bindings(body)
        local = {}
        for target, _ in binds:
            self._bind(target, None, local)
        local = {name: None for name in local}
        for _ in range(8):
            env, found = {**outer, **local}, {}
            for target, value in binds:
                self._bind(target, value(env), found)
            new = {name: _common(types) for name, types in found.items()}
            if new == local:
                break
            local = new
        return {**outer, **local}

    def _bindings(self, nodes):
        """(target, type of its value under an env) of every binding in
        ``nodes``, nested scopes excluded."""
        todo, out = list(nodes), []
        while todo:
            node = todo.pop()
            if isinstance(node, _SCOPES + _COMPREHENSIONS + (ast.ClassDef,)):
                continue
            if isinstance(node, (ast.Assign, ast.NamedExpr)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                out += [(t, lambda env, v=node.value: self.of(v, env))
                        for t in targets]
            elif isinstance(node, ast.AnnAssign):
                out.append((node.target, lambda env, a=node.annotation:
                            self.annotation(a)))
            elif isinstance(node, ast.For):
                out.append((node.target, lambda env, i=node.iter:
                            _element(self.of(i, env))))
            elif isinstance(node, ast.withitem) and node.optional_vars:
                out.append((node.optional_vars, lambda env: None))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                out.append((ast.Name(node.name), lambda env: None))
            todo.extend(ast.iter_child_nodes(node))
        return out

    def _bind(self, target, t, found):
        if isinstance(target, ast.Name):
            found.setdefault(target.id, []).append(t)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None, found)
        elif isinstance(target, (ast.Tuple, ast.List)):
            n = len(target.elts)
            parts = (t[1] if t and t[0] == "tuple" and len(t[1]) == n else
                     [t[1]] * n if t and t[0] == "seq" else [None] * n)
            for sub, part in zip(target.elts, parts):
                self._bind(sub, part, found)

    def reads(self, tree):
        """(name, line, receiver) of every name, attribute and string read.
        ``receiver`` is "bare" for a plain name, else the type of the
        receiver of an attribute, or of the object a string names."""
        todo = [(tree, {})]
        while todo:
            node, env = todo.pop()
            if isinstance(node, ast.Name):
                yield node.id, node.lineno, "bare"
            elif isinstance(node, ast.Attribute):
                yield node.attr, node.lineno, self.of(node.value, env)
            elif (isinstance(node, ast.Call)
                  and _ident(node.func) in ("getattr", "hasattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                yield (node.args[1].value, node.lineno,
                       self.of(node.args[0], env))
            elif isinstance(node, ast.Tuple):
                named = [t for t in (self.of(e, env) for e in node.elts)
                         if t and t[0] in ("class", "module")]
                yield from ((e.value, e.lineno, t) for e in node.elts
                            for t in named if isinstance(e, ast.Constant)
                            and isinstance(e.value, str))
            if isinstance(node, _COMPREHENSIONS):
                env = self.comprehension(node, env)
            # The methods of a class read ``self`` as an instance of it.
            cls = node.name if isinstance(node, ast.ClassDef) else None
            todo += [(child, self.scope(child, env, cls)
                      if isinstance(child, _SCOPES) else env)
                     for child in ast.iter_child_nodes(node)]


def code_spans(markdown: str):
    """The inline code spans and fenced blocks of a text."""
    return [span.strip("`") for span in
            re.findall(r"```.*?```|`[^`\n]+`", markdown, flags=re.S)]


def code_span_names(markdown: str):
    """Identifiers inside the code spans of a text."""
    return {word for span in code_spans(markdown)
            for word in re.findall(r"\w+", span)}


def code_span_members(markdown: str):
    """Identifiers a code span names as a member: after a dot, or as the
    whole span or a call that is the whole span, as in `values()`."""
    spans = code_spans(markdown)
    whole = (re.fullmatch(r"(\w+)(?:\(.*\))?", span) for span in spans)
    return ({m[1] for m in whole if m}
            | {word for span in spans for word in re.findall(r"\.(\w+)", span)})


@functools.lru_cache(maxsize=None)
def parsed(path):
    return ast.parse(path.read_text())


@functools.lru_cache(maxsize=None)
def consumer_reads(src, library):
    """The library modules a consumer file imports (itself included, if it
    is one), and its reads."""
    types = Types(library, parsed(src))
    imported = types.imported | ({src.stem} if src in library else set())
    return imported, [(name, line, receiver, types.lineage(receiver))
                      for name, line, receiver in types.reads(parsed(src))
                      if isinstance(name, str)]


def unconsumed(path, library, consumers, readme):
    """Public names defined in ``path``, one of the ``library`` modules,
    that neither a consumer nor a code span of the ``readme`` text reads."""
    defs = definitions(parsed(path))
    by_name = {}
    for key, span in defs.items():
        by_name.setdefault(key.rpartition(".")[2], []).append((key, span))
    names, members = code_span_names(readme), code_span_members(readme)
    used = {key for key in defs if key.rpartition(".")[2]
            in (members if "." in key else names)}
    for src in consumers:
        imported, reads = consumer_reads(src, tuple(library))
        for name, line, receiver, owners in reads:
            for key, (first, last) in by_name.get(name, ()):
                cls = key.partition(".")[0] if "." in key else None
                if cls is None:
                    counts = receiver in ("bare", None) or \
                        receiver[0] == "module"
                elif receiver is None:
                    counts = path.stem in imported
                else:
                    counts = cls in owners
                if counts and not (src == path and first <= line <= last):
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
    readme = "Call `documented(x)`; Report and used are prose."
    assert unconsumed(lib, [lib], [lib, user], readme) == [
        "Report.bare", "Report.unread", "Report.unread_field", "recursive"]


def test_scan_matches_members_by_receiver_class(tmp_path):
    """Two classes share member names; reads through a receiver of the one
    class, or through a schema-like string, do not count for the other."""
    lib = tmp_path / "lib.py"
    lib.write_text("from typing import List, Tuple\n\n"
                   "class Gap:\n"
                   "    ok: bool\n    width: float\n    size: int\n"
                   "    def scaled(self) -> 'Gap':\n        return self\n\n"
                   "class Report:\n"
                   "    ok: bool\n    width: float\n    size: int\n"
                   "    required: float\n    gaps: Tuple[Gap, ...]\n\n"
                   "def find() -> Gap:\n    return Gap()\n\n"
                   "def report() -> Report:\n    return Report()\n\n"
                   "def survey() -> List[Gap]:\n    return []\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import find, report, survey\n"
                    "SCHEMA = {'required': ['width']}\n"
                    "def check(gap: 'Gap'):\n"
                    "    return gap.ok and find().size\n"
                    "def widths():\n"
                    "    first = survey()[0].scaled()\n"
                    "    rows = [(g, 1) for g in report().gaps]\n"
                    "    return first.width + sum(g.size for g, _ in rows)\n"
                    "def probe(x):\n    return x.ok\n")
    # A file that imports nothing of the library: its unknown receivers
    # count for no library class.
    other = tmp_path / "other.py"
    other.write_text("def probe(x):\n    return x.required + x.width\n")
    assert unconsumed(lib, [lib], [lib, user, other], "") == [
        "Report.required", "Report.size", "Report.width"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_consumer(path):
    readme = (ROOT / "README.md").read_text()
    assert unconsumed(path, MODULES, CONSUMERS, readme) == []


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
