"""Every module-level name and every class member in src is used in src.

A function, class or constant that only tests (or nothing) refer to is dead
code in the program.  A name counts as used when it appears as a whole
word anywhere in a source file under src/ outside the lines of its own
definition, so a recursive call is no use, and a mention in another
module's docstring or comment is.  A package's `__init__.py` only
re-exports names, for tests among others, so a mention there is no use.

A class member (a method, property, class attribute, named tuple field,
name a `__slots__` assignment spells out as a string, or attribute that a
method sets on `self`) counts as used when src reads it outside its own
definition, which for an attribute set on `self` is each assignment to
it: as an attribute load of that name (`x.name`, on any object) or as a
string equal to the name, for `getattr`.  Setting a member, in a
constructor call or an assignment, is not a use.

An attribute that src stores on an object other than `self`, as `height`
stores a node's `_height` and the search a variant's fitness, must be a
member of a class of the same module, so that it is checked too.

A name that a module-level import binds must be read in that module, as
a plain name (`name` or `name.attr`); an `__init__.py` imports names to
re-export them, and `from __future__ import annotations` binds a feature,
so neither counts.

Every default value of a function, method or named tuple field in src
must be one that some call in src leaves out, positionally or by keyword:
a default no call relies on is a second, unused statement of the value.
A call is matched to its callee by name (`f(...)` and `x.f(...)` both
call f); a class's `__init__` and a named tuple's fields are called by
the name of the class or of any class built on it, as is `cls(...)` in a
method of one of those classes.  A call through `*args` or `**kwargs`
counts as relying on every default of its callee.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# kept although nothing in src uses them: perfbench wraps
# experiment.run_repair_uniform by name, and tests print single statements
# with syntax.print_statement
ALLOWED = {"experiment.run_repair_uniform", "toylang.syntax.print_statement"}

# kept although nothing in src reads them: perfbench/spans.py reads
# FitnessReport.faults (_report_info) and BugGateResult.edits_examined
# (_gate_info), so a traced run fails without them; a named tuple's own
# `_replace` calls CheckedRecord._make, so that a changed copy of a plan or
# a config is checked
ALLOWED_MEMBERS = {"toylang.interp.FitnessReport.faults",
                   "corpus.BugGateResult.edits_examined",
                   "engine.CheckedRecord._make"}


def _targets(node):
    """The targets of an assignment statement; none for any other node."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, ast.AnnAssign) else []


def _definitions(tree):
    """(name, first line, last line) of each module-level function, class
    and assigned name; dunder names such as __all__ are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [name.id for target in _targets(node)
                     for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, start, node.end_lineno


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def _stores(tree):
    """(name, line) of each attribute stored on an object other than
    `self`, by an assignment of any kind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and not _is_self(node.value):
            yield node.attr, node.lineno


def _self_attributes(method):
    """(name, first line, last line) of each assignment in the method to
    an attribute of `self`."""
    for node in ast.walk(method):
        for target in _targets(node):
            if isinstance(target, ast.Attribute) and _is_self(target.value):
                yield target.attr, node.lineno, node.end_lineno


def _slots(node):
    """The string constants in the value of a `__slots__` assignment;
    none for any other statement."""
    if not any(isinstance(target, ast.Name) and target.id == "__slots__"
               for target in _targets(node)):
        return []
    return [constant.value for constant in ast.walk(node.value)
            if isinstance(constant, ast.Constant)
            and isinstance(constant.value, str)]


def _members(tree):
    """(class, name, first line, last line) of each method, property,
    class attribute, named tuple field and slot of every class, dunder
    names left out, and of each assignment a method makes to an attribute
    of `self`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
                for name, start, end in _self_attributes(node):
                    yield cls.name, name, start, end
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [target.id for target in _targets(node)
                         if isinstance(target, ast.Name)] + _slots(node)
            else:
                continue
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield cls.name, name, start, node.end_lineno


def _reads(tree):
    """(name, line) of each attribute load and each string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.end_lineno


def _imported_names(tree):
    """(name, line) of each name a module-level import binds, the features
    of `from __future__` left out."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                yield alias.asname or alias.name.partition(".")[0], \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _families(trees):
    """Each class name -> that name and the names of every class built on
    it, however indirectly."""
    bases = {node.name: {base.id for base in node.bases
                         if isinstance(base, ast.Name)}
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def family(name):
        return {name}.union(*(family(sub) for sub, of in bases.items()
                              if name in of))
    return {name: family(name) for name in bases}


def _is_named_tuple(cls):
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple"
               for base in cls.bases)


def _defaults(node, families, scope="", cls=None):
    """(name, callees, position, parameter) of each default of a function,
    method or named tuple field under the node.  `callees` are the names a
    call of it goes by: the function's own, or for `__init__` and a field
    those of its class and of every class built on it.  `position` counts
    the arguments a call passes before it; None for a keyword-only one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_named_tuple(child):
                fields = [statement for statement in child.body
                          if isinstance(statement, ast.AnnAssign)]
                for position, field in enumerate(fields):
                    if field.value is not None:
                        yield (f"{scope}{child.name}.{field.target.id}",
                               families[child.name], position, field.target.id)
            yield from _defaults(child, families, f"{scope}{child.name}.",
                                 child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            # a call of a method passes no self or cls (src has no static
            # methods)
            skip = cls is not None
            callees = (families[cls.name] if cls is not None
                       and child.name == "__init__" else {child.name})
            name = f"{scope}{child.name}"
            first = len(positional) - len(args.defaults)
            for position, arg in enumerate(positional[first:], first - skip):
                yield f"{name}.{arg.arg}", callees, position, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{name}.{arg.arg}", callees, None, arg.arg
            yield from _defaults(child, families, f"{name}.")


def _calls(node, families, cls=None):
    """(callees, positional arguments, keywords, starred) of each call under
    the node: `f(...)` and `x.f(...)` call f, and `cls(...)` in a class
    calls that class or a class built on it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute):
                callees = {func.attr}
            elif isinstance(func, ast.Name) and func.id == "cls" and cls:
                callees = families[cls.name]
            else:
                callees = {getattr(func, "id", None)}
            starred = any(isinstance(arg, ast.Starred) for arg in child.args) \
                or any(keyword.arg is None for keyword in child.keywords)
            yield (callees, len(child.args),
                   {keyword.arg for keyword in child.keywords}, starred)
        yield from _calls(child, families,
                          child if isinstance(child, ast.ClassDef) else cls)


def _unrelied_defaults(texts):
    """`module.name.parameter` of each default in the modules (qualifier ->
    source text) that no call in them leaves to its default; a call through
    `*args` or `**kwargs` counts as leaving every default."""
    trees = {qualifier: ast.parse(text) for qualifier, text in texts.items()}
    families = _families(trees.values())
    calls = [call for tree in trees.values()
             for call in _calls(tree, families)]
    return sorted(
        f"{qualifier}.{name}"
        for qualifier, tree in trees.items()
        for name, callees, position, parameter in _defaults(tree, families)
        if not any(names & callees
                   and (starred or parameter not in keywords
                        and (position is None or count <= position))
                   for names, count, keywords, starred in calls))


def _sources():
    return {path: path.read_text(encoding="utf-8")
            for path in sorted(SRC.rglob("*.py"))}


def _qualifier(path):
    module = path.relative_to(SRC / "patchbandit").with_suffix("")
    return ".".join(module.parts)


@pytest.fixture(scope="module")
def unused_names():
    sources = _sources()
    unused = set()
    for path, text in sources.items():
        qualifier = _qualifier(path)
        lines = text.splitlines()
        others = [t for other, t in sources.items()
                  if other != path and other.name != "__init__.py"]
        for name, start, end in _definitions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            rest = "\n".join(lines[:start - 1] + lines[end:])
            if not any(word.search(t) for t in [rest] + others):
                unused.add(f"{qualifier}.{name}")
    return unused


@pytest.fixture(scope="module")
def unread_members():
    trees = {path: ast.parse(text) for path, text in _sources().items()
             if path.name != "__init__.py"}
    reads = {path: list(_reads(tree)) for path, tree in trees.items()}
    unread = set()
    for path, tree in trees.items():
        for cls, name, start, end in _members(tree):
            if not any(read == name and (other != path
                                         or not start <= line <= end)
                       for other, found in reads.items()
                       for read, line in found):
                unread.add(f"{_qualifier(path)}.{cls}.{name}")
    return unread


def test_every_attribute_stored_on_another_object_is_a_class_member():
    undeclared = []
    for path, text in _sources().items():
        tree = ast.parse(text)
        members = {name for _, name, _, _ in _members(tree)}
        undeclared += [f"{_qualifier(path)}:{line} {name}"
                       for name, line in _stores(tree)
                       if name not in members]
    assert undeclared == []


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path, text in _sources().items():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(text)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unread += [f"{_qualifier(path)}:{line} {name}"
                   for name, line in _imported_names(tree)
                   if name not in loaded]
    assert unread == []


def test_every_module_level_name_is_used_in_src(unused_names):
    assert sorted(unused_names - ALLOWED) == []


def test_the_allowed_names_are_still_unused(unused_names):
    # an allowed name that src starts using again leaves the list
    assert ALLOWED <= unused_names


def test_every_class_member_is_read_in_src(unread_members):
    assert sorted(unread_members - ALLOWED_MEMBERS) == []


def test_the_allowed_members_are_still_unread(unread_members):
    assert ALLOWED_MEMBERS <= unread_members


def test_every_allowed_entry_has_a_reader_outside_src():
    # an entry whose last name no perfbench or test module mentions keeps
    # dead code out of sight
    texts = [path.read_text(encoding="utf-8")
             for folder in ("perfbench", "tests")
             for path in sorted((SRC.parent / folder).rglob("*.py"))
             if path.name != Path(__file__).name]
    unread = [entry for entry in sorted(ALLOWED | ALLOWED_MEMBERS)
              if not any(re.search(rf"\b{entry.rsplit('.', 1)[1]}\b", text)
                         for text in texts)]
    assert unread == []


def test_every_default_is_one_a_src_call_leaves_out():
    texts = {_qualifier(path): text for path, text in _sources().items()}
    assert _unrelied_defaults(texts) == []


NAMED_TUPLE = """
from typing import NamedTuple
class Fields(NamedTuple):
    a: int
    b: int = 0
"""


@pytest.mark.parametrize("texts, unrelied", [
    ({"m": "def f(a, b=1): pass\nf(1, 2)\n"}, ["m.f.b"]),
    ({"m": "def f(a, *, b=1): pass\nf(1, b=2)\n"}, ["m.f.b"]),
    # the 2 is a, not self
    ({"m": "class C:\n    def m(self, a, b=1): pass\nC().m(1, 2)\n"},
     ["m.C.m.b"]),
    ({"m": "class C:\n    def __init__(self, a=1): pass\nC(2)\n"},
     ["m.C.__init__.a"]),
    ({"m": NAMED_TUPLE + "Fields(1, 2)\n"}, ["m.Fields.b"]),
    # a default of an uncalled function, and one of a function nested in it
    ({"m": "def f(a=1):\n    def g(b=2): pass\n"}, ["m.f.a", "m.f.g.b"]),
], ids=["function", "keyword-only", "method", "init", "named-tuple-field",
        "uncalled"])
def test_a_default_no_call_leaves_out_is_found(texts, unrelied):
    assert _unrelied_defaults(texts) == unrelied


@pytest.mark.parametrize("texts", [
    {"m": "def f(a, b=1): pass\nf(1)\n"},
    {"m": "def f(a, b=1, c=2): pass\nf(1, c=3)\nf(a=1, b=2)\n"},
    {"m": "def f(a, *, b=1): pass\nf(1)\n"},
    {"m": "class C:\n    def m(self, a, b=1): pass\nC().m(1)\n"},
    {"m": "class C:\n    def __init__(self, a=1): pass\nC()\n"},
    {"m": "def f(a, b=1): pass\nf(1, *values)\n"},
    {"m": "def f(a, b=1): pass\nf(1, **given)\n"},
    {"m": NAMED_TUPLE + "Fields(a=1)\n"},
    # a call in another module of a class built on the named tuple
    {"m": NAMED_TUPLE, "n": "from m import Fields\n"
                             "class Checked(Fields): pass\nChecked(1)\n"},
    {"m": NAMED_TUPLE + """
class Base(tuple):
    @classmethod
    def make(cls, values):
        return cls(*values)
class Record(Base, Fields): pass
"""},
], ids=["positional", "keyword", "keyword-only", "method", "init", "args",
        "kwargs", "named-tuple-field", "subclass", "cls-args"])
def test_a_default_some_call_leaves_out_passes(texts):
    assert _unrelied_defaults(texts) == []
