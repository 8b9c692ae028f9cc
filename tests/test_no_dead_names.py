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
