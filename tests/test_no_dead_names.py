"""Every module-level name in src is used somewhere in src.

A function, class or constant that only tests (or nothing) refer to is dead
code in the program.  A name counts as used when it appears as a whole
word anywhere in a source file under src/ outside the lines of its own
definition, so a recursive call is no use, and a mention in another
module's docstring or comment is.  A package's `__init__.py` only
re-exports names, for tests among others, so a mention there is no use.
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


def _definitions(tree):
    """(name, first line, last line) of each module-level function, class
    and assigned name; dunder names such as __all__ are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [name.id for target in targets
                     for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, start, node.end_lineno


@pytest.fixture(scope="module")
def unused_names():
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    unused = set()
    for path, text in sources.items():
        module = path.relative_to(SRC / "patchbandit").with_suffix("")
        qualifier = ".".join(module.parts)
        lines = text.splitlines()
        others = [t for other, t in sources.items()
                  if other != path and other.name != "__init__.py"]
        for name, start, end in _definitions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            rest = "\n".join(lines[:start - 1] + lines[end:])
            if not any(word.search(t) for t in [rest] + others):
                unused.add(f"{qualifier}.{name}")
    return unused


def test_every_module_level_name_is_used_in_src(unused_names):
    assert sorted(unused_names - ALLOWED) == []


def test_the_allowed_names_are_still_unused(unused_names):
    # an allowed name that src starts using again leaves the list
    assert ALLOWED <= unused_names
