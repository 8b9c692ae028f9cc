"""Plain-text test manifests.

One test per line, four pipe-separated fields:

    name | entry | arg, arg, ... | expected

Arguments are integers or bracketed integer arrays (`[3, 1, 2]`, `[]`).
An integer is an optional '-' and then the digits 0-9, and lies in the
signed 64-bit range [-2^63, 2^63), as does the expected value.
The argument field may be empty for nullary functions, but an argument
between commas may not.  Blank lines and lines starting with '#' are
skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import read_int


class SuiteFormatError(ValueError):
    def __init__(self, msg: str, source: str, line: int):
        super().__init__(f"{source}:{line}: {msg}")
        self.source = source
        self.line = line


@dataclass(frozen=True)
class TestCase:
    __test__ = False    # not a pytest class, despite the name

    name: str
    entry: str
    args: tuple     # ints and tuples of ints
    expected: int


def _split_args(text: str, source: str, lineno: int) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise SuiteFormatError("unbalanced ']'", source, lineno)
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise SuiteFormatError("unbalanced '['", source, lineno)
    parts.append("".join(current))
    return parts


def _parse_int(text: str, source: str, lineno: int) -> int:
    try:
        return read_int(text.strip())
    except ValueError as err:
        raise SuiteFormatError(str(err), source, lineno) from None


def _parse_arg(text: str, source: str, lineno: int):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise SuiteFormatError(f"malformed array: {text!r}", source, lineno)
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_int(p, source, lineno) for p in inner.split(","))
    return _parse_int(text, source, lineno)


def parse_suite(text: str, source: str = "<string>") -> tuple:
    """The suite's test cases, in file order."""
    cases = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 4:
            raise SuiteFormatError(
                f"expected 4 '|'-separated fields, found {len(fields)}",
                source, lineno)
        name, entry, arg_text, expected_text = fields
        if not name or not entry:
            raise SuiteFormatError("empty test name or entry", source, lineno)
        if name in names:
            raise SuiteFormatError(f"duplicate test name {name!r}",
                                   source, lineno)
        names.add(name)
        parts = _split_args(arg_text, source, lineno) if arg_text else ()
        args = tuple(_parse_arg(p, source, lineno) for p in parts)
        cases.append(TestCase(name, entry,
                              args, _parse_int(expected_text, source, lineno)))
    if not cases:
        raise SuiteFormatError("no test cases", source, 0)
    return tuple(cases)
