"""The grammar, the lexer, the parser and the interpreter name the same
operators.

`syntax._LEVELS` is the one statement of the binary operators' precedence,
and the lexer's symbols are derived from it.  These tests tie the
grammar's precedence productions and the evaluator's operator tables to
it, and the grammar's terminals to the lexer's tokens.
"""

import re
from pathlib import Path

from patchbandit.toylang import interp, syntax

GRAMMAR = Path(__file__).resolve().parent.parent / "docs" / "grammar.ebnf"

# the grammar's productions for the levels of _LEVELS, loosest first
LEVEL_PRODUCTIONS = ("or-expr", "and-expr", "cmp-op", "add-expr", "mul-expr")


# the productions of one class of characters, and the kind of token each
# of their terminals is on its own
CHARACTER_CLASSES = {"digit": "int", "id-start": "ident"}


def _productions() -> dict:
    """The grammar's productions, comments left out, by name."""
    text = re.sub(r"\(\*.*?\*\)", "", GRAMMAR.read_text(encoding="utf-8"),
                  flags=re.DOTALL)
    rules = dict(re.findall(r'^([a-z-]+)\s+=((?:"[^"]*"|[^";])*);', text,
                            re.MULTILINE))
    assert list(rules) == re.findall(r"^([a-z-]+)\s+=", text, re.MULTILINE)
    return rules


def _quoted(production: str) -> tuple:
    """The quoted terminals of one production of the grammar."""
    return tuple(re.findall(r'"([^"]+)"', _productions()[production]))


def test_the_grammars_precedence_productions_are_the_parsers_levels():
    assert tuple(_quoted(name) for name in LEVEL_PRODUCTIONS) \
        == syntax._LEVELS


def test_the_interpreter_evaluates_exactly_the_parsers_operators():
    evaluated = set(interp._BINARY_FNS) | {"&&", "||"}
    assert set(syntax._PRECEDENCE) == evaluated


def test_the_lexer_reads_each_operator_as_one_token():
    for op in syntax._PRECEDENCE:
        assert [tok[0] for tok in syntax.tokenize(op)] == [op, "eof"]


def test_each_terminal_of_the_grammar_is_one_token_of_its_own_kind():
    for name in _productions():
        for terminal in _quoted(name):
            kind = CHARACTER_CLASSES.get(name, terminal)
            assert [tok[0] for tok in syntax.tokenize(terminal)] \
                == [kind, "eof"], (name, terminal)


def test_the_grammar_quotes_every_symbol_and_keyword_the_lexer_knows():
    quoted = {terminal for name in _productions()
              for terminal in _quoted(name)}
    assert set(syntax._SYMBOLS) | set(syntax.KEYWORDS) <= quoted
