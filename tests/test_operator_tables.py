"""The grammar, the parser and the interpreter name the same operators.

`syntax._LEVELS` is the one statement of the binary operators' precedence.
These tests tie the grammar's precedence productions and the evaluator's
operator tables to it.
"""

import re
from pathlib import Path

from patchbandit.toylang import interp, syntax

GRAMMAR = Path(__file__).resolve().parent.parent / "docs" / "grammar.ebnf"

# the grammar's productions for the levels of _LEVELS, loosest first
LEVEL_PRODUCTIONS = ("or-expr", "and-expr", "cmp-op", "add-expr", "mul-expr")


def _quoted(production: str) -> tuple:
    """The quoted terminals of one production of the grammar."""
    text = GRAMMAR.read_text(encoding="utf-8")
    rule = re.search(rf"^{re.escape(production)}\s+=(.*?);", text,
                     re.MULTILINE | re.DOTALL)
    assert rule, production
    return tuple(re.findall(r'"([^"]+)"', rule.group(1)))


def test_the_grammars_precedence_productions_are_the_parsers_levels():
    assert tuple(_quoted(name) for name in LEVEL_PRODUCTIONS) \
        == syntax._LEVELS


def test_the_interpreter_evaluates_exactly_the_parsers_operators():
    evaluated = set(interp._ARITH_FNS) | set(interp._CMP_FNS) | {"&&", "||"}
    assert set(syntax._PRECEDENCE) == evaluated


def test_the_lexer_reads_each_operator_as_one_token():
    for op in syntax._PRECEDENCE:
        assert [tok[0] for tok in syntax.tokenize(op)] == [op, "eof"]
