"""The parser's exact output: its messages, positions and trees.

A table of malformed programs and expressions pins each error's message,
line and column, one entry or more per production.  One sha256 pins the
`repr` of the tree (statement ids and `next_sid` included) and its printed
text for every corpus program and for a few thousand seeded random
expressions, some of them malformed on purpose.  Another pins the lexer's
tokens or error for a few thousand seeded random texts, blanks, comments
and characters it refuses included.
"""

import hashlib
import random
from pathlib import Path

import pytest

from patchbandit.toylang.syntax import (ParseError, parse_expression,
                                        parse_program, print_expr,
                                        print_program, tokenize)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "patchbandit" \
    / "corpus"
DEEP = 70   # past the 64-level nesting limit

MALFORMED = [
    # function headers and parameter lists
    (parse_program, "fn f) { return 1; }", "1:5: expected '(', found ')'"),
    (parse_program, "fn f( { return 1; }",
     "1:7: expected 'ident', found '{'"),
    (parse_program, "fn f(a { return 1; }", "1:8: expected ')', found '{'"),
    (parse_program, "fn f(1) { return 1; }",
     "1:6: expected 'ident', found 1"),
    (parse_program, "fn f(a,) { return 1; }",
     "1:8: expected 'ident', found ')'"),
    (parse_program, "fn f(a, a b) { return 1; }",
     "1:4: duplicate parameter in 'f'"),
    (parse_program, "fn len(a, a) { return 1; }", "1:4: 'len' is reserved"),
    (parse_program, "fn () { return 1; }",
     "1:4: expected 'ident', found '('"),
    (parse_program, "fn f(a) { return 1; } fn f(b) { return 2; }",
     "1:44: duplicate function 'f'"),
    (parse_program, "fn f(a) { return 1; } x",
     "1:23: expected 'fn', found 'x'"),
    (parse_program, "", "1:1: empty program"),
    (parse_program, "# only a comment\n", "2:1: empty program"),
    # statements
    (parse_program, "fn f(a) { return a }", "1:20: expected ';', found '}'"),
    (parse_program, "fn f(a) { a 1; }", "1:13: expected '=', found 1"),
    (parse_program, "fn f(a) { a[0] 1; }", "1:16: expected '=', found 1"),
    (parse_program, "fn f(a) { a[1] = ; }",
     "1:18: expected an expression, found ';'"),
    (parse_program, "fn f(a) { return; }",
     "1:17: expected an expression, found ';'"),
    (parse_program, "fn f(a) { return a = 1; }",
     "1:20: expected ';', found '='"),
    (parse_program, "fn f(a) { 1 = a; }", "1:11: expected a statement"),
    (parse_program, "fn f(a) { fn = 1; }", "1:11: expected a statement"),
    (parse_program, "fn f(a) { if a < 1) { return 1; } return 0; }",
     "1:14: expected '(', found 'a'"),
    (parse_program, "fn f(a) { if (a < 1 { return 1; } return 0; }",
     "1:21: expected ')', found '{'"),
    (parse_program, "fn f(a) { while a < 1) { a = 1; } return 0; }",
     "1:17: expected '(', found 'a'"),
    (parse_program, "fn f(a) { while (a < 1 { a = 1; } return 0; }",
     "1:24: expected ')', found '{'"),
    (parse_program, "fn f(a) { else { return 1; } }",
     "1:11: expected a statement"),
    (parse_program, "fn f(a) { if (a) { return 1; } else return 2; }",
     "1:37: expected '{', found 'return'"),
    # expressions inside statements
    (parse_program, "fn f(a) { return a[1; }",
     "1:21: expected ']', found ';'"),
    (parse_program, "fn f(a) { return a < b < c; }",
     "1:24: expected ';', found '<'"),
    (parse_program, "fn f(a) { return a ||; }",
     "1:22: expected an expression, found ';'"),
    (parse_program, "fn f(a) { return g(a,); }",
     "1:22: expected an expression, found ')'"),
    (parse_program, "fn f(a) { return f(a a); }",
     "1:22: expected ')', found 'a'"),
    (parse_program, "fn f(a) {\n  x = 1;\n  y = (x +\n    2;\n}",
     "4:6: expected ')', found ';'"),
    # the lexer
    (parse_program, "fn f(a) { return a @ 1; }",
     "1:20: unexpected character '@'"),
    (parse_program, "fn f(a) { return 99999999999999999999; }",
     "1:18: integer literal out of range"),
    (parse_expression, "٢", "1:1: unexpected character '٢'"),
    (parse_expression, "a + ²", "1:5: unexpected character '²'"),
    (parse_expression, "a\x0c", "1:2: unexpected character '\\x0c'"),
    (parse_expression, "\x00", "1:1: unexpected character '\\x00'"),
    (parse_expression, "a\t\r)", "1:4: trailing input after expression"),
    (parse_program, "fn f(a) {\n\t) }", "2:2: expected a statement"),
    (parse_expression, "_a é x٢", "1:4: trailing input after expression"),
    # nesting
    (parse_program, "fn f() {" + "{" * DEEP + "}" * DEEP + " return 1; }",
     "1:73: nesting deeper than 64 levels"),
    (parse_program, "fn f() { return " + "(" * DEEP + "1" + ")" * DEEP
     + "; }", "1:80: nesting deeper than 64 levels"),
    # input that ends early
    (parse_program, "fn", "1:3: expected 'ident', found end of input"),
    (parse_program, "fn f(a)", "1:8: expected '{', found end of input"),
    (parse_program, "fn f(a) {", "1:10: expected '}', found end of input"),
    (parse_program, "fn f(a) { return a; # c",   # at the '#'
     "1:21: expected '}', found end of input"),
    (parse_program, "fn f() { { x = 1; }",
     "1:20: expected '}', found end of input"),
    (parse_program, "fn f(a) {\n  return g(a, b",
     "2:16: expected ')', found end of input"),
    (parse_program, "fn f(a) {\n  return a[1",
     "2:13: expected ']', found end of input"),
    (parse_program, "fn f(a) {\n  return (a + 1",
     "2:16: expected ')', found end of input"),
    (parse_program, "fn f(a) {\n  return a ||",
     "2:14: expected an expression, found end of input"),
    # bare expressions
    (parse_expression, "(a", "1:3: expected ')', found end of input"),
    (parse_expression, "a)", "1:2: trailing input after expression"),
    (parse_expression, "a < b < c", "1:7: trailing input after expression"),
    (parse_expression, "a ||",
     "1:5: expected an expression, found end of input"),
    (parse_expression, "a && || b",
     "1:6: expected an expression, found '||'"),
    (parse_expression, "a + * b", "1:5: expected an expression, found '*'"),
    (parse_expression, "f(a,)", "1:5: expected an expression, found ')'"),
    (parse_expression, "f(a b)", "1:5: expected ')', found 'b'"),
    (parse_expression, "f(",
     "1:3: expected an expression, found end of input"),
    (parse_expression, "a[1", "1:4: expected ']', found end of input"),
    (parse_expression, "a[1)", "1:4: expected ']', found ')'"),
    (parse_expression, "a[]", "1:3: expected an expression, found ']'"),
    (parse_expression, "-",
     "1:2: expected an expression, found end of input"),
    (parse_expression, "",
     "1:1: expected an expression, found end of input"),
    (parse_expression, "1 2", "1:3: trailing input after expression"),
    (parse_expression, "(" * DEEP + "1" + ")" * DEEP,
     "1:65: nesting deeper than 64 levels"),
    (parse_expression, " + ".join(["1"] * DEEP),
     "1:278: nesting deeper than 64 levels"),
]


@pytest.mark.parametrize("parse, text, message", MALFORMED,
                         ids=[f"{p.__name__[6:]}:{t[:40]!r}"
                              for p, t, _ in MALFORMED])
def test_malformed_input_names_its_message_line_and_column(parse, text,
                                                           message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"parse error at {message}"


LEXED = [
    # a word starts with a letter or '_' and goes on with letters and digits
    ("fn _f(_a, é, x٢)",
     [("fn", "fn", 1, 1), ("ident", "_f", 1, 4), ("(", "(", 1, 6),
      ("ident", "_a", 1, 7), (",", ",", 1, 9), ("ident", "é", 1, 11),
      (",", ",", 1, 12), ("ident", "x٢", 1, 14), (")", ")", 1, 16),
      ("eof", None, 1, 17)]),
    # tabs and carriage returns are one column each; a comment ends a line
    ("x\t<=\r9 # c <= 1\n  _ ||# d",
     [("ident", "x", 1, 1), ("<=", "<=", 1, 3), ("int", 9, 1, 6),
      ("ident", "_", 2, 3), ("||", "||", 2, 5), ("eof", None, 2, 7)]),
    # an integer is ASCII digits only, and a word may follow it at once
    ("007ab", [("int", 7, 1, 1), ("ident", "ab", 1, 4), ("eof", None, 1, 6)]),
    ("a  \n", [("ident", "a", 1, 1), ("eof", None, 2, 1)]),
    ("a  ", [("ident", "a", 1, 1), ("eof", None, 1, 4)]),
]


@pytest.mark.parametrize("text, tokens", LEXED,
                         ids=[repr(text) for text, _ in LEXED])
def test_the_lexer_names_each_tokens_kind_value_line_and_column(text,
                                                                 tokens):
    assert tokenize(text) == tokens


# the pieces random lexer input is made of: every token kind, blanks,
# comments, and what the lexer refuses: an integer past the range and
# characters, some of them word characters
_PIECES = ("fn", "if", "else", "while", "return", "len", "x", "_a", "é",
           "x٢", "n_1", "0", "42", "9223372036854775807", "||", "&&", "<",
           "<=", ">", ">=", "==", "!=", "=", "+", "-", "*", "/", "%", "(",
           ")", "{", "}", "[", "]", ",", ";", " ", " ", "\t", "\r", "\n",
           "\n", "# c", "#")
_REFUSED = ("99999999999999999999", "٢", "²", "\x0c", "\x00", "@", "!", "&",
            "|", "\u0301")


def _random_text(rng):
    pieces = []
    for _ in range(rng.randrange(25)):
        table = _REFUSED if rng.random() < 0.01 else _PIECES
        pieces.append(rng.choice(table))
    return "".join(pieces)


def test_tokens_and_lexer_messages_match_their_digest():
    lines = []
    rng = random.Random(17)
    for _ in range(4000):
        try:
            lines.append(repr(tokenize(_random_text(rng))))
        except ParseError as err:
            # "parse error at LINE:COL: ...", with its position repeated
            position = str(err).split()[3].rstrip(":")
            lines.append(f"{err} {position}")
    assert sum(line.startswith("parse error") for line in lines) == 374
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == \
        "0e003352a1e2db177e43e42d67d86998df116d344a644717aa9afad1ed3b0699"


_LEAVES = ("0", "7", "x", "y", "n_1", "9223372036854775807")
_BINARY = ("||", "&&", "<", "<=", ">", ">=", "==", "!=",
           "+", "-", "*", "/", "%")


def _random_expression(rng, depth=0):
    """Text of a random expression, unparenthesised chains included, so
    the tree depends on precedence; a chain of comparisons is malformed."""
    pick = rng.random()
    if depth > 4 or pick < 0.3:
        return rng.choice(_LEAVES)
    inner = _random_expression(rng, depth + 1)
    if pick < 0.4:
        return f"-{inner}"
    if pick < 0.5:
        return f"({inner})"
    if pick < 0.58:
        return f"a[{inner}]"
    if pick < 0.66:
        args = [inner] + [_random_expression(rng, depth + 1)
                          for _ in range(rng.randrange(3))]
        return f"f({', '.join(args[:rng.randrange(len(args) + 1)])})"
    return f"{inner} {rng.choice(_BINARY)} " \
           f"{_random_expression(rng, depth + 1)}"


def _outcome(parse, printer, text):
    try:
        tree = parse(text)
    except ParseError as err:
        return str(err)
    return f"{tree!r}\n{printer(tree)}"


def test_trees_and_messages_match_their_digest():
    lines = []
    for bug in sorted(CORPUS.iterdir()):
        for name in ("bug.toy", "fixed.toy"):
            text = (bug / name).read_text(encoding="utf-8")
            lines.append(_outcome(parse_program, print_program, text))
    rng = random.Random(12)
    for _ in range(3000):
        text = _random_expression(rng)
        if rng.random() < 0.1:  # drop one character
            cut = rng.randrange(len(text))
            text = text[:cut] + text[cut + 1:]
        lines.append(_outcome(parse_expression, print_expr, text))
    assert len(lines) == 3024
    assert sum(line.startswith("parse error") for line in lines) == 666
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == \
        "23dc713afdd68cddaea0019a149efcf72f92e742dbaae21071cbe60a4ec61880"
