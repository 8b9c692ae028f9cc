"""Lexer, parser, AST, and pretty-printer for the toy imperative language.

Programs are lists of integer functions:

    fn mid(x, y, z) {
      m = z;
      if (y < z) { ... } else { ... }
      return m;
    }

Statements: assignment, array element write, if/else, while, return, and
bare blocks.  Expressions: integer literals, variables, array reads, unary
minus, binary arithmetic / comparison / logical operators, and calls.  The
only builtin is len(a) for array parameters.  A '#' starts a line comment.

Nodes are slotted values (`_Node`): each type's constructor takes its
fields positionally, in the order its `_fields` tuple lists them, and
equality, hashing and repr read those fields alone.  No type writes its
constructor by hand: `_init` writes and compiles each one at import, from
the field and cache names the class spells out.  Every statement node
carries a small integer id (sid) assigned in pre-order during parsing;
mutation edits address statements through these ids.

`_LEVELS` holds the binary operators' precedence, the one statement of it:
the parser reads one level of the table at a time, and the printer's
precedences and the lexer's symbols are derived from it.  The lexer's
tokens are those symbols (the operators of `_LEVELS` and the punctuation
`=(){}[],;`), integers of the digits 0-9, the keywords, and identifiers:
a letter or '_' and then letters, digits and '_', Unicode ones included.
Spaces, tabs and carriage returns between tokens are skipped, and each is
one column.
"""

from __future__ import annotations

import itertools
import re

KEYWORDS = ("fn", "if", "else", "while", "return")
BUILTIN_LEN = "len"

CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
# the binary operators' precedence levels, loosest first
_LEVELS = (("||",), ("&&",), CMP_OPS, ("+", "-"), ("*", "/", "%"))

# Deepest nesting of blocks and expressions the parser accepts; deeper
# input is a ParseError rather than a RecursionError.
MAX_NESTING = 64
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"

# the signed 64-bit range of every toy int (literal, test value, result)
INT_MIN, INT_MAX = -2 ** 63, 2 ** 63 - 1


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"parse error at {line}:{col}: {msg}")


# ------------------------------------------------------------------ AST


class _Node:
    """Base of the node types.  A node is a value: its constructor, which
    `_init` writes from the type's `_fields` and `__slots__`, sets the
    fields in order, and nothing changes them after (a guard on setting
    would make every build slow again).  So a node equals only a node of
    its own type whose fields are equal in order, and it hashes as the
    tuple of its fields.  A slot that `_fields` leaves out is a cache:
    the constructor sets it to None, and equality, hash and repr ignore
    it."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _init(name, fields, slots):
    """The constructor of node type name: it takes fields positionally,
    in order, and sets every other slot to None.  Its source is written
    out and compiled once, as `collections.namedtuple` does, so a build
    runs the straight-line code a hand-written constructor would.  It is
    defined in a class of the type's name and compiled under the file
    name `<name.__init__>`, so an error and a profile name the type."""
    sets = [f"self.{slot} = {slot if slot in fields else None}"
            for slot in slots]
    source = (f"class {name}:\n"
              f" def __init__(self, {', '.join(fields)}): {'; '.join(sets)}")
    namespace = {"__name__": __name__}
    exec(compile(source, f"<{name}.__init__>", "exec"), namespace)
    return namespace[name].__init__


# A node never changes, so what depends on its subtree alone is worked out
# once and kept in a slot of the node, where a constructor leaves None:
# `height` keeps its height in `_height`, from its children's, `loop_names`
# a statement's names in `_names`, from its children's, and `compiled` the
# interpreter's code for it in `_code`.  A leaf's height is a class
# attribute, and a leaf keeps no code.  A `Function` keeps its statements,
# its condition texts and the ids of its followed statements the same way,
# for the mutation sites that read them at every target.


class Num(_Node):
    __slots__ = _fields = ("value",)
    __init__ = _init(__qualname__, _fields, __slots__)
    _height = 1     # nothing inside it


class Var(_Node):
    __slots__ = _fields = ("name",)
    __init__ = _init(__qualname__, _fields, __slots__)
    _height = 1


class Index(_Node):
    _fields = ("name", "index")
    __slots__ = _fields + ("_height", "_code")
    __init__ = _init(__qualname__, _fields, __slots__)


class Unary(_Node):
    _fields = ("operand",)  # unary minus is the only prefix operator
    __slots__ = _fields + ("_height", "_code")
    __init__ = _init(__qualname__, _fields, __slots__)


class Binary(_Node):
    _fields = ("op", "left", "right")
    __slots__ = _fields + ("_height", "_code")
    __init__ = _init(__qualname__, _fields, __slots__)


class Call(_Node):
    _fields = ("name", "args")
    __slots__ = _fields + ("_height", "_code")
    __init__ = _init(__qualname__, _fields, __slots__)


class Assign(_Node):
    _fields = ("sid", "name", "expr")
    __slots__ = _fields + ("_height", "_code", "_names")
    __init__ = _init(__qualname__, _fields, __slots__)


class Store(_Node):
    _fields = ("sid", "name", "index", "expr")
    __slots__ = _fields + ("_height", "_code", "_names")
    __init__ = _init(__qualname__, _fields, __slots__)


class If(_Node):
    # orelse is the empty tuple when there is no else branch
    _fields = ("sid", "cond", "then", "orelse")
    __slots__ = _fields + ("_height", "_code", "_names")
    __init__ = _init(__qualname__, _fields, __slots__)


class While(_Node):
    _fields = ("sid", "cond", "body")
    __slots__ = _fields + ("_height", "_code", "_names")
    __init__ = _init(__qualname__, _fields, __slots__)


class Return(_Node):
    _fields = ("sid", "expr")
    __slots__ = _fields + ("_height", "_code", "_names")
    __init__ = _init(__qualname__, _fields, __slots__)


class Block(_Node):
    _fields = ("sid", "body")
    __slots__ = _fields + ("_height", "_code", "_names")
    __init__ = _init(__qualname__, _fields, __slots__)


# The shape of the tree: which fields of each node type hold nodes, in
# source order.  An expression field holds one expression and a body field
# a tuple of statements; the one other field that holds nodes is
# Call.args, a tuple of expressions addressed by position.  Every walker
# and rebuilder reads these tables, so a node type's children are listed
# here and nowhere else.
EXPR_FIELDS = {
    Num: (), Var: (), Index: ("index",), Unary: ("operand",),
    Binary: ("left", "right"), Call: (),
    Assign: ("expr",), Store: ("index", "expr"), If: ("cond",),
    While: ("cond",), Return: ("expr",), Block: (),
}
BODY_FIELDS = {Assign: (), Store: (), If: ("then", "orelse"),
               While: ("body",), Return: (), Block: ("body",)}


def children(node) -> tuple:
    """The statements and expressions directly inside node, in source
    order: expression fields, then Call arguments or body statements."""
    t = type(node)
    if t is Call:
        return node.args
    parts = ()
    for name in EXPR_FIELDS[t]:
        parts += (getattr(node, name),)
    for name in BODY_FIELDS.get(t, ()):
        parts += getattr(node, name)
    return parts


def walk(node):
    """Yield node and every node inside it, pre-order, in source order."""
    yield node
    for part in children(node):
        yield from walk(part)


def height(nodes) -> int:
    """Most levels of statements and expressions from any of nodes down.
    It recurses, one frame per level, only into nodes not measured yet.

    Every node is one level, and a statement's empty body one more, so a
    statement's height is never below the nesting the parser counts for
    its text: each block or operand the parser descends into has a level
    of its own here.  The parser also measures every statement it reads
    with height, which counts the operators of a chain too."""
    most = 0
    for node in nodes:
        levels = node._height
        if levels is None:
            levels = 1 + height(children(node))
            if levels == 1 and BODY_FIELDS.get(type(node)):
                levels = 2      # `{ }`
            node._height = levels
        if levels > most:
            most = levels
    return most


def _self_update_delta(stmt: Assign):
    """`e` when stmt is `v = v + e`, `v = v - e` or `v = e + v`, else None."""
    expr = stmt.expr
    if type(expr) is not Binary or expr.op not in ("+", "-"):
        return None
    if type(expr.left) is Var and expr.left.name == stmt.name:
        return expr.right
    if expr.op == "+" and type(expr.right) is Var \
            and expr.right.name == stmt.name:
        return expr.left
    return None


def _add_names(expr, names: set) -> None:
    """Add the variables and arrays that expr reads to names."""
    todo = [expr]
    while todo:
        node = todo.pop()
        t = type(node)
        if t is Var:
            names.add(node.name)
        elif t is not Num:
            if t is Index:
                names.add(node.name)
            todo.extend(children(node))


_NO_NAMES = frozenset()


def loop_names(stmt) -> tuple:
    """(only, other): the names that stmt, nested statements included,
    uses only as the target of a self-update `v = v + e`, `v = v - e` or
    `v = e + v`, and the names it uses in any other way, a read inside a
    delta `e` included; a callee is not a name.

    The names self-updated and the names used otherwise are each a union
    over the subtree, so a statement's names combine those of the
    statements directly inside it, which it asks for here: it recurses,
    one frame per level, only into statements not asked about before.
    A statement with no name of a kind shares one empty set."""
    names = stmt._names
    if names is not None:
        return names
    only, other = set(), set()
    t = type(stmt)
    delta = _self_update_delta(stmt) if t is Assign else None
    if delta is not None:
        only.add(stmt.name)
        _add_names(delta, other)
    else:
        if t is Assign or t is Store:
            other.add(stmt.name)
        for name in EXPR_FIELDS[t]:
            _add_names(getattr(stmt, name), other)
        for name in BODY_FIELDS[t]:
            for inner in getattr(stmt, name):
                inner_only, inner_other = loop_names(inner)
                only |= inner_only
                other |= inner_other
    names = stmt._names = (frozenset(only - other) or _NO_NAMES,
                           frozenset(other) or _NO_NAMES)
    return names


def compiled(node, compile):
    """node's code: compile(node) on the first ask, kept in node's `_code`
    slot for every later one.  The interpreter compiles a node from its
    subtree alone, so every program that holds the node can run the code
    it keeps.  A compile that raises keeps nothing."""
    code = node._code
    if code is None:
        code = node._code = compile(node)
    return code


class Function(_Node):
    _fields = ("name", "params", "body")
    # what `statements`, `conditions` and `followed` answer, each kept on
    # the node as a node's height is, and the interpreter's code for the
    # function (`compiled`)
    __slots__ = _fields + ("_statements", "_conditions", "_followed",
                           "_code")
    __init__ = _init(__qualname__, _fields, __slots__)

    def statements(self) -> tuple:
        """Every statement of the body, pre-order, nested ones included."""
        if self._statements is None:
            self._statements = tuple(walk_statements(self.body))
        return self._statements

    def conditions(self) -> tuple:
        """The printed text of every if and while condition and of each
        of its `&&`/`||` operands, nested ones included, each once, in
        pre-order."""
        if self._conditions is None:
            texts = []
            for stmt in self.statements():
                if type(stmt) is If or type(stmt) is While:
                    parts = [stmt.cond]
                    while parts:
                        part = parts.pop()
                        texts.append(print_expr(part))
                        if type(part) is Binary and part.op in ("&&", "||"):
                            parts += part.right, part.left
            self._conditions = tuple(dict.fromkeys(texts))
        return self._conditions

    def followed(self) -> frozenset:
        """Ids of the statements that another statement follows in their
        statement list: the body or a statement's body field."""
        if self._followed is None:
            holders = [self.body] + [getattr(stmt, field)
                                     for stmt in self.statements()
                                     for field in BODY_FIELDS[type(stmt)]]
            self._followed = frozenset(stmt.sid for holder in holders
                                       for stmt in holder[:-1])
        return self._followed


class Program(_Node):
    # functions: of Function, in source order; next_sid: the first id free
    # for inserted statements
    __slots__ = _fields = ("functions", "next_sid")
    __init__ = _init(__qualname__, _fields, __slots__)

    def function(self, name: str) -> Function | None:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


def walk_statements(body):
    """Yield every statement in a body, pre-order, including nested ones."""
    for stmt in body:
        yield stmt
        for name in BODY_FIELDS[type(stmt)]:
            yield from walk_statements(getattr(stmt, name))


def program_statements(program: Program):
    """Yield (owner function, statement) for every statement, pre-order."""
    for fn in program.functions:
        for stmt in fn.statements():
            yield fn, stmt


def same_shape(a, b) -> bool:
    """Structural equality that ignores statement ids."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same_shape(x, y) for x, y in zip(a, b))
    if isinstance(a, _Node):
        return all(same_shape(getattr(a, name), getattr(b, name))
                   for name in a._fields if name not in ("sid", "next_sid"))
    return a == b


def read_int(text: str) -> int:
    """The int that text, an optional '-' and the digits 0-9, spells;
    ValueError if it is not that or lies outside [INT_MIN, INT_MAX]."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    # 20 digits are past the range already, and int() reads at most 4,300
    value = int(digits.lstrip("0")[:20] or "0")
    value = -value if text.startswith("-") else value
    if not INT_MIN <= value <= INT_MAX:
        raise ValueError("integer outside the signed 64-bit range")
    return value


# ---------------------------------------------------------------- lexer


# the lexer's symbols, longest first so that `<=` is one token, not two
_SYMBOLS = sorted({op for level in _LEVELS for op in level} | set("=(){}[],;"),
                  key=lambda symbol: (-len(symbol), symbol))
# one token after blanks, or the end of a line's code: its end or a '#';
# `word` also takes any single character nothing before it did
_TOKEN = re.compile(r"[ \t\r]*(?:(?P<int>[0-9]+)|(?P<symbol>"
                    + "|".join(map(re.escape, _SYMBOLS))
                    + r")|(?P<end>#|$)|(?P<word>\w+|.))")


def tokenize(text: str):
    tokens = []
    for line, source in enumerate(text.split("\n"), 1):
        for match in _TOKEN.finditer(source):
            kind = match.lastgroup
            value, col = match[kind], match.start(kind) + 1
            if kind == "end":
                break
            if kind == "int":
                try:
                    value = read_int(value)
                except ValueError:
                    raise ParseError("integer literal out of range",
                                     line, col) from None
            elif kind == "symbol":
                kind = value
            elif value[0].isalpha() or value[0] == "_":
                kind = value if value in KEYWORDS else "ident"
            else:
                raise ParseError(f"unexpected character {value[0]!r}",
                                 line, col)
            tokens.append((kind, value, line, col))
    tokens.append(("eof", None, line, col))
    return tokens


# --------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.sids = itertools.count()
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            self.expected(repr(kind), tok)
        return tok

    def expected(self, what, tok):
        found = "end of input" if tok[0] == "eof" else repr(tok[1])
        self.fail(f"expected {what}, found {found}", tok)

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok[2], tok[3])

    def descend(self):
        """Enter one nesting level; the caller leaves it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(_TOO_DEEP)

    def comma_list(self, item) -> tuple:
        """'(' and the comma-separated items that item() reads; the caller
        expects the closing ')'."""
        self.expect("(")
        items = []
        if self.peek()[0] != ")":
            items.append(item())
            while self.peek()[0] == ",":
                self.next()
                items.append(item())
        return tuple(items)

    def bracketed(self, opening, closing):
        """The expression between an opening and a closing bracket."""
        self.expect(opening)
        expr = self.expression()
        self.expect(closing)
        return expr

    # declarations

    def program(self) -> Program:
        functions = []
        seen = set()
        while self.peek()[0] != "eof":
            fn = self.function()
            if fn.name in seen:
                self.fail(f"duplicate function {fn.name!r}")
            seen.add(fn.name)
            functions.append(fn)
        if not functions:
            self.fail("empty program")
        return Program(tuple(functions), next(self.sids))

    def function(self) -> Function:
        self.expect("fn")
        name_tok = self.expect("ident")
        name = name_tok[1]
        if name == BUILTIN_LEN:
            self.fail(f"{BUILTIN_LEN!r} is reserved", name_tok)
        params = self.comma_list(lambda: self.expect("ident")[1])
        if len(set(params)) != len(params):
            self.fail(f"duplicate parameter in {name!r}", name_tok)
        self.expect(")")
        return Function(name, params, self.block_body())

    # statements

    def block_body(self) -> tuple:
        self.expect("{")
        self.descend()
        body = []
        while self.peek()[0] not in ("}", "eof"):
            start = self.peek()
            stmt = self.statement()
            # depth counts blocks, operands and parentheses but not the
            # level each chain operator adds, so measure the tree as
            # apply_edit does (the function's own statements at depth 0)
            if self.depth - 1 + height((stmt,)) > MAX_NESTING:
                self.fail(_TOO_DEEP, start)
            body.append(stmt)
        self.expect("}")
        self.depth -= 1
        return tuple(body)

    def statement(self):
        tok = self.peek()
        kind = tok[0]
        if kind not in ("if", "while", "return", "{", "ident"):
            self.fail("expected a statement")
        sid = next(self.sids)
        if kind == "{":
            return Block(sid, self.block_body())
        self.next()
        if kind == "if":
            cond = self.bracketed("(", ")")
            then = self.block_body()
            orelse = ()
            if self.peek()[0] == "else":
                self.next()
                orelse = self.block_body()
            return If(sid, cond, then, orelse)
        if kind == "while":
            return While(sid, self.bracketed("(", ")"), self.block_body())
        if kind == "return":
            stmt = Return(sid, self.expression())
        elif self.peek()[0] == "[":
            index = self.bracketed("[", "]")
            self.expect("=")
            stmt = Store(sid, tok[1], index, self.expression())
        else:
            self.expect("=")
            stmt = Assign(sid, tok[1], self.expression())
        self.expect(";")
        return stmt

    # expressions

    def expression(self, level=0):
        """An expression whose operators bind at least as tightly as
        _LEVELS[level]'s: a left-associative chain of them, or past the
        table's end a unary minus or an atom.  A comparison takes no
        second comparison."""
        if level == len(_LEVELS):
            # every nested expression (operand, parenthesis, argument,
            # index) passes through here
            self.descend()
            if self.peek()[0] == "-":
                self.next()
                expr = Unary(self.expression(level))
            else:
                expr = self.atom()
            self.depth -= 1
            return expr
        ops = _LEVELS[level]
        left = self.expression(level + 1)
        while self.peek()[0] in ops:
            op = self.next()[0]
            left = Binary(op, left, self.expression(level + 1))
            # keep the chain's height as it grows, so that measuring it
            # later recurses only through the levels descended into
            height((left,))
            if ops is CMP_OPS:
                break
        return left

    def atom(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "(":
            return self.bracketed("(", ")")
        self.next()
        if kind == "int":
            return Num(tok[1])
        if kind != "ident":
            self.expected("an expression", tok)
        after = self.peek()[0]
        if after == "(":
            args = self.comma_list(self.expression)
            self.expect(")")
            return Call(tok[1], args)
        if after == "[":
            return Index(tok[1], self.bracketed("[", "]"))
        return Var(tok[1])


def parse_program(text: str) -> Program:
    return _Parser(text).program()


def parse_expression(text: str):
    parser = _Parser(text)
    expr = parser.expression()
    if parser.peek()[0] != "eof":
        parser.fail("trailing input after expression")
    if height((expr,)) > MAX_NESTING:
        parser.fail(_TOO_DEEP)
    return expr


# -------------------------------------------------------- pretty-printer


_PRECEDENCE = {op: prec for prec, ops in enumerate(_LEVELS, 1) for op in ops}


def print_expr(expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Index):
        return f"{expr.name}[{print_expr(expr.index)}]"
    if isinstance(expr, Unary):
        return f"-{print_expr(expr.operand, len(_LEVELS) + 1)}"
    if isinstance(expr, Call):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Binary):
        prec = _PRECEDENCE[expr.op]
        # comparison is non-associative; "+-*/%" chains associate left
        inner = f"{print_expr(expr.left, prec - 1)} {expr.op} " \
                f"{print_expr(expr.right, prec)}"
        return f"({inner})" if prec <= parent_prec else inner
    raise TypeError(f"not an expression node: {expr!r}")


def _print_block(body, indent: int, out: list) -> None:
    pad = "  " * indent
    for stmt in body:
        if isinstance(stmt, Assign):
            out.append(f"{pad}{stmt.name} = {print_expr(stmt.expr)};")
        elif isinstance(stmt, Store):
            out.append(f"{pad}{stmt.name}[{print_expr(stmt.index)}] = "
                       f"{print_expr(stmt.expr)};")
        elif isinstance(stmt, Return):
            out.append(f"{pad}return {print_expr(stmt.expr)};")
        elif isinstance(stmt, If):
            out.append(f"{pad}if ({print_expr(stmt.cond)}) {{")
            _print_block(stmt.then, indent + 1, out)
            if stmt.orelse:
                out.append(f"{pad}}} else {{")
                _print_block(stmt.orelse, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(stmt, While):
            out.append(f"{pad}while ({print_expr(stmt.cond)}) {{")
            _print_block(stmt.body, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(stmt, Block):
            out.append(f"{pad}{{")
            _print_block(stmt.body, indent + 1, out)
            out.append(f"{pad}}}")
        else:
            raise TypeError(f"not a statement node: {stmt!r}")


def print_statement(stmt) -> str:
    """Render one statement (and anything nested in it) as flat text."""
    out = []
    _print_block((stmt,), 0, out)
    return "\n".join(out)


def print_program(program: Program) -> str:
    out = []
    for fn in program.functions:
        out.append(f"fn {fn.name}({', '.join(fn.params)}) {{")
        _print_block(fn.body, 1, out)
        out.append("}")
        out.append("")
    return "\n".join(out)
