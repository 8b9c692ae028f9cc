"""Syntax nodes are values: equality, hashing and repr, pinned.

The search shares subtrees between programs and memoizes by value, the
gate compares programs with `same_shape`, and every repr below is hashed
into one digest, so any change to how a node compares, hashes or prints
shows here.
"""

import hashlib
import random

import pytest

from patchbandit.corpus import load_corpus
from patchbandit.toylang.mutate import (ALL_OPERATORS, InapplicableOperator,
                                        apply_edit, mint_edit)
from patchbandit.toylang.syntax import (Assign, Binary, Block, Call,
                                        Function, If, Index, Num, Program,
                                        Return, Store, Unary, Var, While,
                                        height, parse_program, print_program,
                                        program_statements, same_shape)

# every node type, every field that holds nodes, every tuple non-empty
EVERY_NODE = """
fn f(a, n) {
  x = -n + a[0] * len(a);
  a[x] = g(x, 1);
  if (x < n && n > 0) {
    { return x; }
  } else {
    while (x > 0) { x = x - 1; }
  }
  return 0;
}

fn g(p, q) {
  return p;
}
"""

# sha256 of the reprs, one a line: each corpus bug's buggy and fixed
# program, EVERY_NODE, and the mutants of `_mutants`
REPR_DIGEST = \
    "dbd36b62f4f4531ae52ee87a4dd0a7aec8ad402c8dcb70ca8124e92ce1ab120a"

MUTANTS_PER_OPERATOR = 2


def _mutants(bug):
    """Programs made by minting and applying edits of every operator on
    the buggy program, every statement weighted alike."""
    weights = {stmt.sid: 1.0 for _, stmt in program_statements(bug.program)}
    rng = random.Random(f"values:{bug.name}")
    for operator in ALL_OPERATORS:
        for _ in range(MUTANTS_PER_OPERATOR):
            try:
                edit = mint_edit(operator, bug.program, weights, rng)
            except InapplicableOperator:
                continue
            program, applied = apply_edit(bug.program, edit)
            if applied:
                yield program


def _reprs():
    for bug in load_corpus():
        yield repr(bug.program)
        yield repr(bug.fixed)
        yield from map(repr, _mutants(bug))
    yield repr(parse_program(EVERY_NODE))


def test_reprs_are_pinned():
    text = "\n".join(_reprs()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_DIGEST


def test_repr_names_the_type_and_each_field():
    assert repr(Num(1)) == "Num(value=1)"
    assert repr(Call("len", (Var("a"),))) == \
        "Call(name='len', args=(Var(name='a'),))"
    assert repr(If(3, Num(1), (Return(4, Num(0)),), ())) == \
        "If(sid=3, cond=Num(value=1), then=(Return(sid=4, " \
        "expr=Num(value=0)),), orelse=())"
    assert repr(Program((Function("f", ("x",), ()),), 2)) == \
        "Program(functions=(Function(name='f', params=('x',), body=()),), " \
        "next_sid=2)"


# (node type, the values of its fields in order) for every node type
ONE_OF_EACH = [
    (Num, (1,)), (Var, ("x",)), (Index, ("a", Num(0))), (Unary, (Num(1),)),
    (Binary, ("+", Num(1), Var("x"))), (Call, ("g", (Num(1),))),
    (Assign, (0, "x", Num(1))), (Store, (0, "a", Num(0), Num(1))),
    (If, (0, Num(1), (), ())), (While, (0, Num(1), ())),
    (Return, (0, Num(1))), (Block, (0, ())),
    (Function, ("f", ("x",), ())), (Program, ((), 0)),
]


@pytest.mark.parametrize("node_type, values", ONE_OF_EACH,
                         ids=lambda case: getattr(case, "__name__", ""))
def test_a_node_equals_only_a_node_of_its_type(node_type, values):
    node = node_type(*values)
    assert node == node_type(*values)
    assert not node != node_type(*values)
    # not the tuple of its values, nor anything that is not a node
    assert node != values
    assert node.__eq__(values) is NotImplemented
    assert node.__eq__(None) is NotImplemented
    assert node != None     # noqa: E711
    # hashed as the tuple of its values
    assert hash(node) == hash(values)


def test_equality_is_strict_about_types():
    assert Num(1) != 1
    assert 1 != Num(1)
    assert Num(1) != (1,)
    # one field each, equal values, different types
    assert Num("x") != Var("x")
    assert Var("x") != Num("x")
    assert Unary(Num(1)) != Num(Num(1))
    # the same fields in the same order, different types
    assert Return(0, ()) != Block(0, ())
    assert Block(0, ()) != Return(0, ())
    assert Num(1) == Num(1) and Num(1) != Num(2)
    # fields compare as the tuples of their values do
    assert Num(1) == Num(True)


def test_fields_compare_in_order():
    assert Binary("+", Num(1), Num(2)) != Binary("+", Num(2), Num(1))
    assert Assign(0, "x", Num(1)) != Assign(1, "x", Num(1))
    assert Program((), 0) != Program((), 1)


def test_equal_trees_hash_equal():
    first, second = parse_program(EVERY_NODE), parse_program(EVERY_NODE)
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    for (_, a), (_, b) in zip(program_statements(first),
                              program_statements(second)):
        assert a == b and hash(a) == hash(b)
    for bug in load_corpus():
        assert hash(bug.program) == \
            hash(parse_program(print_program(bug.program)))


def _fresh_tree():
    """A statement and a function built without the parser, so that no
    height or statement list is cached on them yet."""
    loop = While(1, Binary("<", Var("i"), Num(3)),
                 (Assign(2, "i", Binary("+", Var("i"), Num(1))),))
    return Function("f", ("i",), (loop, Return(3, Var("i"))))


def test_caches_stay_out_of_equality_hash_and_repr():
    cached, plain = _fresh_tree(), _fresh_tree()
    text, digest = repr(plain), hash(plain)
    assert height(cached.body) == 4
    assert [s.sid for s in cached.statements()] == [1, 2, 3]
    assert cached == plain and plain == cached
    assert repr(cached) == text == repr(plain)
    assert hash(cached) == digest
    # and a cache filled on one of two equal trees is not shared
    assert height(plain.body) == 4


def test_the_caches_are_kept_on_the_node():
    fn = _fresh_tree()
    assert fn.statements() is fn.statements()
    assert height(fn.body) == height(fn.body) == 4


def test_same_shape_ignores_only_statement_ids():
    program = parse_program(EVERY_NODE)
    renumbered = Program(tuple(_renumbered(fn) for fn in program.functions),
                         program.next_sid + 40)
    assert renumbered != program
    assert same_shape(renumbered, program)
    assert same_shape(Assign(0, "x", Num(1)), Assign(9, "x", Num(1)))
    assert same_shape(Program((), 0), Program((), 5))
    # every other field counts
    assert not same_shape(Assign(0, "x", Num(1)), Assign(0, "y", Num(1)))
    assert not same_shape(Assign(0, "x", Num(1)), Assign(0, "x", Num(2)))
    assert not same_shape(Binary("+", Num(1), Num(2)),
                          Binary("-", Num(1), Num(2)))
    assert not same_shape(Function("f", ("a",), ()),
                          Function("f", ("b",), ()))
    assert not same_shape(Function("f", (), ()), Function("g", (), ()))
    assert not same_shape(If(0, Num(1), (), ()),
                          If(0, Num(1), (), (Return(1, Num(0)),)))
    assert not same_shape(Call("g", (Num(1),)), Call("g", (Num(1), Num(2))))
    # and so does the type
    assert not same_shape(Return(0, ()), Block(0, ()))
    assert not same_shape(Num("x"), Var("x"))


def _renumbered(fn):
    """fn with every statement id moved up by 100."""
    def stmt(node):
        if isinstance(node, Assign):
            return Assign(node.sid + 100, node.name, node.expr)
        if isinstance(node, Store):
            return Store(node.sid + 100, node.name, node.index, node.expr)
        if isinstance(node, Return):
            return Return(node.sid + 100, node.expr)
        if isinstance(node, If):
            return If(node.sid + 100, node.cond, body(node.then),
                      body(node.orelse))
        if isinstance(node, While):
            return While(node.sid + 100, node.cond, body(node.body))
        return Block(node.sid + 100, body(node.body))

    def body(stmts):
        return tuple(map(stmt, stmts))
    return Function(fn.name, fn.params, body(fn.body))


@pytest.mark.parametrize("node_type, values", ONE_OF_EACH,
                         ids=lambda case: getattr(case, "__name__", ""))
def test_a_build_sets_the_fields_and_leaves_every_cache_empty(node_type,
                                                              values):
    node = node_type(*values)
    assert node == node_type(**dict(zip(node_type._fields, values)))
    assert tuple(getattr(node, name) for name in node_type._fields) == values
    for slot in node_type.__slots__:
        if slot not in node_type._fields:
            assert getattr(node, slot) is None, slot
    if node_type in (Num, Var):
        assert node._height == 1    # a leaf's, kept on its class
    # a wrong-arity build, and a profile, name the type
    assert node_type.__init__.__qualname__ == f"{node_type.__name__}.__init__"
    prefix = rf"^{node_type.__name__}\.__init__\(\) "
    with pytest.raises(TypeError, match=prefix + "missing"):
        node_type(*values[:-1])
    with pytest.raises(TypeError, match=prefix + "takes"):
        node_type(*values, None)
