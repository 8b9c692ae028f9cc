"""Parser, printer, and interpreter oracles for the toy language."""

import ast
import re
import time
from pathlib import Path

import pytest

from patchbandit.corpus import GATE_STEP_BUDGET
from patchbandit.toylang import interp
from patchbandit.toylang.interp import (run_tests, passes_all, ToyFault,
                                        compile_program, _Ctx)
from patchbandit.toylang.suite import SuiteFormatError, TestCase, parse_suite
from patchbandit.toylang.localize import NothingToRepair, localize
from patchbandit.toylang import syntax
from patchbandit.toylang.syntax import (BODY_FIELDS, EXPR_FIELDS,
                                        Block, Call, Function, If, Program,
                                        Return, Var, children, height, walk)
from patchbandit.toylang.syntax import (MAX_NESTING, Num, ParseError,
                                        parse_program, parse_expression,
                                        print_program, print_expr,
                                        print_statement, program_statements,
                                        same_shape)

README = Path(__file__).resolve().parent.parent / "README.md"

MID = """
fn mid(x, y, z) {
  m = z;
  if (y < z) {
    if (x < y) {
      m = y;
    } else {
      if (x < z) {
        m = x;
      }
    }
  } else {
    if (x > y) {
      m = y;
    } else {
      if (x > z) {
        m = x;
      }
    }
  }
  return m;
}
"""

BUDGET = 100_000

SUM = """
fn total(a, n) {
  s = 0;
  i = 0;
  while (i < n) {
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
"""


def run_entry(text, entry, args, budget=100_000):
    cp = compile_program(parse_program(text))
    ctx = _Ctx(budget, None, cp)
    return cp[entry].invoke([list(a) if isinstance(a, (list, tuple)) else a
                             for a in args], ctx)


def fault_kind(text, entry, args, budget=100_000):
    with pytest.raises(ToyFault) as err:
        run_entry(text, entry, args, budget)
    return err.value.kind


# ------------------------------------------------------------- parsing


def test_round_trip_is_identity_on_shape_and_text():
    for text in (MID, SUM):
        program = parse_program(text)
        printed = print_program(program)
        again = parse_program(printed)
        assert same_shape(program, again)
        assert print_program(again) == printed


def test_statement_ids_are_preorder_and_dense():
    program = parse_program(MID)
    sids = [stmt.sid for _, stmt in program_statements(program)]
    assert sids == sorted(sids)
    assert sids == list(range(len(sids)))
    assert program.next_sid == len(sids)


def test_printer_preserves_grouping_against_associativity():
    for text in ("a - (b - c)", "(a - b) - c", "a - b - c",
                 "(a + b) * c", "a + b * c", "-(a + b)", "--x",
                 "(a || b) && c", "a || (b && c)", "x < (y < z)"):
        expr = parse_expression(text)
        printed = print_expr(expr)
        assert same_shape(parse_expression(printed), expr), (text, printed)


def test_parse_errors_carry_line_and_column():
    # position points at the offending token: the '}' opening line 3
    with pytest.raises(ParseError, match=r"at 3:1"):
        parse_program("fn f() {\n  x = 1\n}")
    with pytest.raises(ParseError, match="duplicate function"):
        parse_program("fn f() { return 1; } fn f() { return 2; }")
    with pytest.raises(ParseError, match="duplicate parameter"):
        parse_program("fn f(a, a) { return 1; }")
    with pytest.raises(ParseError, match="reserved"):
        parse_program("fn len(a) { return 1; }")
    with pytest.raises(ParseError, match="empty program"):
        parse_program("   # nothing here\n")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_program("fn f() { x = 1 @ 2; }")


@pytest.mark.parametrize("literal, message", [
    ("\u00b2", "unexpected character"),             # a digit to str.isdigit
    ("9" * 5000, "integer literal out of range"),   # past int()'s digit limit
], ids=["superscript-two", "5000-digits"])
def test_literals_int_cannot_read_are_parse_errors(literal, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_program(f"fn f() {{\n  return {literal};\n}}")
    assert str(err.value).startswith("parse error at 2:10: ")


def test_nesting_past_the_limit_is_a_parse_error():
    # 400 parentheses overflow Python's stack without the limit
    deep = 400
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_expression("(" * deep + "1" + ")" * deep)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_expression("-" * deep + "1")
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_program("fn f() {" + "{" * deep + "}" * deep + "return 1; }")
    # each operator of a flat chain nests the tree one level deeper
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_expression(" + ".join(["1"] * deep))


def _chain_program(operands, op="+"):
    return ("fn f(x) { y = " + f" {op} ".join(["x"] * operands)
            + "; return y; }")


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "&&", "||"])
def test_flat_chain_at_the_limit_parses_and_one_more_does_not(op):
    # the assignment is one level and each operand one more, so 63
    # operands make a statement of height 64
    program = parse_program(_chain_program(MAX_NESTING - 1, op))
    assert height(program.functions[0].body) == MAX_NESTING
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_program(_chain_program(MAX_NESTING, op))


def test_long_flat_chain_is_a_parse_error_not_a_recursion_error():
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_program(_chain_program(1000))


def test_parenthesised_chains_count_their_tree_levels_once():
    # x - (x - (... - x)): every level is one Binary node, and printing
    # needs one pair of parentheses for each, so height 64 still parses
    nested = "x"
    for _ in range(MAX_NESTING - 2):
        nested = f"x - ({nested})"
    program = parse_program(f"fn f(x) {{ y = {nested}; return y; }}")
    body = program.functions[0].body
    assert height(body) == MAX_NESTING
    assert parse_program(print_program(program)) == program


def test_nesting_at_the_limit_parses():
    inner = MAX_NESTING - 1     # the outermost expression is a level too
    assert parse_expression("(" * inner + "7" + ")" * inner) == Num(7)
    with pytest.raises(ParseError):
        parse_expression("(" * MAX_NESTING + "7" + ")" * MAX_NESTING)


def test_comments_and_whitespace_are_ignored():
    text = "fn f() {  # comment\n  x = 1;  # trailing\n  return x;\n}"
    program = parse_program(text)
    assert run_entry(text, "f", []) == 1
    assert "comment" not in print_program(program)


# -------------------------------------------------------------- schema

# every node type, every field that holds nodes, every tuple non-empty
EVERY_SHAPE = """
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


def _is_node(value):
    return isinstance(value, tuple(EXPR_FIELDS))


def _items(value):
    return value if isinstance(value, tuple) else (value,)


def _node_fields(node):
    """The fields of node that hold a node or a tuple of them."""
    return [name for name in node._fields
            if _items(getattr(node, name))
            and all(map(_is_node, _items(getattr(node, name))))]


def _every_node(value):
    """Every node inside value, found through its fields alone."""
    for item in _items(value):
        if _is_node(item):
            yield item
        if isinstance(item, syntax._Node):
            for name in item._fields:
                yield from _every_node(getattr(item, name))


def test_shape_tables_list_every_field_that_holds_nodes():
    declared = {obj for obj in vars(syntax).values()
                if isinstance(obj, type) and issubclass(obj, syntax._Node)}
    assert declared - {syntax._Node, Function, Program} == set(EXPR_FIELDS)
    # the statement types are the node types that carry an id
    assert set(BODY_FIELDS) == {t for t in EXPR_FIELDS if "sid" in t._fields}
    seen = {}
    for node in _every_node(parse_program(EVERY_SHAPE)):
        fields = _node_fields(node)
        seen.setdefault(type(node), set()).update(fields)
        # children: the contents of those fields, in field order
        assert children(node) == tuple(
            part for name in fields for part in _items(getattr(node, name)))
    assert set(seen) == set(EXPR_FIELDS)
    for node_type, fields in seen.items():
        listed = set(EXPR_FIELDS[node_type])
        listed |= set(BODY_FIELDS.get(node_type, ()))
        listed |= {"args"} if node_type is Call else set()
        assert fields == listed, node_type.__name__


def test_walk_and_height_follow_the_tables():
    program = parse_program(EVERY_SHAPE)
    body = program.function("f").body
    assert [node for stmt in body for node in walk(stmt)] == \
        list(_every_node(body))
    # x = -n + a[0] * len(a): Assign, Binary(+), Binary(*), Call, Var a
    assert height(body[:1]) == 5
    # as deep: if > while > x = x - 1 > x - 1 > x
    assert height(body) == 5
    assert height(()) == 0


@pytest.mark.parametrize("ifs", [MAX_NESTING - 2, MAX_NESTING - 1])
def test_height_is_never_below_the_parsers_nesting(ifs):
    # ifs around an empty block, whose braces are a level to the parser
    stmt = Block(0, ())
    for sid in range(1, ifs + 1):
        stmt = If(sid, Var("x"), (stmt,), ())
    assert height([stmt]) == ifs + 2
    fn = Function("f", ("x",), (stmt, Return(ifs + 1, Var("x"))))
    text = print_program(Program((fn,), ifs + 2))
    if height([stmt]) <= MAX_NESTING:
        assert same_shape(parse_program(text).functions[0], fn)
    else:
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_program(text)


# ---------------------------------------------------------- evaluation


def test_arithmetic_and_precedence():
    assert run_entry("fn f() { return 1 + 2 * 3; }", "f", []) == 7
    assert run_entry("fn f() { return (1 + 2) * 3; }", "f", []) == 9
    assert run_entry("fn f() { return 10 - 2 - 3; }", "f", []) == 5
    assert run_entry("fn f() { return -3 * -4; }", "f", []) == 12


@pytest.mark.parametrize("a,b,q,r", [
    (7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1),
    (6, 3, 2, 0), (-6, 3, -2, 0),
])
def test_division_truncates_toward_zero(a, b, q, r):
    assert run_entry(f"fn f() {{ return {a} / {b}; }}".replace("--", "- -"),
                     "f", []) == q
    assert run_entry(f"fn f() {{ return {a} % {b}; }}".replace("--", "- -"),
                     "f", []) == r


def test_comparisons_and_logic_yield_zero_or_one():
    assert run_entry("fn f() { return (2 < 3) + (3 < 2); }", "f", []) == 1
    assert run_entry("fn f() { return 5 && 3; }", "f", []) == 1
    assert run_entry("fn f() { return 5 || 0; }", "f", []) == 1
    assert run_entry("fn f() { return 0 && 1; }", "f", []) == 0


# each comparison's value at (x, y) = (2, 3), (3, 3) and (4, 3)
COMPARISONS = {"<": (1, 0, 0), "<=": (1, 1, 0), ">": (0, 0, 1),
               ">=": (0, 1, 1), "==": (0, 1, 0), "!=": (1, 0, 1)}


@pytest.mark.parametrize("shape", ["x {} 3", "x {} y", "(x + 0) {} y"],
                         ids=["var-num", "var-var", "general"])
@pytest.mark.parametrize("op", syntax.CMP_OPS)
def test_each_comparison_shape_yields_the_int_one_or_zero(op, shape):
    # the int itself, not a bool: a stored comparison is an operand later
    expr = shape.format(op)
    for x, want in zip((2, 3, 4), COMPARISONS[op]):
        v = run_entry(f"fn f(x, y) {{ return {expr}; }}", "f", [x, 3])
        assert type(v) is int and v == want, (expr, x)
        assert run_entry(f"fn f(x, y) {{ z = {expr}; return z + 1; }}",
                         "f", [x, 3]) == want + 1


def test_logic_short_circuits_past_faulting_operand():
    assert run_entry("fn f() { return 0 && 1 / 0; }", "f", []) == 0
    assert run_entry("fn f() { return 1 || 1 / 0; }", "f", []) == 1


def test_while_loop_and_arrays():
    assert run_entry(SUM, "total", [[1, 2, 3, 4], 4]) == 10
    assert run_entry(SUM, "total", [[], 0]) == 0


def test_len_builtin():
    assert run_entry("fn f(a) { return len(a); }", "f", [[5, 6, 7]]) == 3
    assert fault_kind("fn f(x) { return len(x); }", "f", [3]) == "type"
    assert fault_kind("fn f(a) { return len(); }", "f", [[1]]) == "arity"


def test_arrays_pass_by_reference_between_functions():
    text = """
fn bump(a) {
  a[0] = a[0] + 10;
  return 0;
}
fn f(a) {
  t = bump(a);
  return a[0];
}
"""
    assert run_entry(text, "f", [[1, 2]]) == 11


def test_calls_and_recursion():
    fib = """
fn fib(n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
"""
    assert run_entry(fib, "fib", [10]) == 55


def test_a_bare_block_runs_its_statements_and_returns_their_return():
    text = "fn f() { x = 1; { x = x + 1; { return x; } } return 0; }"
    assert run_entry(text, "f", []) == 2


# -------------------------------------------------------------- faults


def test_runtime_fault_kinds():
    assert fault_kind("fn f() { return 1 / 0; }", "f", []) == "div-zero"
    assert fault_kind("fn f() { return 1 % 0; }", "f", []) == "div-zero"
    assert fault_kind("fn f(a) { return a[3]; }", "f", [[1, 2]]) == "index"
    assert fault_kind("fn f(a) { a[-1] = 0; return 0; }", "f", [[1]]) == "index"
    assert fault_kind("fn f(a) { a[0] = 1; return 0; }", "f", [5]) == "type"
    assert fault_kind("fn f() { b[0] = 1; return 0; }", "f", []) == \
        "undefined-variable"
    assert fault_kind("fn f(a) { return a[0]; }", "f", [5]) == "type"
    assert fault_kind("fn f() { return b[0]; }", "f", []) == "undefined-variable"
    assert fault_kind("fn f() { return x; }", "f", []) == "undefined-variable"
    assert fault_kind("fn f() { return g(); }", "f", []) == "unknown-function"
    assert fault_kind("fn g(x) { return x; } fn f() { return g(); }",
                      "f", []) == "arity"
    assert fault_kind("fn f() { x = 1; }", "f", []) == "missing-return"
    assert fault_kind("fn f(a) { return a + 1; }", "f", [[1]]) == "type"
    assert fault_kind("fn f(a) { return 1 == a; }", "f", [[1]]) == "type"
    assert fault_kind("fn f() { return f(); }", "f", []) == "depth"


def test_the_readme_lists_every_fault_kind():
    """README's list of kinds is the kinds `interp.py` raises (the string
    literals passed to `ToyFault`) plus `missing-entry`, which `_run`
    reports without raising."""
    tree = ast.parse(Path(interp.__file__).read_text(encoding="utf-8"))
    raised = {leaf.value for call in ast.walk(tree)
              if type(call) is ast.Call and type(call.func) is ast.Name
              and call.func.id == "ToyFault"
              for arg in call.args for leaf in ast.walk(arg)
              if type(leaf) is ast.Constant and type(leaf.value) is str}
    readme = README.read_text(encoding="utf-8")
    section = readme.split("### The toy language", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([a-z-]+)`: ", section, re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == raised | {"missing-entry"}


@pytest.mark.parametrize("budget", [48, 5000, 100_000])
def test_a_squaring_loop_faults_overflow_within_a_second(budget):
    squaring = "fn f(x) { while (1 < 2) { x = x * x; } return 0; }"
    started = time.perf_counter()
    assert fault_kind(squaring, "f", [3], budget=budget) == "overflow"
    assert time.perf_counter() - started < 1.0


def test_budget_exhaustion_on_growing_loop():
    grow = "fn f() { s = 0; while (1) { s = s + 1; } }"
    assert fault_kind(grow, "f", [], budget=500) == "budget"


def test_cycle_detection_beats_budget_on_frozen_loop():
    frozen = "fn f() { while (1) { } }"
    assert fault_kind(frozen, "f", [], budget=100_000) == "cycle"


def test_cycle_detection_spares_long_honest_loops():
    text = "fn f(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }"
    assert run_entry(text, "f", [500]) == 124750


def test_steps_count_statement_executions():
    text = "fn f() { x = 1; y = 2; return x + y; }"
    assert run_entry(text, "f", [], budget=3) == 3
    assert fault_kind(text, "f", [], budget=2) == "budget"


@pytest.mark.parametrize("stmt", ["y = a[5];", "a[5] = 1;", "return 1;",
                                  "if (1) { }", "while (0) { }", "{ }"])
def test_the_statement_past_the_budget_faults_before_it_runs(stmt):
    # had it run, it would fault `index`, return 1 or fall off the end
    program = parse_program(f"fn f(a) {{ x = 0; {stmt} }}")
    first = program.functions[0].body[0].sid
    report = run_tests(program, suite_of(("t", "f", ((0,),), 1)),
                       step_budget=1, coverage=True)
    assert (report.faults, report.coverage) == (["budget"], [{first}])


# counting loops that never repeat a snapshot: `f(n)` takes 2n + 3 steps
# (an assignment, n + 1 checks, n increments and the return), one more
# with the second assignment
COUNT = "fn f(n) { i = 0; while (i < n) { i = i + 1; } return i; }"
COUNT_PLUS_ONE = COUNT.replace("i = 0;", "j = 0; i = 0;")


@pytest.mark.parametrize("text, n, steps, passes", [
    (COUNT_PLUS_ONE, 49_998, 100_000, True),
    (COUNT, 49_999, 100_001, False),
], ids=["100000-steps", "100001-steps"])
def test_the_gate_step_budget_is_100000_steps(text, n, steps, passes):
    program, suite = parse_program(text), [TestCase("t", "f", (n,), n)]
    # the loop needs exactly `steps` steps
    assert run_tests(program, suite, step_budget=steps).flags == [True]
    assert run_tests(program, suite, step_budget=steps - 1).faults == \
        ["budget"]
    report = run_tests(program, suite, GATE_STEP_BUDGET)
    assert report.flags == [passes]
    assert report.faults == [None if passes else "budget"]
    assert passes_all(program, suite, GATE_STEP_BUDGET) is passes


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("check", [run_tests, passes_all, localize])
def test_a_step_budget_below_one_is_refused(check, budget):
    # a passing suite: a check that ran it would read the program as
    # failing every case on a budget too small for one step
    program, suite = parse_program(COUNT), [TestCase("t", "f", (1,), 1)]
    assert passes_all(program, suite, 1_000)
    with pytest.raises(ValueError, match="^step_budget must be positive$"):
        check(program, suite, budget)


# ----------------------------------------------------------- run_tests


def suite_of(*rows):
    return tuple(TestCase(*row) for row in rows)


def test_fitness_is_exact_fraction():
    suite = suite_of(
        ("t1", "total", ((1, 2, 3), 3), 6),
        ("t2", "total", ((5,), 1), 5),
        ("t3", "total", ((), 0), 99),     # wrong expectation: fails
        ("t4", "total", ((2, 2), 2), 0),  # wrong expectation: fails
    )
    report = run_tests(parse_program(SUM), suite, BUDGET)
    assert report.flags == [True, True, False, False]
    assert report.fitness == 0.5
    assert report.faults == [None, None, None, None]
    assert not all(report.flags)


def test_an_empty_suite_has_fitness_zero_and_passes():
    assert run_tests(parse_program(SUM), (), BUDGET) == ([], 0.0, [], None)
    assert passes_all(parse_program(SUM), (), BUDGET) is True


def test_missing_entry_zeroes_the_variant():
    suite = suite_of(("t1", "nope", (), 0))
    report = run_tests(parse_program(SUM), suite, BUDGET)
    assert report.fitness == 0.0
    assert report.flags == [False]
    assert report.faults == ["missing-entry"]
    # one missing entry fails every case, the ones that would pass included
    suite = suite_of(("t1", "total", ((1,), 1), 1), ("t2", "nope", (), 0))
    report = run_tests(parse_program(SUM), suite, BUDGET, coverage=True)
    assert report == ([False, False], 0.0, ["missing-entry"] * 2,
                      [set(), set()])
    assert passes_all(parse_program(SUM), suite, BUDGET) is False


def test_run_tests_is_deterministic():
    suite = suite_of(("t1", "total", ((1, 2), 2), 3),
                     ("t2", "total", ((4,), 1), 4))
    a = run_tests(parse_program(SUM), suite, BUDGET, coverage=True)
    b = run_tests(parse_program(SUM), suite, BUDGET, coverage=True)
    assert a.flags == b.flags and a.fitness == b.fitness
    assert a.coverage == b.coverage


def test_coverage_reflects_taken_branches():
    text = """
fn f(x) {
  r = 0;
  if (x > 0) {
    r = 1;
  } else {
    r = 2;
  }
  return r;
}
"""
    program = parse_program(text)
    stmts = {print_stmt(s): s.sid for _, s in program_statements(program)}
    report = run_tests(program, suite_of(("pos", "f", (5,), 1)), BUDGET,
                       coverage=True)
    cov = report.coverage[0]
    assert stmts["r = 1;"] in cov
    assert stmts["r = 2;"] not in cov


def test_coverage_holds_each_kind_of_statement_run():
    text = """
fn f(a) {
  a[0] = 1;
  {
    x = 0;
  }
  if (x < 1) {
    x = 1;
  }
  while (x < 2) {
    x = x + 1;
  }
  return x;
}
"""
    program = parse_program(text)
    report = run_tests(program, suite_of(("t", "f", ((0,),), 2)), BUDGET,
                       coverage=True)
    assert report.flags == [True]
    assert report.coverage == [{s.sid for _, s in program_statements(program)}]


def print_stmt(stmt):
    return print_statement(stmt)


def test_passes_all_short_circuits_same_verdict(monkeypatch):
    suite = suite_of(("t1", "total", ((1,), 1), 1),
                     ("t2", "total", ((2,), 1), 99))
    assert passes_all(parse_program(SUM), suite, BUDGET) is False
    good = suite_of(("t1", "total", ((1,), 1), 1))
    assert passes_all(parse_program(SUM), good, BUDGET) is True

    # run_tests runs every case; passes_all stops after the first failure
    calls = []
    run_case = interp._run_case

    def counted(*args):
        calls.append(args[1].name)
        return run_case(*args)

    monkeypatch.setattr(interp, "_run_case", counted)
    suite = suite_of(("t1", "total", ((1,), 1), 1),
                     ("t2", "total", ((2,), 1), 99),
                     ("t3", "total", ((3,), 1), 3))
    assert run_tests(parse_program(SUM), suite, BUDGET).flags == \
        [True, False, True]
    assert calls == ["t1", "t2", "t3"]
    calls.clear()
    assert passes_all(parse_program(SUM), suite, BUDGET) is False
    assert calls == ["t1", "t2"]


# ------------------------------------------------------------ manifests


def test_manifest_round_trip():
    text = """
# repair suite
ordered   | mid | 1, 2, 3      | 2
array_sum | total | [1, 2, 3], 3 | 6
empty     | total | [], 0      | 0
nullary   | f   |               | 7
negative  | mid | -5, -1, -3   | -3
"""
    suite = parse_suite(text, "demo")
    assert len(suite) == 5
    cases = list(suite)
    assert cases[0] == TestCase("ordered", "mid", (1, 2, 3), 2)
    assert cases[1].args == ((1, 2, 3), 3)
    assert cases[2].args == ((), 0)
    assert cases[3].args == ()
    assert cases[4].expected == -3


def test_manifest_errors_name_the_line():
    with pytest.raises(SuiteFormatError, match="demo:2"):
        parse_suite("\nbad line\n", "demo")
    with pytest.raises(SuiteFormatError, match="not an integer"):
        parse_suite("t | f | 1.5 | 0", "demo")
    with pytest.raises(SuiteFormatError, match="duplicate test name"):
        parse_suite("t | f | 1 | 0\nt | f | 2 | 0", "demo")
    with pytest.raises(SuiteFormatError, match="no test cases"):
        parse_suite("# only comments\n", "demo")
    for row, message in (("t | f | 1], 2 | 0", "unbalanced ']'"),
                         ("t | f | [1, 2 | 0", "unbalanced '\\['"),
                         ("t | f | [1] 2 | 0", "malformed array"),
                         (" | f | 1 | 0", "empty test name or entry"),
                         ("t |  | 1 | 0", "empty test name or entry")):
        with pytest.raises(SuiteFormatError, match=f"^demo:1: {message}"):
            parse_suite(row, "demo")


@pytest.mark.parametrize("row", ["t | f | 1,,2 | 3", "t | f | , | 0",
                                 "t | f | 1, | 0"])
def test_an_empty_argument_between_commas_is_an_error(row):
    # as an empty array element is: `[1,,2]` fails the same way
    with pytest.raises(SuiteFormatError, match=r"^demo:1: not an integer: ''$"):
        parse_suite(row, "demo")


# ---------------------------------------------------------- localization


def test_weights_contrast_failing_and_passing_coverage():
    text = """
fn f(x) {
  r = 0;
  if (x > 0) {
    r = x + 1;
  } else {
    r = 0 - x;
  }
  return r;
}
"""
    # intended f: positive -> x (buggy branch adds 1), else -> -x
    program = parse_program(text)
    suite = suite_of(("pos", "f", (5,), 5),     # fails: hits then-branch
                     ("neg", "f", (-4,), 4))    # passes: hits else-branch
    result = localize(program, suite, BUDGET)
    by_text = {print_stmt(s): s.sid for _, s in program_statements(program)}
    weights = result.weights
    assert weights[by_text["r = x + 1;"]] == 1.0   # failing only
    assert weights[by_text["r = 0 - x;"]] == 0.0   # passing only
    assert weights[by_text["r = 0;"]] == 0.1       # both
    assert weights[by_text["return r;"]] == 0.1
    assert result.report.fitness == 0.5


def test_localize_raises_when_nothing_fails():
    suite = suite_of(("t1", "total", ((1, 2), 2), 3))
    with pytest.raises(NothingToRepair):
        localize(parse_program(SUM), suite, BUDGET)


def test_unexecuted_statements_get_zero_weight():
    text = """
fn f(x) {
  if (x > 100) {
    x = 0;
  }
  return x + 1;
}
"""
    program = parse_program(text)
    suite = suite_of(("t", "f", (1,), 1),)   # fails (returns 2), never enters if
    result = localize(program, suite, BUDGET)
    by_text = {print_stmt(s): s.sid for _, s in program_statements(program)}
    assert result.weights[by_text["x = 0;"]] == 0.0
