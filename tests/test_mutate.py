"""Edit minting/application oracles for the mutation operators."""

import pickle
import random

import pytest

from patchbandit.corpus import load_corpus
from patchbandit.toylang.localize import localize
from patchbandit.toylang.mutate import (ALL_OPERATORS, COARSE_OPERATORS,
                                        Edit, InapplicableOperator,
                                        OPERATOR_GROUPS, _OPERATORS,
                                        _parse_payload_expr, apply_edit,
                                        apply_edits, enumerate_edits,
                                        mint_edit)
from patchbandit.toylang.interp import run_tests
from patchbandit.toylang.syntax import (MAX_NESTING, _Node, parse_expression,
                                        parse_program, print_program,
                                        print_statement, program_statements,
                                        same_shape, walk_statements)

DEMO = """
fn helper(x) {
  return x + 1;
}

fn other(x) {
  return x * 2;
}

fn main(a, n) {
  s = 0;
  i = 0;
  while (i < n) {
    s = s + a[i];
    i = i + 1;
  }
  if (s > 10 && n > 0) {
    s = helper(s);
  }
  return s;
}
"""


def demo():
    return parse_program(DEMO)


def all_weights(program, value=1.0):
    return {stmt.sid: value for _, stmt in program_statements(program)}


def sid_of(program, text):
    for _, stmt in program_statements(program):
        if print_statement(stmt).splitlines()[0] == text:
            return stmt.sid
    raise AssertionError(f"no statement printing as {text!r}")


def apply_ok(program, edit):
    out, applied = apply_edit(program, edit)
    assert applied, edit
    return out


def test_operator_inventory():
    assert len(ALL_OPERATORS) == 18
    assert len(set(ALL_OPERATORS)) == 18
    assert COARSE_OPERATORS == ("stmt_append", "stmt_delete", "stmt_replace")
    assert sorted(OPERATOR_GROUPS) == ["checks", "coarse", "func_expr",
                                       "init_cast", "multi_line"]
    sizes = {g: len(ops) for g, ops in OPERATOR_GROUPS.items()}
    assert sizes == {"coarse": 3, "func_expr": 4, "checks": 6,
                     "init_cast": 4, "multi_line": 1}
    assert "off_by_one" in OPERATOR_GROUPS["checks"]
    assert OPERATOR_GROUPS["multi_line"] == ("stmt_swap",)


def test_every_operator_has_one_record_in_group_order():
    # a record outside every group no arm scheme reaches; a group name
    # without a record would fail only when it is minted or enumerated
    assert list(_OPERATORS) == list(ALL_OPERATORS)


# ----------------------------------------------------------- coarse moves


def test_delete_shrinks_enclosing_body():
    program = parse_program("fn f(x) { y = x; return y; }")
    target = sid_of(program, "return y;")
    out = apply_ok(program, Edit("stmt_delete", target, (), ()))
    assert len(out.function("f").body) == 1
    assert "return y;" not in print_program(out)


def test_append_inserts_donor_copy_after_target():
    program = demo()
    target = sid_of(program, "s = 0;")
    donor = sid_of(program, "i = 0;")
    out = apply_ok(program, Edit("stmt_append", target, (), (donor,)))
    texts = [print_statement(s) for s in out.function("main").body[:3]]
    assert texts == ["s = 0;", "i = 0;", "i = 0;"]
    sids = [s.sid for _, s in program_statements(out)]
    assert len(sids) == len(set(sids))
    assert out.next_sid == program.next_sid + 1


def test_replace_substitutes_fresh_copy():
    program = demo()
    target = sid_of(program, "s = 0;")
    donor = sid_of(program, "i = 0;")
    out = apply_ok(program, Edit("stmt_replace", target, (), (donor,)))
    body = out.function("main").body
    assert print_statement(body[0]) == "i = 0;"
    assert body[0].sid == program.next_sid   # fresh id, donor untouched
    assert print_statement(body[1]) == "i = 0;"


def test_vanished_target_and_donor_are_noops():
    program = demo()
    target = sid_of(program, "s = s + a[i];")
    smaller = apply_ok(program, Edit("stmt_delete", target, (), ()))
    again, applied = apply_edit(smaller, Edit("stmt_delete", target, (), ()))
    assert not applied and again is smaller
    donor_gone, applied = apply_edit(
        smaller, Edit("stmt_append", sid_of(smaller, "s = 0;"), (), (target,)))
    assert not applied and donor_gone is smaller


def test_apply_never_mutates_input():
    program = demo()
    before = print_program(program)
    for edit in enumerate_edits(program, all_weights(program)):
        apply_edit(program, edit)
    assert print_program(program) == before


# ------------------------------------------------------------- templates


def test_guard_insert_wraps_in_nonzero_check():
    program = parse_program("fn f(a, b) { r = a / b; return r; }")
    target = sid_of(program, "r = a / b;")
    out = apply_ok(program, Edit("guard_insert", target, (), ("b",)))
    assert "if (b != 0) {" in print_program(out)
    wrapper = out.function("f").body[0]
    assert wrapper.then[0].sid == target   # wrapped statement keeps its id


def test_range_check_insert_bounds_the_index():
    program = parse_program("fn f(a, i) { return a[i]; }")
    target = sid_of(program, "return a[i];")
    out = apply_ok(program, Edit("range_check_insert", target, (), ("i", "a")))
    assert "if (i >= 0 && i < len(a)) {" in print_program(out)


def test_size_check_insert_guards_emptiness():
    program = parse_program("fn f(a) { return a[0]; }")
    target = sid_of(program, "return a[0];")
    out = apply_ok(program, Edit("size_check_insert", target, (), ("a",)))
    assert "if (len(a) > 0) {" in print_program(out)


def test_clamps_insert_before_target():
    program = parse_program("fn f(a, i) { return a[i]; }")
    target = sid_of(program, "return a[i];")
    low = apply_ok(program, Edit("lower_bound_clamp", target, (), ("i",)))
    body = low.function("f").body
    assert print_statement(body[0]) == "if (i < 0) {\n  i = 0;\n}"
    assert body[1].sid == target
    high = apply_ok(program, Edit("upper_bound_clamp", target, (),
                                  ("i", "a")))
    assert print_statement(high.function("f").body[0]) == \
        "if (i > len(a) - 1) {\n  i = len(a) - 1;\n}"


def test_off_by_one_rewrites_exactly_one_index():
    program = parse_program("fn f(a, i) { return a[i]; }")
    target = sid_of(program, "return a[i];")
    sites = [e for e in enumerate_edits(program, all_weights(program))
             if e.op == "off_by_one"]
    assert len(sites) == 2   # one index site, two deltas
    plus = apply_ok(program, Edit("off_by_one", target, ("expr", "index"),
                                  (1,)))
    minus = apply_ok(program, Edit("off_by_one", target, ("expr", "index"),
                                   (-1,)))
    assert "return a[i + 1];" in print_program(plus)
    assert "return a[i - 1];" in print_program(minus)


def test_off_by_one_covers_loop_bounds():
    program = parse_program(
        "fn f(n) { i = 0; while (i < n) { i = i + 1; } return i; }")
    target = sid_of(program, "while (i < n) {")
    out = apply_ok(program, Edit("off_by_one", target, ("cond", "right"),
                                 (1,)))
    assert "while (i < n + 1) {" in print_program(out)
    out = apply_ok(program, Edit("off_by_one", target, ("cond", "left"),
                                 (-1,)))
    assert "while (i - 1 < n) {" in print_program(out)


def test_store_index_is_an_off_by_one_site():
    program = parse_program("fn f(a, i) { a[i] = 7; return a[i]; }")
    target = sid_of(program, "a[i] = 7;")
    offered = [e for e in enumerate_edits(program, {target: 1.0})
               if e.op == "off_by_one"]
    assert offered == [Edit("off_by_one", target, ("index",), (delta,))
                       for delta in (1, -1)]
    out = apply_ok(program, Edit("off_by_one", target, ("index",), (1,)))
    assert "a[i + 1] = 7;" in print_program(out)


def test_const_perturb_shifts_literal():
    program = parse_program("fn f(x) { y = x + 2; return y; }")
    target = sid_of(program, "y = x + 2;")
    out = apply_ok(program, Edit("const_perturb", target,
                                 ("expr", "right"), (1,)))
    assert "y = x + 3;" in print_program(out)


def test_const_perturb_below_zero_prints_negative_literal():
    program = parse_program("fn f() { y = 0; return y; }")
    target = sid_of(program, "y = 0;")
    out = apply_ok(program, Edit("const_perturb", target, ("expr",), (-1,)))
    assert "y = -1;" in print_program(out)
    assert same_shape(parse_program(print_program(out)), out)


@pytest.mark.parametrize("literal, path, delta", [
    ("9223372036854775807", ("expr",), 1),
    ("9223372036854775806", ("expr",), 2),
    ("-9223372036854775807", ("expr", "operand"), 1),
    # -2^63 would print as the literal 2^63 under a minus
    ("0", ("expr",), -2 ** 63),
])
def test_const_perturb_past_the_int_range_is_a_no_op(literal, path, delta):
    program = parse_program(f"fn f() {{ y = {literal}; return y; }}")
    target = sid_of(program, f"y = {literal};")
    out, applied = apply_edit(program, Edit("const_perturb", target, path,
                                            (delta,)))
    assert (out, applied) == (program, False)


def test_const_perturb_to_the_ends_of_the_int_range_prints_back():
    program = parse_program("fn f() { y = 0; return y; }")
    target = sid_of(program, "y = 0;")
    for delta in (2 ** 63 - 1, 1 - 2 ** 63):
        out = apply_ok(program, Edit("const_perturb", target, ("expr",),
                                     (delta,)))
        assert same_shape(parse_program(print_program(out)), out)


def test_negate_condition_complements_comparisons():
    flips = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
             "==": "!=", "!=": "=="}
    for op, flipped in flips.items():
        program = parse_program(
            f"fn f(x) {{ if (x {op} 1) {{ return 1; }} return 0; }}")
        target = sid_of(program, f"if (x {op} 1) {{")
        out = apply_ok(program,
                       Edit("negate_condition", target, ("cond",), ()))
        assert f"if (x {flipped} 1) {{" in print_program(out)


def test_negate_condition_wraps_non_comparisons():
    program = parse_program("fn f(x) { while (x) { x = x - 1; } return x; }")
    target = sid_of(program, "while (x) {")
    out = apply_ok(program, Edit("negate_condition", target, ("cond",), ()))
    assert "while (x == 0) {" in print_program(out)


def test_var_init_insert_zeroes_before_target():
    program = parse_program("fn f(x) { r = r + x; return r; }")
    target = sid_of(program, "r = r + x;")
    out = apply_ok(program, Edit("var_init_insert", target, (), ("r",)))
    body = out.function("f").body
    assert print_statement(body[0]) == "r = 0;"
    assert body[1].sid == target


def test_default_return_insert_appends_to_function_end():
    program = demo()
    target = sid_of(program, "s = 0;")   # nested position is irrelevant
    out = apply_ok(program, Edit("default_return_insert", target, (), (1,)))
    assert print_statement(out.function("main").body[-1]) == "return 1;"
    assert len(out.function("main").body) == len(demo().function("main").body) + 1


def test_stmt_swap_exchanges_with_successor():
    program = demo()
    target = sid_of(program, "s = s + a[i];")
    out = apply_ok(program, Edit("stmt_swap", target, (), ()))
    loop = next(s for _, s in program_statements(out)
                if print_statement(s).startswith("while"))
    assert [print_statement(s) for s in loop.body] == \
        ["i = i + 1;", "s = s + a[i];"]
    last = sid_of(program, "return s;")
    _, applied = apply_edit(program, Edit("stmt_swap", last, (), ()))
    assert not applied


NESTED = """
fn f(x) {
  y = 0;
  if (x > 0) {
    y = 1;
  } else {
    y = 2;
    y = 3;
    {
      y = 4;
      y = 5;
    }
  }
  return y;
}
"""


def test_stmt_swap_inside_orelse_and_nested_block():
    program = parse_program(NESTED)
    out = apply_ok(program,
                   Edit("stmt_swap", sid_of(program, "y = 2;"), (), ()))
    orelse = out.function("f").body[1].orelse
    assert [print_statement(s) for s in orelse[:2]] == ["y = 3;", "y = 2;"]
    out = apply_ok(program,
                   Edit("stmt_swap", sid_of(program, "y = 4;"), (), ()))
    block = out.function("f").body[1].orelse[2]
    assert [print_statement(s) for s in block.body] == ["y = 5;", "y = 4;"]


def test_stmt_swap_on_last_nested_statement_is_a_noop():
    # each of these ends its own body while its enclosing statement does
    # not: the swap must not reach into the parent's list
    program = parse_program(NESTED)
    for text in ("y = 1;", "y = 5;"):
        out, applied = apply_edit(
            program, Edit("stmt_swap", sid_of(program, text), (), ()))
        assert not applied and out is program


def test_stmt_replace_takes_donors_across_nesting_levels():
    program = parse_program(NESTED)
    top, nested = sid_of(program, "y = 0;"), sid_of(program, "y = 4;")
    out = apply_ok(program, Edit("stmt_replace", top, (), (nested,)))
    assert print_statement(out.function("f").body[0]) == "y = 4;"
    assert out.function("f").body[0].sid == program.next_sid
    out = apply_ok(program, Edit("stmt_replace", nested, (), (top,)))
    block = out.function("f").body[1].orelse[2]
    assert [print_statement(s) for s in block.body] == ["y = 0;", "y = 5;"]


@pytest.mark.parametrize("bug", load_corpus(None), ids=lambda bug: bug.name)
def test_stmt_swap_is_offered_exactly_where_it_applies(bug):
    for program in (bug.program, bug.fixed):
        offered = {edit.target for edit in enumerate_edits(
            program, all_weights(program)) if edit.op == "stmt_swap"}
        for _, stmt in program_statements(program):
            _, applied = apply_edit(program,
                                    Edit("stmt_swap", stmt.sid, (), ()))
            assert applied == (stmt.sid in offered), print_statement(stmt)


def test_func_call_swap_respects_arity():
    program = demo()
    target = sid_of(program, "s = helper(s);")
    out = apply_ok(program, Edit("func_call_swap", target, ("expr",),
                                 ("other",)))
    assert "s = other(s);" in print_program(out)
    _, applied = apply_edit(program, Edit("func_call_swap", target,
                                          ("expr",), ("main",)))
    assert not applied   # main takes two arguments


def test_expr_replace_uses_sibling_conditions():
    program = demo()
    target = sid_of(program, "if (s > 10 && n > 0) {")
    options = {e.payload[0] for e in
               enumerate_edits(program, all_weights(program))
               if e.op == "expr_replace" and e.target == target}
    assert options == {"i < n", "s > 10", "n > 0"}
    out = apply_ok(program, Edit("expr_replace", target, ("cond",),
                                 ("i < n",)))
    assert "if (i < n) {" in print_program(out)


def test_expr_add_extends_condition_on_chosen_side():
    program = demo()
    target = sid_of(program, "while (i < n) {")
    out = apply_ok(program, Edit("expr_add", target, ("cond",),
                                 ("n > 0", "&&", "right")))
    assert "while (i < n && n > 0) {" in print_program(out)
    out = apply_ok(program, Edit("expr_add", target, ("cond",),
                                 ("s > 10", "||", "left")))
    assert "while (s > 10 || i < n) {" in print_program(out)


def test_expr_remove_keeps_one_operand():
    program = demo()
    target = sid_of(program, "if (s > 10 && n > 0) {")
    out = apply_ok(program, Edit("expr_remove", target, ("cond",), ("left",)))
    assert "if (s > 10) {" in print_program(out)
    out = apply_ok(program, Edit("expr_remove", target, ("cond",), ("right",)))
    assert "if (n > 0) {" in print_program(out)
    plain = sid_of(program, "while (i < n) {")
    _, applied = apply_edit(program, Edit("expr_remove", plain, ("cond",),
                                          ("left",)))
    assert not applied


@pytest.mark.parametrize("op, text, path, payload", [
    ("off_by_one", "s = s + a[i];", ("expr", "right", "index"), (5,)),
    ("off_by_one", "s = s + a[i];", ("expr", "right", "index"), (0,)),
    ("expr_add", "if (s > 10 && n > 0) {", ("cond",),
     ("n > 0", "&&", "middle")),
    ("expr_remove", "if (s > 10 && n > 0) {", ("cond",), ("middle",)),
    ("default_return_insert", "return s;", (), (2,)),
    ("negate_condition", "if (s > 10 && n > 0) {", (), ()),
], ids=["off_by_one+5", "off_by_one+0", "expr_add-middle",
        "expr_remove-middle", "default_return_insert-2",
        "negate_condition-empty-path"])
def test_a_payload_value_the_operator_never_mints_is_a_no_op(op, text, path,
                                                             payload):
    # off_by_one mints deltas 1 and -1, expr_add and expr_remove the sides
    # "left" and "right", default_return_insert the values 0 and 1, and an
    # expression operator a path to an expression; a patch file may hold
    # any value of those types, and it must not apply as some other edit
    # (an empty path would graft an expression where a statement belongs)
    program = demo()
    edit = Edit(op, sid_of(program, text), path, payload)
    assert apply_edit(program, edit) == (program, False)


# ---------------------------------------------------------------- minting


def test_forced_choice_targets_the_only_weighted_statement():
    program = demo()
    target = sid_of(program, "s = s + a[i];")
    edit = mint_edit("stmt_delete", program, {target: 1.0},
                     random.Random(3))
    assert edit == Edit("stmt_delete", target, (), ())


def test_mint_is_deterministic_given_seed():
    program = demo()
    weights = all_weights(program)
    for op in ALL_OPERATORS:
        first = mint_edit(op, program, weights, random.Random(99))
        second = mint_edit(op, program, weights, random.Random(99))
        assert first == second


def test_minted_edits_always_apply_to_their_origin():
    program = demo()
    weights = all_weights(program)
    rng = random.Random(17)
    for _ in range(300):
        op = ALL_OPERATORS[rng.randrange(len(ALL_OPERATORS))]
        edit = mint_edit(op, program, weights, rng)
        _, applied = apply_edit(program, edit)
        assert applied, edit


def test_targets_follow_suspiciousness_weights():
    program = demo()
    hot = sid_of(program, "s = 0;")
    cold = sid_of(program, "i = 0;")
    rng = random.Random(5)
    hits = sum(mint_edit("stmt_delete", program,
                         {hot: 1.0, cold: 0.1}, rng).target == hot
               for _ in range(5000))
    assert abs(hits / 5000 - 1.0 / 1.1) < 0.02


def test_inapplicable_operator_signals():
    program = parse_program("fn f(x) { return x; }")
    weights = all_weights(program)
    for op in ("range_check_insert", "size_check_insert", "off_by_one",
               "lower_bound_clamp", "upper_bound_clamp", "func_call_swap",
               "expr_replace", "const_perturb", "stmt_swap"):
        with pytest.raises(InapplicableOperator):
            mint_edit(op, program, weights, random.Random(0))


def test_zero_weight_statements_are_never_targeted():
    program = demo()
    target = sid_of(program, "return s;")
    weights = {sid: 0.0 for sid in all_weights(program)}
    weights[target] = 1.0
    rng = random.Random(7)
    for _ in range(50):
        assert mint_edit("stmt_delete", program, weights, rng).target == target


def test_a_lone_statement_has_no_donor_to_replace_it():
    # the other function's statement is no donor: donors share the target's
    # function
    program = parse_program("fn g() { return 1; }\nfn f(x) { return x; }")
    fn = program.function("f")
    sites = _OPERATORS["stmt_replace"].sites
    assert list(sites(program, fn, fn.body[0])) == []
    with pytest.raises(InapplicableOperator):
        mint_edit("stmt_replace", program, {fn.body[0].sid: 1.0},
                  random.Random(0))


# ------------------------------------------------------------- the sweep


def test_every_operator_has_a_site_on_the_demo_program():
    program = demo()
    ops = {e.op for e in enumerate_edits(program, all_weights(program))}
    assert ops == set(ALL_OPERATORS)


def test_enumeration_is_deterministic():
    program = demo()
    weights = all_weights(program)
    first = list(enumerate_edits(program, weights))
    second = list(enumerate_edits(program, weights))
    assert first == second
    assert len(first) == len(set(first))   # edits are hashable and distinct


def test_all_enumerated_edits_apply_and_round_trip():
    program = demo()
    for edit in enumerate_edits(program, all_weights(program)):
        out, applied = apply_edit(program, edit)
        assert applied, edit
        sids = [s.sid for _, s in program_statements(out)]
        assert len(sids) == len(set(sids)), edit
        assert all(sid < out.next_sid for sid in sids), edit
        reparsed = parse_program(print_program(out))
        assert same_shape(reparsed, out), edit


def test_apply_edits_reports_per_edit_flags():
    program = demo()
    target = sid_of(program, "i = 0;")
    edits = [Edit("stmt_delete", target, (), ()),
             Edit("stmt_delete", target, (), ()),          # now gone: no-op
             Edit("stmt_delete", sid_of(program, "s = 0;"), (), ())]
    out, flags = apply_edits(program, edits)
    assert flags == (True, False, True)
    assert "i = 0;" not in [print_statement(s) for s in
                            out.function("main").body]


# ------------------------------------------------------ malformed payloads

def _misfits(payload):
    yield payload + (1,)
    yield payload + ("x",)
    if payload:
        yield payload[:-1]
        # a float or bool where an int goes, a number where a string goes;
        # (1.0,) and (True,) compare equal to (1,), so only types tell
        yield tuple(float(v) if type(v) is int else 1.5 for v in payload)
        yield tuple(v == 1 if type(v) is int else 0 for v in payload)


def test_payloads_that_do_not_fit_their_operator_are_noops():
    program = demo()
    first_of = {}
    for edit in enumerate_edits(program, all_weights(program)):
        first_of.setdefault(edit.op, edit)
    assert set(first_of) == set(ALL_OPERATORS)
    for edit in first_of.values():
        assert apply_edit(program, edit)[1], edit
        for bad in _misfits(edit.payload):
            misfit = Edit(edit.op, edit.target, edit.path, bad)
            assert apply_edit(program, misfit) == (program, False), misfit
    assert apply_edit(program, Edit("no_such_op", 0, (), ())) == \
        (program, False)


def test_negative_argument_steps_count_from_the_end_or_are_noops():
    program = demo()
    call = sid_of(program, "s = helper(s);")
    first = apply_ok(program, Edit("off_by_one", call, ("expr", 0), (1,)))
    last = apply_ok(program, Edit("off_by_one", call, ("expr", -1), (1,)))
    assert first == last
    assert "s = helper(s + 1);" in print_program(first)
    # one step before the first argument used to raise IndexError
    for path in (("expr", -2), ("expr", 1)):
        edit = Edit("off_by_one", call, path, (1,))
        assert apply_edit(program, edit) == (program, False), path


def test_payload_nested_past_the_parser_limit_is_a_noop():
    program = demo()
    deep = "(" * 400 + "1" + ")" * 400
    loop = sid_of(program, "while (i < n) {")
    body = sid_of(program, "s = s + a[i];")
    for edit in (Edit("expr_replace", loop, ("cond",), (deep,)),
                 Edit("expr_add", loop, ("cond",), (deep, "&&", "left")),
                 Edit("range_check_insert", body, (), (deep, "a"))):
        assert apply_edit(program, edit) == (program, False), edit.op


@pytest.mark.parametrize("literal", ["\u00b2", "9" * 5000],
                         ids=["superscript-two", "5000-digits"])
def test_payload_literal_the_lexer_rejects_is_a_noop(literal):
    program = demo()
    loop = sid_of(program, "while (i < n) {")
    body = sid_of(program, "s = s + a[i];")
    for edit in (Edit("expr_replace", loop, ("cond",), (literal,)),
                 Edit("expr_add", loop, ("cond",), (literal, "&&", "left")),
                 Edit("range_check_insert", body, (), (literal, "a"))):
        assert apply_edit(program, edit) == (program, False), edit.op


def test_a_payload_text_that_does_not_parse_is_a_noop_every_time():
    # the payload memo keeps a failed parse too, and a second application
    # must veto the edit as the first did
    program = demo()
    loop = sid_of(program, "while (i < n) {")
    body = sid_of(program, "s = s + a[i];")
    for edit in (Edit("expr_replace", loop, ("cond",), ("i <",)),
                 Edit("expr_add", loop, ("cond",), ("n > 0 &&", "&&", "left")),
                 Edit("range_check_insert", body, (), ("a[", "a"))):
        for _ in range(2):
            assert apply_edit(program, edit) == (program, False), edit.op


def test_a_payload_applies_alike_from_a_warm_and_a_cleared_memo():
    program = demo()
    loop = sid_of(program, "while (i < n) {")
    body = sid_of(program, "s = s + a[i];")
    edits = (Edit("expr_replace", loop, ("cond",), ("s > 10",)),
             Edit("expr_add", loop, ("cond",), ("n > 0", "||", "right")),
             Edit("range_check_insert", body, (), ("i", "a")))
    _parse_payload_expr.cache_clear()
    cold = [apply_ok(program, edit) for edit in edits]
    assert _parse_payload_expr.cache_info().currsize == 3
    warm = [apply_ok(program, edit) for edit in edits]
    assert _parse_payload_expr.cache_info().hits >= 3
    assert warm == cold


def test_the_payload_memo_is_bounded():
    # it holds each text and its node for the life of the process
    maxsize = _parse_payload_expr.cache_info().maxsize
    assert maxsize is not None and maxsize >= 256


def test_equal_edits_hash_equal_and_different_edits_differ():
    edit = Edit("off_by_one", 3, ("expr", "index"), (1,))
    twin = Edit("off_by_one", 3, ("expr", "index"), (1,))
    assert edit == twin and hash(edit) == hash(twin)
    assert Edit("stmt_delete", 3, (), ()) == Edit("stmt_delete", 3, (), ())
    for other in (Edit("const_perturb", 3, ("expr", "index"), (1,)),
                  Edit("off_by_one", 4, ("expr", "index"), (1,)),
                  Edit("off_by_one", 3, ("index",), (1,)),
                  Edit("off_by_one", 3, ("expr", "index"), (-1,))):
        assert other != edit


def test_an_edit_prints_and_pickles_as_it_did():
    # the mint pins and patch error messages print edits; the pool pickles
    # them
    edit = Edit("expr_add", 7, ("cond",), ("n > 0", "&&", "left"))
    assert repr(edit) == ("Edit(op='expr_add', target=7, path=('cond',), "
                          "payload=('n > 0', '&&', 'left'))")
    assert repr(Edit("stmt_delete", 2, (), ())) \
        == "Edit(op='stmt_delete', target=2, path=(), payload=())"
    back = pickle.loads(pickle.dumps(edit))
    assert back == edit and type(back) is Edit


def test_payload_that_parses_alone_but_nests_too_deep_in_place_is_a_noop():
    program = demo()
    loop = sid_of(program, "while (i < n) {")
    # the loop sits in the function's block, the parser's first level, so
    # its condition starts at the second
    fits = "-" * (MAX_NESTING - 2) + "1"
    out = apply_ok(program, Edit("expr_replace", loop, ("cond",), (fits,)))
    assert same_shape(parse_program(print_program(out)), out)
    too_deep = "-" + fits
    parse_expression(too_deep)
    edit = Edit("expr_replace", loop, ("cond",), (too_deep,))
    assert apply_edit(program, edit) == (program, False)


@pytest.mark.parametrize("length", [70, 600])
def test_guards_stacked_past_the_parser_limit_are_noops(length):
    bug = next(bug for bug in load_corpus(None) if bug.name == "mid3")
    last = [stmt for _, stmt in program_statements(bug.program)][-1]
    rng = random.Random(length)
    program, flags = bug.program, []
    for _ in range(length):
        edit = mint_edit("guard_insert", program, {last.sid: 1.0}, rng)
        program, applied = apply_edit(program, edit)
        flags.append(applied)
    # `return m;` sits in the function's block, the parser's first level,
    # and its operand one level below: each guard adds one level above both
    fitting = MAX_NESTING - 2
    assert flags == [True] * fitting + [False] * (length - fitting)
    assert same_shape(parse_program(print_program(program)), program)
    # at 600 guards compile_program used to raise RecursionError
    report = run_tests(program, bug.repair_suite, step_budget=5000)
    assert len(report.flags) == len(bug.repair_suite)


# ----------------------------------------------------------- fold property

FOLD_LISTS_PER_BUG = 20
FOLD_MAX_LENGTH = 8


def _minted_list(program, weights, rng):
    """Up to FOLD_MAX_LENGTH edits, each minted on the program so far."""
    edits = []
    for _ in range(rng.randint(0, FOLD_MAX_LENGTH)):
        try:
            edit = mint_edit(rng.choice(ALL_OPERATORS), program, weights,
                             rng)
        except InapplicableOperator:
            continue
        edits.append(edit)
        program = apply_edit(program, edit)[0]
    return tuple(edits), program


@pytest.mark.parametrize("bug", load_corpus(None), ids=lambda bug: bug.name)
def test_applying_a_list_is_a_left_fold(bug):
    weights = localize(bug.program, bug.repair_suite, 5000).weights
    rng = random.Random(f"fold:{bug.name}")
    noops = 0
    for _ in range(FOLD_LISTS_PER_BUG):
        head, middle = _minted_list(bug.program, weights, rng)
        successor, _ = _minted_list(middle, weights, rng)
        # minted in another lineage, as crossover splices them: some of
        # these edits lose their target or donor and become no-ops
        stranger, _ = _minted_list(bug.program, weights, rng)
        for tail in (successor, stranger):
            first, head_flags = apply_edits(bug.program, head)
            second, tail_flags = apply_edits(first, tail)
            whole, flags = apply_edits(bug.program, head + tail)
            assert second == whole
            assert second.next_sid == whole.next_sid
            assert head_flags + tail_flags == flags
            noops += flags.count(False)
            # ids stay unique, so the first statement with an edit's
            # target, which application takes, is the only one
            for program in (first, second, whole):
                sids = [s.sid for _, s in program_statements(program)]
                assert len(sids) == len(set(sids))
                assert all(sid < program.next_sid for sid in sids)
    assert noops > 0


def _rebuilt(value):
    """An equal copy of the same type that shares no node with value and
    has nothing cached: no height, names or code."""
    if isinstance(value, tuple):
        items = tuple(_rebuilt(item) for item in value)
        # an Edit is a named tuple, equal to the plain tuple of its items
        return items if type(value) is tuple else type(value)(*items)
    if isinstance(value, _Node):
        return type(value)(*[_rebuilt(getattr(value, name))
                             for name in value._fields])
    return value


@pytest.mark.parametrize("bug", load_corpus(None), ids=lambda bug: bug.name)
def test_apply_edit_is_a_function_of_the_program_value(bug):
    # the search reuses one build for every equal (prefix, edit) step,
    # which is exact only while apply_edit leaves its input as it was and
    # reads nothing of it or of the edit but their values
    weights = localize(bug.program, bug.repair_suite, 5000).weights
    rng = random.Random(f"pure:{bug.name}")
    noops = 0
    for _ in range(FOLD_LISTS_PER_BUG):
        lineage, _ = _minted_list(bug.program, weights, rng)
        stranger, _ = _minted_list(bug.program, weights, rng)
        program = bug.program
        for edit in lineage + stranger:
            before, next_sid = repr(program), program.next_sid
            twin = _rebuilt(program)
            assert twin == program and twin is not program
            result, applied = apply_edit(program, edit)
            assert repr(program) == before
            assert program.next_sid == next_sid
            twin_edit = _rebuilt(edit)
            assert type(twin_edit) is Edit and twin_edit == edit
            twin_result, twin_applied = apply_edit(twin, twin_edit)
            assert twin_result == result and twin_applied == applied
            assert twin_result.next_sid == result.next_sid
            noops += not applied
            program = result
    assert noops > 0
