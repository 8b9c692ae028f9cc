"""Accumulator projection of loop snapshots, and deep toy recursion.

A loop leaves its accumulators (names only ever updated as `v = v + e`,
`v = v - e` or `v = e + v`) out of its snapshot and decides at the first
repeat of the rest: `cycle` when the accumulators repeat too, `budget`
otherwise, unless an accumulator would leave the int range (`overflow`)
before the budget is gone.  Every case here is checked against the same
interpreter with no accumulators, which snapshots the whole frame and, on
a runaway loop, spends the whole budget: the fault kind, the return value
and the coverage must agree, and the projected run may only stop earlier.
"""

import hashlib
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from patchbandit.cli import EXIT_OK, main
from patchbandit.corpus import load_corpus
from patchbandit.toylang import (ALL_OPERATORS, InapplicableOperator,
                                 apply_edit, compile_program, localize,
                                 mint_edit, parse_program, parse_suite,
                                 passes_all, run_tests)
from patchbandit.toylang import interp
from patchbandit.toylang.interp import (MAX_CALL_DEPTH, ToyFault, _Ctx,
                                        _accumulators)
from patchbandit.toylang.syntax import While, walk_statements


def _unprojected():
    return mock.patch.object(interp, "_accumulators",
                             lambda loop: frozenset())


def _run(cp, args, budget):
    """f's return value, its fault kind, and the context it ran in."""
    ctx = _Ctx(budget, set())
    try:
        value = cp["f"].invoke([list(a) if isinstance(a, tuple) else a
                                for a in args], ctx)
        return value, None, ctx
    except ToyFault as fault:
        return None, fault.kind, ctx


def _outcome(text, args, budget):
    value, kind, ctx = _run(compile_program(parse_program(text)), args,
                            budget)
    return value, kind, ctx.steps, sorted(ctx.coverage)


def _compare(text, args=(), budget=100_000):
    """(value, fault kind, steps left, steps left unprojected), after
    checking that both runs agree on all but the steps left."""
    value, kind, steps, coverage = _outcome(text, args, budget)
    with _unprojected():
        full_value, full_kind, full_steps, full_coverage = \
            _outcome(text, args, budget)
    assert (value, kind, coverage) == (full_value, full_kind, full_coverage)
    assert steps >= full_steps
    return value, kind, steps, full_steps


def _loops(text):
    fn = parse_program(text).functions[-1]
    return [s for s in walk_statements(fn.body) if type(s) is While]


# ------------------------------------------------------------ the rule


def test_zero_delta_accumulator_is_a_cycle_at_the_same_step():
    text = """
fn f(a) {
  s = 0;
  i = 0;
  while (i < 3) {
    s = s + a[i];
  }
}
"""
    assert _accumulators(_loops(text)[0]) == {"s"}
    _, kind, steps, full_steps = _compare(text, [(0, 5, 5)])
    assert kind == "cycle" and steps == full_steps


@pytest.mark.parametrize("update", ["s = s + a[i];", "s = s - 1;",
                                    "s = 2 + s;", "s = s + (a[i] - 3);"])
def test_nonzero_delta_accumulator_is_a_budget_fault_at_once(update):
    text = f"""
fn f(a) {{
  s = 0;
  i = 0;
  while (i < 3) {{
    {update}
  }}
}}
"""
    _, kind, steps, full_steps = _compare(text, [(4, 5, 6)])
    assert kind == "budget"
    assert full_steps == -1 and steps > 100_000 - 200


@pytest.mark.parametrize("update, delta", [("s = s + d;", 2 ** 62),
                                           ("s = s - d;", 2 ** 62),
                                           ("s = d + s;", 2 ** 40),
                                           ("s = s + d;", 1)])
def test_a_drifting_accumulator_overflows_if_it_leaves_the_range_in_budget(
        update, delta):
    text = f"""
fn f(d) {{
  s = 0;
  while (1) {{
    {update}
  }}
}}
"""
    # 2^40 per iteration leaves the range after 2^23 iterations, past the
    # budget; 2^62 after two
    _, kind, steps, _ = _compare(text, [delta])
    assert kind == ("overflow" if delta == 2 ** 62 else "budget")
    assert steps > 100_000 - 200


def test_an_accumulator_that_only_swings_out_of_range_inside_a_period():
    # s is 0 at every snapshot of the first period and grows by one per
    # period, but s + d leaves the range once s reaches 1001
    text = """
fn f(d) {
  s = 0;
  while (1) {
    s = s + d;
    s = s - d;
    s = s + 1;
  }
}
"""
    kinds = {budget: _compare(text, [2 ** 63 - 1002], budget)[1]
             for budget in range(3995, 4015)}
    assert set(kinds.values()) == {"budget", "overflow"}
    flip = min(b for b, kind in kinds.items() if kind == "overflow")
    assert all((kind == "overflow") == (budget >= flip)
               for budget, kind in kinds.items())


def test_a_drift_that_starts_after_iteration_64():
    # the rest of the frame settles at iteration 100, where the snapshot
    # repeats for the first time; s leaves the range after 1,000 updates
    text = """
fn f(d) {
  s = 0;
  i = 0;
  while (1) {
    if (i < 100) {
      i = i + 1;
    }
    s = s + d;
  }
}
"""
    kinds = [_compare(text, [2 ** 63 // 1000], budget)[1]
             for budget in range(3095, 3115)]
    assert kinds == ["budget"] * 10 + ["overflow"] * 10
    assert _compare(text, [2 ** 63 // 1000])[1] == "overflow"


_DRIFT_STATEMENTS = (
    "s = s + d;", "s = s - e;", "s = e + s;", "t = t + (d * 2);",
    "if (i < {k}) {{ i = i + 1; }}",
    "if (i < {k}) {{ i = i + 1; }} else {{ s = s + e; }}",
    "j = 0; while (j < 2) {{ s = s + d; j = j + 1; }}",
    "s = s + (d - e);", "if (s > 0) {{ q = 1; }}",
)
_BIG = [2 ** 63 // n for n in (1, 3, 50, 700, 1500)]


@settings(max_examples=60, deadline=None)
@given(body=st.lists(st.sampled_from(_DRIFT_STATEMENTS), min_size=1,
                     max_size=4),
       k=st.sampled_from([3, 70, 130]),
       d=st.sampled_from(_BIG + [-b for b in _BIG] + [0, 1]),
       e=st.sampled_from(_BIG + [-b for b in _BIG] + [0, 1]),
       budget=st.integers(min_value=1, max_value=6000))
def test_random_drifting_loops_fault_as_the_unprojected_run(body, k, d, e,
                                                            budget):
    # accumulators with deltas up to 2^63, some settling only after
    # iteration 64 (k = 70, 130)
    statements = " ".join(stmt.format(k=k) for stmt in body)
    text = f"""
fn f(d, e) {{
  s = 0;
  t = 0;
  i = 0;
  q = 0;
  while (1) {{
    {statements}
  }}
  return s;
}}
"""
    _compare(text, [d, e], budget)


def test_a_repeat_with_two_accumulators_is_a_cycle_only_if_both_repeat():
    loop = """
fn f(d) {{
  s = 0;
  t = 0;
  while (1) {{
    s = s + d;
    t = t - {0};
  }}
}}
"""
    assert _accumulators(_loops(loop.format(1))[0]) == {"s", "t"}
    assert _compare(loop.format(0), [0])[1] == "cycle"
    assert _compare(loop.format(1), [0])[1] == "budget"
    assert _compare(loop.format(0), [2])[1] == "budget"


@pytest.mark.parametrize("read, kind", [
    ("if (s > 500) { i = 3; }", None),         # an if
    ("x = a[s / 1000];", "index"),             # an index
    ("if (g(s) == 1) { i = 3; }", None),       # a call argument
    ("if (s == 300) { return s; }", None),     # a return
    ("t = t + s;", "budget"),                  # another accumulator's delta
    ("s = s + s;", "overflow"),                # its own delta
    ("while (s < 0) { }", "budget"),           # a nested loop's condition
    ("s = 7;", "cycle"),                       # another assignment
])
def test_a_read_or_other_write_keeps_the_name_in_the_snapshot(read, kind):
    text = f"""
fn g(v) {{
  if (v == 400) {{
    return 1;
  }}
  return 0;
}}
fn f(a) {{
  s = 1;
  t = 0;
  i = 0;
  while (i < 3) {{
    s = s + 1;
    {read}
  }}
  return s;
}}
"""
    assert "s" not in _accumulators(_loops(text)[0])
    assert _compare(text, [(1, 2)], budget=20_000)[1] == kind


def test_a_store_target_is_kept_and_an_undefined_accumulator_faults():
    text = """
fn f(a) {
  i = 0;
  while (i < 3) {
    a = a + 1;
    a[0] = 1;
    u = u + 1;
  }
}
"""
    assert _accumulators(_loops(text)[0]) == {"u"}
    assert _compare(text, [(1, 2)])[1] == "type"
    assert _compare(text.replace("    a = a + 1;\n", ""),
                    [(1, 2)])[1] == "undefined-variable"


def test_a_frame_that_grows_late_beside_an_accumulator_is_a_cycle():
    text = """
fn f() {
  s = 0;
  i = 0;
  while (1) {
    s = s - 0;
    if (i < 100) {
      i = i + 1;
    } else {
      late = 7;
    }
  }
}
"""
    _, kind, steps, full_steps = _compare(text)
    assert kind == "cycle" and steps == full_steps


def test_an_accumulator_only_an_inner_loop_updates():
    text = """
fn f(a, n) {
  s = 0;
  i = 0;
  while (i < n) {
    j = 0;
    while (j < len(a)) {
      s = s + a[j];
      j = j + 1;
    }
  }
  return s;
}
"""
    outer, inner = _loops(text)
    assert _accumulators(outer) == _accumulators(inner) == {"s"}
    assert _compare(text, [(1, 2), 1])[1] == "budget"
    assert _compare(text, [(0, 0), 1])[1] == "cycle"
    ending = text.replace("    j = 0;", "    i = i + 1;\n    j = 0;")
    assert _compare(ending, [(1, 2), 80])[:2] == (240, None)


def test_an_inner_runaway_fails_before_the_outer_loop_snapshots():
    text = """
fn f(a, n) {
  s = 0;
  i = 0;
  while (i < n) {
    j = 0;
    while (j < len(a)) {
      s = s + a[j];
    }
    i = i + 1;
  }
  return s;
}
"""
    assert _compare(text, [(1, 2), 3])[1] == "budget"
    assert _compare(text, [(0, 2), 3])[1] == "cycle"


@pytest.mark.parametrize("budget", [1, 5, 40, 64, 67, 130, 131, 132, 200])
def test_a_budget_that_runs_out_before_the_first_repeat(budget):
    text = """
fn f() {
  s = 0;
  i = 0;
  while (i < 2) {
    s = s + 1;
  }
}
"""
    _, kind, steps, full_steps = _compare(text, budget=budget)
    assert kind == "budget" and full_steps == -1
    # two assignments, 2 condition checks and 1 body take the loop to the
    # snapshot of iteration 2, the first repeat
    assert (steps == -1) == (budget < 2 + 2 + 1)


# ------------------------------------------------- the budget boundary

# Each loop shape's (return value, fault kind, sorted coverage) at every
# budget from 1 to 1,500, hashed.  The digests were recorded with the
# 64-iteration check that snapshotted from iteration 64 on; a loop that
# finds its repeat earlier must decide `cycle` or `budget` exactly as that
# check would at every budget.
BOUNDARY_SHAPES = {
    "frozen": ("""
fn f(n) {
  i = 0;
  while (i < n) {
    x = i;
  }
  return x;
}
""", [3], "1f405edfd9d20c9feb02ecca88c6a0b04d6ae924abdd74d1d881f72250b4bb17"),
    # the iteration that takes the `if` costs two steps more
    "period-3": ("""
fn f() {
  k = 0;
  while (1 < 2) {
    k = k + 1;
    if (k == 3) {
      k = 0;
      t = k;
    }
  }
  return 0;
}
""", [], "a60cbabfed457a967979648ba0ae5fd75022f7ace1555a5d23fade9b87937f03"),
    "transient-100": ("""
fn f() {
  i = 0;
  while (i >= 0) {
    if (i < 100) {
      i = i + 1;
    }
  }
  return i;
}
""", [], "ed804d04a546ceb4e59999578e42f9330cf5a8cae8fe7432f7e477999c68fec5"),
    # the frame grows at iteration 50, so the cycle runs from 50 to 150
    # and straddles iteration 64
    "period-100": ("""
fn f() {
  k = 0;
  while (k >= 0) {
    k = (k + 1) % 100;
    if (k == 50) {
      t = k;
    }
  }
  return k;
}
""", [], "93e7be4a562ed56c994e6a569e0d7c9f0986ca794e5f6114e1ef92efbabd9b58"),
    "condition-calls": ("""
fn g(v) {
  j = 0;
  while (j < v) {
    j = j + 1;
  }
  return j;
}
fn f(n) {
  x = 0;
  while (g(n) > x) {
    x = 1 - x;
  }
  return x;
}
""", [4], "922200a16dbc979da387908552eba5921c13e66a47ecae2e8ffca777d76a214a"),
    "nested": ("""
fn f(a) {
  i = 0;
  s = 0;
  while (i < len(a)) {
    j = 0;
    while (j < len(a)) {
      s = a[j];
      j = j + 1;
    }
  }
  return s;
}
""", [(1, 2, 3)],
        "c265bb5133656ecbaf71d29b03bb240e1074b68e01806dee0bce9586592f2057"),
    "zero-drift": ("""
fn f() {
  s = 0;
  k = 0;
  while (1) {
    k = 1 - k;
    s = s + (2 * k - 1);
  }
  return s;
}
""", [], "f309a38e900052a163393dbdf8e8269db75b10ef24298c22b9f98237a322c4e9"),
    "drift": ("""
fn f() {
  s = 0;
  k = 0;
  while (1) {
    k = 1 - k;
    s = s + k;
  }
  return s;
}
""", [], "a69a76a58cefe821ade998f2a0f6353c983e027e582b5b6988dc47551624c907"),
    "late-frame": ("""
fn f() {
  i = 0;
  while (1) {
    if (i < 70) {
      i = i + 1;
    } else {
      late = 7;
    }
  }
  return 0;
}
""", [], "b1c1edb2e529d6e4b23ffa2b3f265aa5cb00593e349ec13538ab2847f1fc2784"),
    "ends": ("""
fn f(n) {
  i = 0;
  s = 0;
  while (i < n) {
    i = i + 1;
    if (i % 3 == 0) {
      s = s + i;
    }
  }
  return s;
}
""", [300], "a9a778f9ada264701f06c1c21d993ff501121a650a7b0ca7a601a0237d967947"),
}


def _sweep(text, args):
    cp = compile_program(parse_program(text))
    digest = hashlib.sha256()
    for budget in range(1, 1501):
        value, kind, ctx = _run(cp, args, budget)
        digest.update(repr((value, kind, sorted(ctx.coverage))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("shape", BOUNDARY_SHAPES)
def test_every_budget_up_to_1500_gives_the_recorded_outcome(shape):
    text, args, expected = BOUNDARY_SHAPES[shape]
    assert _sweep(text, args) == expected
    with _unprojected():
        assert _sweep(text, args) == expected


# ------------------------------------------- differential, whole programs


def _lineage(bug, operators, rng):
    weights = localize(bug.program, bug.repair_suite, 5000).weights
    program = bug.program
    for operator in operators:
        try:
            edit = mint_edit(operator, program, weights, rng)
        except InapplicableOperator:
            continue
        program = apply_edit(program, edit)[0]
    return program


def _report(program, suite, budget):
    report = run_tests(program, suite, budget, coverage=True)
    return report.flags, report.faults, report.coverage


@pytest.mark.parametrize("bug", load_corpus(), ids=lambda bug: bug.name)
@settings(max_examples=60, deadline=None)
@given(operators=st.lists(st.sampled_from(ALL_OPERATORS), min_size=1,
                          max_size=12),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       budget=st.integers(min_value=1, max_value=100_000))
def test_projection_changes_no_flag_fault_or_coverage(bug, operators, seed,
                                                      budget):
    program = _lineage(bug, operators, random.Random(seed))
    for suite in (bug.repair_suite, bug.heldout_suite):
        projected = _report(program, suite, budget)
        with _unprojected():
            assert _report(program, suite, budget) == projected


# ------------------------------------------------- deep toy recursion


def _deep(nesting):
    body = "return f(n + 1);"
    for _ in range(nesting):
        body = f"if (n >= 0) {{ {body} }}"
    return parse_program(f"fn f(n) {{ {body} return 0; }}")


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("nesting", [0, 10, 40])
def test_deep_toy_recursion_is_a_depth_fault(nesting, monkeypatch):
    suite = parse_suite("t | f | 0 | 0\n")
    limit = sys.getrecursionlimit()
    report = run_tests(_deep(nesting), suite, coverage=True)
    assert report.faults == ["depth"]
    assert sys.getrecursionlimit() == limit

    # the same under a caller whose stack is nearly full; the program is
    # compiled up front, so only the toy recursion runs on that stack
    program = _deep(nesting)
    cp = compile_program(program)
    monkeypatch.setattr(interp, "compile_program", lambda p: cp)
    runs = []
    run_case = interp._run_case

    def counted(*args):
        # one more frame under every run, so the retry has less room
        runs.append(args[1].name)
        return run_case(*args)

    monkeypatch.setattr(interp, "_run_case", counted)

    def nested(levels):
        if levels:
            return nested(levels - 1)
        return run_tests(program, suite, coverage=True)

    deep_report = nested(limit - _stack_depth() - 60)
    assert (deep_report.faults, deep_report.coverage) == \
           (report.faults, report.coverage)
    assert runs == ["t", "t"]       # outgrew the stack, then was retried
    assert not passes_all(program, suite)
    assert sys.getrecursionlimit() == limit


def test_compiling_on_a_nearly_full_stack_is_rerun_with_room():
    # compiling forty nested ifs takes more than the 60 frames left, so the
    # whole run is rerun, compiling included
    suite = parse_suite("t | f | 0 | 0\n")
    program = _deep(40)
    limit = sys.getrecursionlimit()

    def nested(levels, run):
        if levels:
            return nested(levels - 1, run)
        return run(program, suite)

    report = nested(limit - _stack_depth() - 60, run_tests)
    assert report.faults == ["depth"]
    assert not nested(limit - _stack_depth() - 60, passes_all)
    assert sys.getrecursionlimit() == limit


def test_recursion_just_inside_the_cap_returns_its_value():
    text = """
fn f(n) {
  if (n > 0) { if (n > 0) { if (n > 0) { if (n > 0) { if (n > 0) {
    if (n > 0) { if (n > 0) { if (n > 0) { if (n > 0) { if (n > 0) {
      return f(n - 1) + 1;
    } } } } }
  } } } } }
  return 0;
}
"""
    depth = MAX_CALL_DEPTH - 1
    report = run_tests(parse_program(text),
                       parse_suite(f"t | f | {depth} | {depth}\n"))
    assert report.flags == [True]


def test_gate_on_a_deeply_recursive_mutant_ends_without_a_traceback(
        tmp_path, capsys):
    # deleting the base case leaves a recursion nested in ten ifs
    bugdir = tmp_path / "deep-1"
    bugdir.mkdir()
    nest = "  if (n < 1000) {\n" * 10
    close = "  }\n" * 10
    (bugdir / "bug.toy").write_text(
        "fn f(n) {\n  if (n <= 0) {\n    return 0;\n  }\n"
        f"{nest}  return f(n - 1) + 2;\n{close}  return 0;\n}}\n")
    (bugdir / "fixed.toy").write_text(
        (bugdir / "bug.toy").read_text().replace("+ 2;", "+ 1;"))
    (bugdir / "repair.tests").write_text(
        "z | f | 0 | 0\nt | f | 2 | 2\nu | f | 3 | 3\n")
    (bugdir / "heldout.tests").write_text("h | f | 1 | 1\n")
    assert main(["gate", "--corpus", str(tmp_path)]) == EXIT_OK
    assert "deep-1: PASS" in capsys.readouterr().out
