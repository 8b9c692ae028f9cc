"""Accumulator projection of loop snapshots, and deep toy recursion.

A loop faults `cycle` at the first condition check where its frame
repeats.  It leaves its accumulators (names only ever updated as
`v = v + e`, `v = v - e` or `v = e + v`, where no delta `e` reads an
accumulator) out of its snapshot and decides at the first repeat of the
rest: `cycle` when the accumulators repeat too, `budget` at once
otherwise.  Every case here is checked against the same interpreter with
no accumulators and no drift verdict: whole-frame snapshots with no
acceleration, so a runaway loop spends the whole budget.  The return
value and the coverage must agree, and the projected run may only stop
earlier.  So must the fault kind, but for one case: where the literal run
goes on past that first repeat until an accumulator leaves the int range
(`overflow`), the projected run has already faulted `budget`.
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
from patchbandit.toylang.interp import MAX_CALL_DEPTH, ToyFault, _Ctx
from patchbandit.toylang.syntax import (Assign, Binary, Index, Store, Var,
                                        While, children, loop_names,
                                        walk_statements)
from test_mutate import _rebuilt

BUDGET = 100_000


def _unprojected():
    """The literal run: whole-frame snapshots, and no drift verdict."""
    return mock.patch.multiple(interp,
                               loop_names=lambda loop: (frozenset(), None),
                               _drift_verdict=lambda *args: None)


def _run(cp, args, budget):
    """f's return value, its fault kind, and the context it ran in."""
    ctx = _Ctx(budget, set(), cp)
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
    checking that both runs agree on the value and the coverage, that the
    projected run stopped no later, and that it faulted the same kind or
    `budget` where the literal run faulted `overflow`."""
    value, kind, steps, coverage = _outcome(text, args, budget)
    with _unprojected():
        full_value, full_kind, full_steps, full_coverage = \
            _outcome(text, args, budget)
    assert (value, coverage) == (full_value, full_coverage)
    assert kind == full_kind or (kind, full_kind) == ("budget", "overflow")
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
    assert loop_names(_loops(text)[0])[0] == {"s"}
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


@pytest.mark.parametrize("update, delta, fault", [
    ("s = s + d;", 2 ** 62, "budget"),
    ("s = s - d;", 2 ** 62, "budget"),
    ("s = d + s;", 2 ** 40, "budget"),
    ("s = s + d;", 1, "budget"),
    ("s = s + d; s = s + d;", 2 ** 62, "overflow")])
def test_a_drifting_accumulator_overflows_if_it_leaves_the_range_in_budget(
        update, delta, fault):
    text = f"""
fn f(d) {{
  s = 0;
  while (1) {{
    {update}
  }}
}}
"""
    # the reduced snapshot first repeats at the second check, after one
    # update; 2^62 per update leaves the range at the second or third, so
    # only two updates an iteration leave it before that repeat
    _, kind, steps, _ = _compare(text, [delta])
    assert kind == fault
    assert steps > 100_000 - 200


def test_an_accumulator_that_only_swings_out_of_range_inside_a_period():
    # s is 0 at the first snapshot and grows by one per period, so s + d
    # would leave the range once s passed 1001, long after the reduced
    # snapshot first repeats, at the second check; from s = 1002 it leaves
    # the range in the first period
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
    assert set(kinds.values()) == {"budget"}
    assert _compare(text.replace("s = 0;", "s = 1002;"),
                    [2 ** 63 - 1002])[1] == "overflow"


def test_a_drift_that_starts_after_iteration_64():
    # the rest of the frame settles at iteration 100, where the snapshot
    # repeats for the first time; s leaves the range after 1,000 updates
    # of 2^63 / 1000, and after 50 of 2^63 / 50, before that repeat
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
    assert kinds == ["budget"] * 20
    assert _compare(text, [2 ** 63 // 1000])[1] == "budget"
    assert _compare(text, [2 ** 63 // 50])[1] == "overflow"


@pytest.mark.parametrize("budget", [5_000, 100_000])
def test_a_drift_whose_first_repeat_is_after_iteration_64_stops_there(
        budget):
    # i settles at iteration 101 and t then runs a period of 50, so the
    # reduced snapshot first repeats at iteration 151 while s drifts; the
    # drift verdict refuses the loop, because i < 100 flips in the budget
    text = """
fn f() {
  i = 0; s = 0; t = 0;
  while (1) {
    if (i < 100) { i = i + 1; } else { t = t + 1; if (t == 50) { t = 0; } }
    s = s + 1;
  }
}
"""
    value, kind, steps, _ = _compare(text, budget=budget)
    assert (value, kind) == (None, "budget")
    assert _outcome(text, (), budget)[3] == list(range(10))
    # the loop stops at that first repeat
    assert budget - steps <= 700


@pytest.mark.parametrize("budget", [5_000, 100_000])
def test_a_drifting_accumulator_loop_stops_at_its_first_repeat(budget):
    # i counts to 100 and s drifts, so the reduced snapshot first repeats
    # at check 102, where i is 100 again: two assignments, 102 checks,
    # 100 bodies of three steps and one of two, and a snapshot at each
    # check; the loop runs nothing after it
    text = """
fn f() {
  i = 0; s = 0;
  while (1) {
    if (i < 100) { i = i + 1; }
    s = s + 1;
  }
}
"""
    value, kind, steps, _ = _compare(text, budget=budget)
    assert (value, kind) == (None, "budget")
    assert budget - steps == 2 + 102 + 100 * 3 + 2
    with mock.patch.object(interp, "_split_state",
                           wraps=interp._split_state) as snapshots:
        assert _outcome(text, (), budget)[:2] == (None, "budget")
    assert snapshots.call_count == 102


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
    # accumulators with deltas up to 2^63, some settling only after 70 or
    # 130 iterations
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
    assert loop_names(_loops(loop.format(1))[0])[0] == {"s", "t"}
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
    assert "s" not in loop_names(_loops(text)[0])[0]
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
    assert loop_names(_loops(text)[0])[0] == {"u"}
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
    assert loop_names(outer)[0] == loop_names(inner)[0] == {"s"}
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


def test_a_frozen_loop_is_a_cycle_at_its_second_condition_check():
    # the frame is whole before the loop, so its second condition check
    # repeats its first, whatever the budget
    text = """
fn f(n) {
  i = 0;
  x = 0;
  while (i < n) {
    x = i;
  }
  return x;
}
"""
    for budget in [*range(1, 200), 100_000]:
        _, kind, steps, full_steps = _compare(text, [3], budget)
        # two assignments, two condition checks and one body
        assert kind == ("cycle" if budget >= 2 + 2 + 1 else "budget")
        assert steps == full_steps == max(budget - 5, -1)


# ------------------------------------------------- the budget boundary

# Each loop shape's (return value, fault kind, sorted coverage) at every
# budget from 1 to 1,500, hashed, and as segments: (first budget, return
# value, fault kind, coverage) at each budget where the outcome changes.
# A loop faults `cycle` at its first repeated frame, at any budget that
# reaches that condition check, and `budget` below it.
BOUNDARY_SHAPES = {
    "frozen": ("""
fn f(n) {
  i = 0;
  while (i < n) {
    x = i;
  }
  return x;
}
""", [3], "bb506e4d4e1260470b2bd7c2ccc32463ff0ede001877732960dfd1e0bc00c9a2",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (6, None, "cycle", (0, 1, 2)))),
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
""", [], "980bbdf38f20641f1b4d1ec80d506824350eb022779a1a80fa659f30f347dcb5",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (11, None, "budget", (0, 1, 2, 3, 4)),
         (12, None, "budget", (0, 1, 2, 3, 4, 5)),
         (24, None, "cycle", (0, 1, 2, 3, 4, 5)))),
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
""", [], "ed804d04a546ceb4e59999578e42f9330cf5a8cae8fe7432f7e477999c68fec5",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (304, None, "cycle", (0, 1, 2, 3)))),
    # the frame grows at iteration 50, so the cycle runs from 50 to 150
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
""", [], "1019dde9d0ba1ff00a34020dc640750f75a6526794e54a436baa98f5a476e10a",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (152, None, "budget", (0, 1, 2, 3, 4)),
         (454, None, "cycle", (0, 1, 2, 3, 4)))),
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
""", [4], "b677cae8b2fe9a4d31a13065fc2b72887a7c4ae4a47b55d67fda4c2fb417fa8c",
        ((1, None, "budget", (4,)),
         (2, None, "budget", (4, 5)),
         (3, None, "budget", (0, 4, 5)),
         (4, None, "budget", (0, 1, 4, 5)),
         (5, None, "budget", (0, 1, 2, 4, 5)),
         (13, None, "budget", (0, 1, 2, 3, 4, 5)),
         (14, None, "budget", (0, 1, 2, 3, 4, 5, 6)),
         (39, None, "cycle", (0, 1, 2, 3, 4, 5, 6)))),
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
        "5f67f08d6aa09ade156fa2c7904c9240737fad065ac2714ede03e58b514519f9",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (5, None, "budget", (0, 1, 2, 3, 4)),
         (6, None, "budget", (0, 1, 2, 3, 4, 5)),
         (7, None, "budget", (0, 1, 2, 3, 4, 5, 6)),
         (27, None, "cycle", (0, 1, 2, 3, 4, 5, 6)))),
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
""", [], "0fc07204288b6f52bf0f4f6ab9f142f4a5fc782746cbf2f6b0aa950d7eb8f099",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (5, None, "budget", (0, 1, 2, 3, 4)),
         (9, None, "cycle", (0, 1, 2, 3, 4)))),
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
""", [], "a69a76a58cefe821ade998f2a0f6353c983e027e582b5b6988dc47551624c907",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (5, None, "budget", (0, 1, 2, 3, 4)))),
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
""", [], "b1c1edb2e529d6e4b23ffa2b3f265aa5cb00593e349ec13538ab2847f1fc2784",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (214, None, "budget", (0, 1, 2, 3, 4)),
         (218, None, "cycle", (0, 1, 2, 3, 4)))),
    # i runs 97, 98, 99, 100, 0, 1, 2, 3 at the first eight checks, so the
    # drift verdict sees a step of 1 while the first check's frame lies
    # ahead on that line: a budget that reaches i = 97 again is a cycle
    "drift-back": ("""
fn f() {
  i = 97;
  while (1) {
    if (i < 100) {
      i = i + 1;
    } else {
      i = 0;
    }
  }
  return 0;
}
""", [], "444b9172e3f04e4be238c5d4e6b3d498c61392a6c0fe5ad052e24abc2e0ddf16",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (13, None, "budget", (0, 1, 2, 3, 4)),
         (305, None, "cycle", (0, 1, 2, 3, 4)))),
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
""", [300], "a9a778f9ada264701f06c1c21d993ff501121a650a7b0ca7a601a0237d967947",
        ((1, None, "budget", (0,)),
         (2, None, "budget", (0, 1)),
         (3, None, "budget", (0, 1, 2)),
         (4, None, "budget", (0, 1, 2, 3)),
         (5, None, "budget", (0, 1, 2, 3, 4)),
         (12, None, "budget", (0, 1, 2, 3, 4, 5)),
         (1004, 15150, None, (0, 1, 2, 3, 4, 5, 6)))),
}


def _check_sweep(text, args, expected, segments):
    """Fail at the first budget whose outcome is not the recorded
    segment's, then on the digest of all 1,500 outcomes."""
    starts = {first: (value, kind, list(coverage))
              for first, value, kind, coverage in segments}
    cp = compile_program(parse_program(text))
    digest = hashlib.sha256()
    want = None
    for budget in range(1, 1501):
        value, kind, ctx = _run(cp, args, budget)
        got = (value, kind, sorted(ctx.coverage))
        want = starts.get(budget, want)
        assert got == want, f"budget {budget}: {got}, recorded {want}"
        digest.update(repr(got).encode())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("shape", BOUNDARY_SHAPES)
def test_every_budget_up_to_1500_gives_the_recorded_outcome(shape):
    _check_sweep(*BOUNDARY_SHAPES[shape])
    with _unprojected():
        _check_sweep(*BOUNDARY_SHAPES[shape])


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


@pytest.mark.parametrize("bug", load_corpus(None), ids=lambda bug: bug.name)
@settings(max_examples=60, deadline=None)
@given(operators=st.lists(st.sampled_from(ALL_OPERATORS), min_size=1,
                          max_size=12),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       budget=st.integers(min_value=1, max_value=100_000))
def test_projection_changes_no_flag_fault_or_coverage(bug, operators, seed,
                                                      budget):
    program = _lineage(bug, operators, random.Random(seed))
    # a loop takes its accumulators when it compiles, and its node keeps
    # the code, so the unprojected runs compile an equal copy afresh
    twin = _rebuilt(program)
    for suite in (bug.repair_suite, bug.heldout_suite):
        projected = _report(program, suite, budget)
        with _unprojected():
            assert _report(twin, suite, budget) == projected


def _walked_accumulators(loop):
    """The loop's accumulators found by one walk of its whole subtree, the
    reference for the names its statements keep."""
    updated, other = set(), set()
    todo = list(children(loop))
    while todo:
        node = todo.pop()
        if type(node) is Assign and type(node.expr) is Binary \
                and node.expr.op in ("+", "-"):
            expr, target = node.expr, Var(node.name)
            delta = (expr.right if expr.left == target else
                     expr.left if expr.op == "+" and expr.right == target
                     else None)
            if delta is not None:
                updated.add(node.name)
                todo.append(delta)
                continue
        if type(node) in (Var, Index, Store, Assign):
            other.add(node.name)
        todo.extend(children(node))
    return updated - other


def _check_loops(program):
    """Check every loop of program against the walk; their number."""
    loops = [s for fn in program.functions for s in walk_statements(fn.body)
             if type(s) is While]
    for loop in loops:
        assert loop_names(loop)[0] == _walked_accumulators(loop)
    return len(loops)


def test_the_names_statements_keep_give_each_loop_its_accumulators():
    # reads in an else branch and an inner loop, which corpus mutants
    # seldom have
    assert _check_loops(parse_program("""
fn f(a, n) {
  s = 0;
  t = 0;
  i = 0;
  while (i < n) {
    s = s + 1;
    t = t + 1;
    if (i < 3) {
      i = i + 1;
    } else {
      while (t < 0) {
        a[0] = s;
      }
    }
  }
  return s;
}
""")) == 2
    # each program of a lineage shares most of its statements, and the
    # names they keep, with the program before it
    loops = 0
    for bug in load_corpus(None):
        weights = localize(bug.program, bug.repair_suite, 5000).weights
        rng = random.Random(f"names:{bug.name}")
        for _ in range(20):
            program = bug.program
            for _ in range(8):
                try:
                    edit = mint_edit(rng.choice(ALL_OPERATORS), program,
                                     weights, rng)
                except InapplicableOperator:
                    continue
                program = apply_edit(program, edit)[0]
                loops += _check_loops(program)
    assert loops > 1000


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
    suite = parse_suite("t | f | 0 | 0\n", "<string>")
    limit = sys.getrecursionlimit()
    report = run_tests(_deep(nesting), suite, BUDGET, coverage=True)
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
        return run_tests(program, suite, BUDGET, coverage=True)

    deep_report = nested(limit - _stack_depth() - 60)
    assert (deep_report.faults, deep_report.coverage) == \
           (report.faults, report.coverage)
    assert runs == ["t", "t"]       # outgrew the stack, then was retried
    assert not passes_all(program, suite, BUDGET)
    assert sys.getrecursionlimit() == limit


def test_compiling_on_a_nearly_full_stack_is_rerun_with_room():
    # compiling forty nested ifs takes more than the 60 frames left, so the
    # whole run is rerun, compiling included
    suite = parse_suite("t | f | 0 | 0\n", "<string>")
    program = _deep(40)
    limit = sys.getrecursionlimit()

    def nested(levels, run):
        if levels:
            return nested(levels - 1, run)
        return run(program, suite, BUDGET)

    report = nested(limit - _stack_depth() - 60, run_tests)
    assert report.faults == ["depth"]
    assert not nested(limit - _stack_depth() - 60, passes_all)
    assert sys.getrecursionlimit() == limit


def test_a_rerun_that_outgrows_the_stack_again_raises(monkeypatch):
    # with no room added the rerun fails as the first run did, and the
    # error is raised rather than read as a report
    monkeypatch.setattr(interp, "_stack_room", lambda program: 0)
    program, suite = _deep(40), parse_suite("t | f | 0 | 0\n", "<string>")
    limit = sys.getrecursionlimit()
    for run in (run_tests, passes_all):
        with pytest.raises(RecursionError):
            run(program, suite, BUDGET)
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
                       parse_suite(f"t | f | {depth} | {depth}\n", "<string>"),
                       BUDGET)
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
