"""The drift verdict against the literal run.

At its eighth condition check a loop compares its frame with the one a
check before.  If the names are the same and the ints have moved by a
vector that is not all zero, it replays the iteration once on affine
forms; when that proves the loop runs until its budget is gone, it faults
`budget` at once and covers the iteration's statements.  Every case here
runs twice on one compiled program: as it is, and with the verdict patched
off, the literal run that spends the whole budget.  The return value, the
fault kind and the coverage must agree.  A spy counts the verdicts that
fired, so no property here passes without deciding loops.
"""

import contextlib
import functools
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from patchbandit.toylang import (compile_program, interp, parse_program,
                                 parse_suite, run_tests)
from patchbandit.toylang.interp import MAX_CALL_DEPTH, ToyFault, _Ctx
from patchbandit.toylang.syntax import INT_MAX, INT_MIN
from test_interp_exactness import ORACLE_BUDGET, _oracle_variants
from test_loop_projection import _stack_depth

# hypothesis favours small integers, so most budgets are drawn as a
# round number less a small one
BUDGETS = st.one_of(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=2800).map(lambda n: 3000 - n),
    st.integers(min_value=0, max_value=1300).map(lambda n: 1500 - n),
    st.sampled_from([5000, 100_000]))


def _literal():
    return mock.patch.object(interp, "_drift_verdict", lambda *args: None)


@contextlib.contextmanager
def _spied(fired, refused=None):
    """Record (frame, steps, path length) for each verdict that fires, and
    count into `refused` each one that does not."""
    verdict = interp._drift_verdict

    def spy(cond, body, env, before, steps):
        path = verdict(cond, body, env, before, steps)
        if path is not None:
            fired.append((dict(env), steps, len(path)))
        elif refused is not None:
            refused.append(None)
        return path

    with mock.patch.object(interp, "_drift_verdict", spy):
        yield


def _outcome(cp, args, budget):
    """f's return value, fault kind and sorted coverage, and the steps it
    left."""
    ctx = _Ctx(budget, set(), cp)
    try:
        value, kind = cp["f"].invoke([list(a) if type(a) is tuple else a
                                      for a in args], ctx), None
    except ToyFault as fault:
        value, kind = None, fault.kind
    return (value, kind, sorted(ctx.coverage)), ctx.steps


def _compare(cp, args, budget, fired):
    """The outcome, after checking it against the literal run's."""
    with _spied(fired):
        outcome, _ = _outcome(cp, args, budget)
    with _literal():
        assert _outcome(cp, args, budget)[0] == outcome
    return outcome


# ---------------------------------------------------- generated loops

# the counter `i` steps by k in every iteration; `x` is a value a test
# compares `i` with, drawn near where `i` is when the budget runs out
_CONDS = ("i != x", "i < x", "i > x", "1", "t == 0 || i != x",
          "t == 0 && i != x", "t != 0 || j + i >= -5", "-i < 9",
          "i * 3 <= x", "len(a) > 0 && (j < 4 || i == x)", "i - x",
          "t || x - i")
_STATEMENTS = (
    "j = j + 2;", "j = j - 1;", "s = s + a[{c}];",
    "if (s != 0) {{ s = s + a[{c}]; }}",
    "if (i == x) {{ t = t + 1; }}",
    "if (i != x) {{ j = j + 0; }} else {{ u = 1; }}",
    "if (x - i) {{ j = j + 0; }} else {{ t = 3; }}",
    "if (t == 0 || i < j) {{ y = i * 2; }}",
    "if (t != 0 && i > j) {{ y = 1; }} else {{ y = 2 * j - i; }}",
    "y = -i + len(a);", "y = 7 / 2 + (j - j) % 3 + a[i - i];",
    "{{ y = (i < 3) + (j >= 0); }}", "y = i + 9223372036854775000;",
    "y = a;",
)
# each refuses the affine pass when the loop reaches it in its eighth
# iteration
_REFUSING = (
    "a[0] = a[0];", "y = g(i);", "while (t < 0) {{ t = t + 1; }}",
    "y = a[i];", "y = a[i % 2];", "y = i * i;", "y = i / 2;", "y = i % 5;",
    "s = s + i;", "if (i * i > x) {{ t = t + 0; }}",
)
# each faults, or returns, once the loop reaches it
_FAULTING = ("y = q;", "y = len(t);", "y = 1 / 0;", "z = z + i;",
             "if (i == x) {{ return i; }}")
_STARTS = st.one_of(st.integers(min_value=-50, max_value=50),
                    st.integers(min_value=-5, max_value=5),
                    st.integers(min_value=0, max_value=20),
                    st.integers(min_value=INT_MAX - 40, max_value=INT_MAX),
                    st.integers(min_value=INT_MIN, max_value=INT_MIN + 40))


def _program(cond, before, k, after, c):
    step = f"i = i + {k};" if k > 0 else f"i = i - {-k};"
    body = " ".join(before + [step] + after).format(c=c)
    return parse_program(f"""
fn g(v) {{
  return v;
}}
fn f(a, x, i, j) {{
  s = 1;
  t = 0;
  y = 0;
  while ({cond}) {{
    {body}
  }}
  return i;
}}
""")


def _clamped(value):
    return min(max(value, INT_MIN), INT_MAX)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cond=st.sampled_from(_CONDS),
       before=st.lists(st.sampled_from(_STATEMENTS), max_size=3),
       after=st.lists(st.sampled_from(_STATEMENTS), max_size=3),
       extra=st.one_of(st.just([]), st.lists(
           st.sampled_from(_REFUSING + _FAULTING), min_size=1, max_size=1)),
       k=st.sampled_from([1, 2, 7, 1000, -1, -3, -1000]),
       i=_STARTS, j=st.integers(min_value=-3, max_value=6),
       a=st.lists(st.integers(min_value=-2, max_value=2), min_size=1,
                  max_size=4).map(tuple),
       c=st.integers(min_value=0, max_value=3),
       flip=st.one_of(st.integers(min_value=-3, max_value=3),
                      st.just(10 ** 6)),
       budget=BUDGETS)
def _check_generated(fired, cond, before, after, extra, k, i, j, a, c, flip,
                     budget):
    cp = compile_program(_program(cond, before + extra, k, after, c))
    # a first run, with `x` far ahead of `i`, finds the value of `i` at
    # the verdict and the periods left; `x` is then put `flip` periods from
    # where `i` is when the budget runs out
    seen = []
    with _spied(seen):
        _outcome(cp, [a, _clamped(i + k * 10 ** 6), i, j], budget)
    if seen:
        env, steps, length = seen[0]
        x = env["i"] + (steps // (length + 1) + flip) * k
    else:
        x = i + flip * k
    _compare(cp, [a, _clamped(x), i, j], budget, fired)


def test_generated_loops_give_the_literal_outcome():
    fired = []
    _check_generated(fired)
    assert len(fired) >= 40
    # and some of them near the ends of the range
    assert any(abs(v) > INT_MAX // 2 for env, _, _ in fired
               for v in env.values() if type(v) is int)


def test_every_refusing_shape_runs_literally():
    for statement in _REFUSING:
        cp = compile_program(_program("i != x", [statement], 1, [], 0))
        fired, refused = [], []
        args = [(0,) * 20, -1, 0, 1]
        with _spied(fired, refused):
            outcome = _outcome(cp, args, 5000)[0]
        assert (fired, refused) == ([], [None]), statement
        with _literal():
            assert _outcome(cp, args, 5000)[0] == outcome


def test_an_error_inside_the_pass_is_a_refusal(monkeypatch):
    cp = compile_program(_program("i != x", [], 1, [], 0))
    with _literal():
        literal = _outcome(cp, [(1,), -1, 0, 0], 5000)[0]
    for error in (RecursionError, TypeError, ToyFault("index", "")):
        def broken(*args):
            raise error
        monkeypatch.setattr(interp, "_affine", broken)
        fired, refused = [], []
        with _spied(fired, refused):
            assert _outcome(cp, [(1,), -1, 0, 0], 5000)[0] == literal
        assert (fired, len(refused)) == ([], 1)


# ------------------------------------------------- the budget boundary

# loops whose outcome turns on the last iterations the budget allows:
# (program, arguments), with f(a, x, i, j)
BOUNDARY_SHAPES = {
    # the branch is first taken in the iteration that tries the verdict
    "late-branch": ("""
fn f(a, x, i, j) {
  while (1) {
    i = i + 1;
    if (i >= 8) {
      j = j;
    }
  }
  return i;
}
""", [(0,), 0, 0, 0]),
    # x - i reaches the least int in iteration 40, and its negation faults
    "negated-least": ("""
fn f(a, x, i, j) {
  while (1) {
    i = i + 1;
    j = -(x - i);
  }
  return i;
}
""", [(0,), INT_MIN + 40, 0, 0]),
    # the loop ends when i - x is 0, in iteration 40
    "truth": ("""
fn f(a, x, i, j) {
  while (i - x) {
    i = i + 1;
  }
  return i;
}
""", [(0,), 40, 0, 0]),
    # j is an array at the seventh check and an int from the eighth on
    "array-to-int": ("""
fn f(a, x, i, j) {
  while (1) {
    i = i + 1;
    if (i < 7) {
      j = a;
    } else {
      j = 0;
    }
  }
  return i;
}
""", [(0,), 0, 0, 0]),
    # only the array changes between the seventh and eighth checks, and
    # the frame repeats from there
    "array-settles": ("""
fn f(a, x, i, j) {
  while (1) {
    if (i < 6) {
      i = i + 1;
    } else {
      if (a[0] == 0) {
        a[0] = 5;
      }
    }
  }
  return i;
}
""", [(0,), 0, 0, 0]),
}


@pytest.mark.parametrize("shape", BOUNDARY_SHAPES)
def test_every_budget_up_to_400_gives_the_literal_outcome(shape):
    text, args = BOUNDARY_SHAPES[shape]
    cp = compile_program(parse_program(text))
    fired = []
    for budget in range(1, 401):
        _compare(cp, args, budget, fired)
    assert bool(fired) == (shape not in ("array-to-int", "array-settles"))


# ------------------------------------------------ corpus mutant lineages


@functools.cache
def _drifting_variants():
    """The exactness oracle's corpus variants (single edits and seeded
    lineages) in which some loop reaches the verdict at the oracle's
    budget, each with its bug."""
    found = []
    for bug, program in _oracle_variants():
        reached = []
        with _spied(reached, reached):
            for suite in (bug.repair_suite, bug.heldout_suite):
                run_tests(program, suite, ORACLE_BUDGET)
        if reached:
            found.append((bug, program))
    return found


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pick=st.integers(min_value=0, max_value=2 ** 16), budget=BUDGETS)
def _check_variant(fired, pick, budget):
    variants = _drifting_variants()
    bug, program = variants[pick % len(variants)]
    for suite in (bug.repair_suite, bug.heldout_suite):
        with _spied(fired):
            report = run_tests(program, suite, budget, coverage=True)
        with _literal():
            assert run_tests(program, suite, budget, coverage=True) == report


def test_corpus_variants_give_the_literal_outcome():
    assert len(_drifting_variants()) > 50
    fired = []
    _check_variant(fired)
    assert len(fired) >= 20


# ------------------------------------------------- P0's drifting shapes

# (program, arguments, steps before the loop, steps per iteration)
P0_SHAPES = {
    "or-invariant": ("""
fn f(a, n) {
  t = 0;
  i = 0;
  while (t == 0 || i < n) {
    i = i + 1;
  }
  return i;
}
""", [(3,), 1], 2, 2),
    "ne-nested": ("""
fn f(a, n) {
  i = n;
  while (i != 0) {
    if (i != 0) {
      i = i + 1;
    }
  }
  return i;
}
""", [(3,), 1], 1, 3),
    "sum-reset": ("""
fn f(a, n) {
  s = 0;
  i = 0;
  while (i < n - 1) {
    if (s != 0) {
      s = s + a[i];
    }
    i = 0;
    if (i != 0) {
      i = i + 1;
    }
    s = s + a[i];
  }
  return s;
}
""", [(2, 3, 4), 3], 2, 6),
}


@pytest.mark.parametrize("budget", [5000, 100_000])
@pytest.mark.parametrize("shape", P0_SHAPES)
def test_p0_shapes_are_decided_within_ten_condition_checks(shape, budget):
    text, args, prefix, period = P0_SHAPES[shape]
    cp = compile_program(parse_program(text))
    fired = []
    outcome = _compare(cp, args, budget, fired)
    assert outcome[1] == "budget" and len(fired) == 1
    with _spied([]):
        steps = _outcome(cp, args, budget)[1]
    assert budget - steps <= prefix + 10 * period


# ---------------------------------------------------- a nearly full stack


def test_a_drifting_loop_at_toy_depth_100_on_a_nearly_full_stack():
    # the loop runs in the 100th nested call; its update is an expression
    # forty levels deep, which the affine pass takes about twice the
    # Python frames to read that the compiled code does
    nest = "1"
    for _ in range(40):
        nest = f"(1 + {nest})"
    program = parse_program(f"""
fn f(n) {{
  if (n < {MAX_CALL_DEPTH - 1}) {{
    return f(n + 1);
  }}
  i = 0;
  while (i >= 0) {{
    i = i + {nest} - 40;
  }}
  return i;
}}
""")
    suite = parse_suite("t | f | 0 | 0\n", "<string>")
    with _literal():
        literal = run_tests(program, suite, 5000, coverage=True)
    assert literal.faults == ["budget"]

    def nested(levels):
        if levels:
            return nested(levels - 1)
        return run_tests(program, suite, 5000, coverage=True)

    fired, refused = [], []
    limit = sys.getrecursionlimit()
    with _spied(fired, refused):
        for free in range(60, limit - _stack_depth() - 20, 4):
            assert nested(limit - _stack_depth() - free) == literal
    assert sys.getrecursionlimit() == limit
    # some runs had room for the pass, and some ran out of stack in it
    assert fired and refused
