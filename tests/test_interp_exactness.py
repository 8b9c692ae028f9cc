"""Exactness oracle for the interpreter's fast paths.

The digest below was recorded with the plain tree-walking interpreter,
before the loop-state key, the statically-int conditions and the inlined
leaf operands went in.  Any change to a pass/fail flag, a fault kind or a
covered statement on these variants changes it.
"""

import hashlib
import random
from collections import Counter

import pytest

from patchbandit.corpus import load_corpus
from patchbandit.toylang import (ALL_OPERATORS, InapplicableOperator,
                                 apply_edit, enumerate_edits, localize,
                                 mint_edit, run_tests)
from patchbandit.toylang.interp import ToyFault, _Ctx, compile_program
from patchbandit.toylang.syntax import parse_program

ORACLE_BUDGET = 5000
RANDOM_LISTS_PER_BUG = 100
MAX_LIST_LENGTH = 12

ORACLE_SHA256 = \
    "0e8c5379ab5adb87e937b4b7e6e8fe69eec13c84f682bd87240bae2d0367237b"
ORACLE_CALLS = 6860
ORACLE_FAULTS = {"budget": 867, "cycle": 8141, "div-zero": 215,
                 "index": 2300, "missing-return": 1048, "type": 23,
                 "undefined-variable": 6870}


def _random_edit_lists(bug, weights):
    rng = random.Random(f"oracle:{bug.name}")
    for _ in range(RANDOM_LISTS_PER_BUG):
        program = bug.program
        for _ in range(rng.randint(1, MAX_LIST_LENGTH)):
            try:
                edit = mint_edit(rng.choice(ALL_OPERATORS), program, weights,
                                 rng)
            except InapplicableOperator:
                continue
            program = apply_edit(program, edit)[0]
        yield program


def _oracle_variants():
    """Every single-edit variant, then seeded random edit lists, per bug."""
    for bug in load_corpus():
        weights = localize(bug.program, bug.repair_suite,
                           ORACLE_BUDGET).weights
        yield bug, bug.program
        for edit in enumerate_edits(bug.program, weights):
            yield bug, apply_edit(bug.program, edit)[0]
        for program in _random_edit_lists(bug, weights):
            yield bug, program


def test_flags_faults_and_coverage_match_the_recorded_digest():
    digest = hashlib.sha256()
    calls = 0
    faults = Counter()
    for bug, program in _oracle_variants():
        for suite in (bug.repair_suite, bug.heldout_suite):
            report = run_tests(program, suite, ORACLE_BUDGET, coverage=True)
            coverage = [sorted(cov) for cov in report.coverage]
            digest.update(repr((report.flags, report.faults,
                                coverage)).encode())
            calls += 1
            faults.update(kind for kind in report.faults if kind)
    assert (calls, dict(faults)) == (ORACLE_CALLS, ORACLE_FAULTS)
    assert digest.hexdigest() == ORACLE_SHA256


# ------------------------------------------------------- targeted cases


def _fault(text, args=(), budget=100_000):
    cp = compile_program(parse_program(text))
    with pytest.raises(ToyFault) as err:
        cp["f"].invoke([list(a) if isinstance(a, tuple) else a
                        for a in args], _Ctx(budget, None))
    return err.value.kind


def test_undefined_left_operand_beats_a_list_right_operand():
    for op in ("+", "-", "*", "<", "==", "/", "%"):
        assert _fault(f"fn f(a) {{ return x {op} a; }}",
                      [(1, 2)]) == "undefined-variable", op
        assert _fault(f"fn f(a) {{ return a {op} x; }}",
                      [(1, 2)]) == "undefined-variable", op
        assert _fault(f"fn f(a) {{ return a {op} 1; }}", [(1,)]) == "type", op
        assert _fault(f"fn f(a, b) {{ return b {op} a; }}",
                      [(1,), 2]) == "type", op


def test_array_condition_is_a_type_fault():
    assert _fault("fn f(a) { if (a) { return 1; } return 0; }",
                  [(1,)]) == "type"
    assert _fault("fn f(a) { while (a) { } return 0; }", [(1,)]) == "type"
    assert _fault("fn f(a) { if (a && 1) { return 1; } return 0; }",
                  [(1,)]) == "type"
    assert _fault("fn f(a) { if (0 || a[0]) { return 1; } return 0; }",
                  [((1,),)]) == "type"


def test_frozen_loop_that_grows_its_frame_late_is_still_a_cycle():
    text = """
fn f() {
  i = 0;
  while (1) {
    if (i < 100) {
      i = i + 1;
    } else {
      late = 7;
    }
  }
}
"""
    assert _fault(text) == "cycle"


def test_loops_that_change_arrays_are_never_cycles():
    # the only change per iteration is an element written through Store
    stored = """
fn f(a) {
  while (1) {
    a[0] = a[0] + 1;
  }
}
"""
    assert _fault(stored, [(0,)], budget=2000) == "budget"
    # the same array changes through a second name bound to it
    aliased = """
fn g(b) {
  b[0] = b[0] + 1;
  return 0;
}
fn f(a) {
  c = a;
  while (1) {
    x = g(c);
  }
}
"""
    assert _fault(aliased, [(0,)], budget=2000) == "budget"


def test_index_by_variable_faults_in_the_general_order():
    assert _fault("fn f(i) { return b[i]; }", [0]) == "undefined-variable"
    assert _fault("fn f(b) { return b[i]; }", [3]) == "type"
    assert _fault("fn f(b) { return b[i]; }", [(1,)]) == "undefined-variable"
    assert _fault("fn f(b, i) { return b[i]; }", [(1,), (0,)]) == "type"
    assert _fault("fn f(b, i) { return b[i]; }", [(1,), 1]) == "index"
