"""Compiled code kept on the syntax nodes.

A node keeps the code it compiles to, so a program compiles only the
nodes that no program compiled before, and a variant shares its parent's
code wherever it shares its parent's nodes.  That is exact only while a
node's code depends on its own subtree alone: a call finds its callee in
the run's context, and running a program is a function of its value.
"""

import random

import pytest

from patchbandit.corpus import load_corpus
from patchbandit.toylang import (ALL_OPERATORS, Edit, InapplicableOperator,
                                 apply_edit, compile_program, enumerate_edits,
                                 localize, mint_edit, passes_all, run_tests)
from patchbandit.toylang import interp
from patchbandit.toylang.syntax import walk_statements
from test_mutate import _rebuilt

BUDGET = 100_000
LINEAGES_PER_BUG = 6
LINEAGE_STEPS = 8


def _bug(name):
    return next(bug for bug in load_corpus(None) if bug.name == name)


def test_a_shared_caller_calls_its_own_programs_callee():
    bug = _bug("callswap-1")
    original = bug.program
    before = run_tests(original, bug.repair_suite, BUDGET)
    assert before.flags == [True, False, True, False, False, True]
    # `return x / 2;` in half becomes `return x / 3;`
    ret = original.function("half").body[0]
    variant, applied = apply_edit(
        original, Edit("const_perturb", ret.sid, ("expr", "right"), (1,)))
    assert applied
    caller = original.function("split_fee")
    assert variant.function("split_fee") is caller
    assert caller._code is not None
    assert compile_program(variant)["split_fee"] is caller._code
    report = run_tests(variant, bug.repair_suite, BUDGET)
    assert report.flags == [False, True, False, True, True, False]
    assert report == run_tests(_rebuilt(variant), bug.repair_suite, BUDGET)
    assert passes_all(variant, bug.repair_suite[1:2], BUDGET)
    assert run_tests(original, bug.repair_suite, BUDGET) == before


def _lineage(bug, weights, rng):
    """The programs LINEAGE_STEPS mints and applies make, in turn."""
    program = bug.program
    for _ in range(LINEAGE_STEPS):
        try:
            edit = mint_edit(rng.choice(ALL_OPERATORS), program, weights,
                             rng)
        except InapplicableOperator:
            continue
        program = apply_edit(program, edit)[0]
        yield program


@pytest.mark.parametrize("bug", load_corpus(None), ids=lambda bug: bug.name)
def test_running_a_program_is_a_function_of_its_value(bug):
    # each variant runs on the code its nodes keep, most of it compiled
    # for the programs before it, and its twin on code compiled afresh
    weights = localize(bug.program, bug.repair_suite, 5000).weights
    rng = random.Random(f"run:{bug.name}")
    for _ in range(LINEAGES_PER_BUG):
        for program in _lineage(bug, weights, rng):
            for suite in (bug.repair_suite, bug.heldout_suite):
                for budget in (5_000, 100_000):
                    report = run_tests(program, suite, budget, coverage=True)
                    verdict = passes_all(program, suite, budget)
                    assert run_tests(_rebuilt(program), suite, budget,
                                     coverage=True) == report
                    assert passes_all(_rebuilt(program), suite,
                                      budget) is verdict


def test_compile_cost_follows_the_edit(monkeypatch):
    built = []
    compile_stmt = interp._compile_stmt

    def spy(stmt):
        built.append(stmt)
        return compile_stmt(stmt)

    monkeypatch.setattr(interp, "_compile_stmt", spy)
    variants = rebuilt = 0
    for bug in load_corpus(None):
        compile_program(bug.program)
        kept = set(map(id, _statements(bug.program)))
        weights = localize(bug.program, bug.repair_suite, BUDGET).weights
        for edit in enumerate_edits(bug.program, weights):
            variant = apply_edit(bug.program, edit)[0]
            built.clear()
            compile_program(variant)
            fresh = set(map(id, _statements(variant))) - kept
            assert set(map(id, built)) <= fresh, edit
            assert len(set(map(id, built))) == len(built), edit
            variants += 1
            rebuilt += len(built)
    assert variants == 2_218        # the gate's single-edit variants
    assert rebuilt > 0


def _statements(program):
    return [stmt for fn in program.functions
            for stmt in walk_statements(fn.body)]
