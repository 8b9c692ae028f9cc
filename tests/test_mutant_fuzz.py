"""Fuzz: mutated programs of any shape fail tests; they never crash.

Long edit lists are minted on successive programs of two lineages, with
every statement of the program so far a possible target, and then
spliced across the lineages as crossover splices them.  Whatever program
results must apply without raising, print to text that parses back to
the same shape, and run through both suites to a list of flags.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from patchbandit.corpus import load_corpus
from patchbandit.toylang import (ALL_OPERATORS, InapplicableOperator,
                                 apply_edit, apply_edits, mint_edit,
                                 parse_program, print_program,
                                 program_statements, run_tests, same_shape)

BUDGET = 5000
MAX_EDITS = 60

operators_st = st.lists(st.sampled_from(ALL_OPERATORS), max_size=MAX_EDITS)


def _lineage(program, operators, rng):
    """Edits minted one after another, each on the program so far."""
    edits = []
    for operator in operators:
        weights = {stmt.sid: 1.0 for _, stmt in program_statements(program)}
        try:
            edit = mint_edit(operator, program, weights, rng)
        except InapplicableOperator:
            continue
        edits.append(edit)
        program = apply_edit(program, edit)[0]
    return edits


@pytest.mark.parametrize("bug", load_corpus(None), ids=lambda bug: bug.name)
@settings(max_examples=40, deadline=None)
@given(first=operators_st, second=operators_st,
       seed=st.integers(min_value=0, max_value=2 ** 32),
       cut_left=st.floats(0.0, 1.0), cut_right=st.floats(0.0, 1.0))
def test_spliced_mutants_apply_round_trip_and_run(bug, first, second, seed,
                                                  cut_left, cut_right):
    rng = random.Random(seed)
    left = _lineage(bug.program, first, rng)
    right = _lineage(bug.program, second, rng)
    # a splice keeps a prefix of one lineage and a suffix of the other; the
    # suffix's edits may lose their target or donor and become no-ops
    spliced = (left[:int(cut_left * len(left))]
               + right[int(cut_right * len(right)):])
    for edits in (left, spliced):
        program, flags = apply_edits(bug.program, edits)
        assert len(flags) == len(edits)
        assert same_shape(parse_program(print_program(program)), program)
        for suite in (bug.repair_suite, bug.heldout_suite):
            report = run_tests(program, suite, step_budget=BUDGET)
            assert len(report.flags) == len(suite)
