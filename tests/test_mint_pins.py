"""sha256 pins over what mint_edit and enumerate_edits produce.

A mint's outcome is the Edit it returns, or "inapplicable" when it raises
InapplicableOperator.  The pins cover every corpus bug, all eighteen
operators and several rng seeds, on the buggy program and along a lineage
of minted-and-applied mutants of it, under the bug's `localize` weights
and under all-ones weights.  Any change to the candidate order, the
weights' running sums, the options of a target or the rng calls changes
them.  The gate's table pins only how many edits each bug enumerates, so
each bug's enumerated sequence is pinned here too.
"""

import hashlib
import random

import pytest

from patchbandit.corpus import load_corpus
from patchbandit.toylang.localize import localize
from patchbandit.toylang.mutate import (ALL_OPERATORS, InapplicableOperator,
                                        apply_edit, enumerate_edits,
                                        mint_edit)
from patchbandit.toylang.syntax import program_statements

BUDGET = 100_000
LINEAGE_STEPS = 8
SEEDS = (0, 1, 2, 3)

MINT_DIGEST = \
    "8db1777942d014e079ec55c22ba0ac68cc1316ce467cb0f3c6934b37b1157fce"

ENUMERATION_DIGESTS = {
    "callswap-1": "dd0219a905113d2d",
    "dupadd-1": "8388e0672a7ae32c",
    "guard-1": "3de92a69fb30db54",
    "init-1": "be6f803fe5926e37",
    "mid3": "19e428252ff3dbd2",
    "negbal-1": "2c19100db34c34fe",
    "offbyone-1": "dc6543acb53f347a",
    "reset-1": "3d281ad33ccc7af0",
    "sched-1": "337fee77c695b45a",
    "span-1": "703df72e67c664a7",
    "swap-1": "532aac4956e8f7d7",
    "worstloss-1": "bd07995ca19e48fc",
}


@pytest.fixture(scope="module")
def bugs():
    return load_corpus(None)


def _ones(program):
    return {stmt.sid: 1.0 for _, stmt in program_statements(program)}


def _outcome(operator, program, weights, seed):
    try:
        return repr(mint_edit(operator, program, weights,
                              random.Random(seed)))
    except InapplicableOperator:
        return "inapplicable"


def _lineage(program, seed):
    """program and LINEAGE_STEPS mutants, each the last one with a minted
    edit applied; a step whose mint finds no site or whose edit is a no-op
    keeps the program."""
    rng = random.Random(seed)
    programs = [program]
    for _ in range(LINEAGE_STEPS):
        try:
            edit = mint_edit(rng.choice(ALL_OPERATORS), program,
                             _ones(program), rng)
        except InapplicableOperator:
            pass
        else:
            program, _ = apply_edit(program, edit)
        programs.append(program)
    return programs


def _mint_lines(bug, index):
    located = localize(bug.program, bug.repair_suite, BUDGET).weights
    for step, program in enumerate(_lineage(bug.program, index)):
        for label, weights in (("localize", located),
                               ("ones", _ones(program))):
            for operator in ALL_OPERATORS:
                for seed in SEEDS:
                    yield (f"{bug.name} {step} {label} {operator} {seed} "
                           + _outcome(operator, program, weights, seed))


def _digest(lines):
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def test_mint_outcomes_match_their_digest(bugs):
    lines = [line for index, bug in enumerate(bugs)
             for line in _mint_lines(bug, index)]
    assert len(lines) == len(bugs) * (LINEAGE_STEPS + 1) * 2 \
        * len(ALL_OPERATORS) * len(SEEDS)
    assert _digest(lines) == MINT_DIGEST


def test_each_bugs_enumerated_edits_match_their_digest(bugs):
    digests = {}
    for index, bug in enumerate(bugs):
        located = localize(bug.program, bug.repair_suite, BUDGET).weights
        last = _lineage(bug.program, index)[-1]
        edits = [*enumerate_edits(bug.program, located),
                 *enumerate_edits(bug.program, _ones(bug.program)),
                 *enumerate_edits(last, _ones(last))]
        digests[bug.name] = _digest(map(repr, edits))[:16]
    assert digests == ENUMERATION_DIGESTS
