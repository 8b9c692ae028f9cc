"""Coverage-contrast fault localization.

Every statement gets a repair weight from the union coverage of failing
versus passing tests on the buggy program:

    1.0  executed only by failing tests
    0.1  executed by failing and passing tests
    0.0  everything else (passing-only or never executed)

Mutation targeting samples statements proportionally to these weights, so
statements never touched by a failing run are unreachable for repair.
"""

from __future__ import annotations

from typing import NamedTuple

from .interp import FitnessReport, run_tests
from .syntax import Program, program_statements

WEIGHT_FAILING_ONLY = 1.0
WEIGHT_MIXED = 0.1


class NothingToRepair(Exception):
    """Every test already passes on the program under repair."""


class LocalizeResult(NamedTuple):
    weights: dict          # statement id -> weight
    report: FitnessReport  # the coverage run on the buggy program


def localize(program: Program, suite, step_budget: int) -> LocalizeResult:
    report = run_tests(program, suite, step_budget=step_budget, coverage=True)
    if all(report.flags):
        raise NothingToRepair("all tests pass; nothing to localize")
    failing, passing = set(), set()
    for ok, cov in zip(report.flags, report.coverage):
        (passing if ok else failing).update(cov)
    weights = {}
    for _, stmt in program_statements(program):
        if stmt.sid in failing:
            weights[stmt.sid] = (WEIGHT_MIXED if stmt.sid in passing
                                 else WEIGHT_FAILING_ONLY)
        else:
            weights[stmt.sid] = 0.0
    return LocalizeResult(weights, report)
