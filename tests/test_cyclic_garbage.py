"""Plan cells run without the cyclic garbage collector, and leave no
cyclic garbage, so reference counting alone frees what they allocate."""

import gc
import sys
from pathlib import Path

import pytest

from patchbandit import experiment
from patchbandit.engine import RepairOutcome
from patchbandit.experiment import ConfigSpec
from patchbandit.toylang import parse_program, parse_suite, passes_all, \
    run_tests

BUDGET = 100_000

# P0's three configs (perfbench/workloads.py), at a small pop and gens
P0_CONFIGS = (ConfigSpec("uniform"), ConfigSpec("ucb", credit="erwa"),
              ConfigSpec("pm", arms="7"))

# two functions that call each other
EVEN_ODD = """
fn even(n) { if (n == 0) { return 1; } return odd(n - 1); }
fn odd(n) { if (n == 0) { return 0; } return even(n - 1); }
"""


def _task(bug_name, spec):
    return (None, bug_name, tuple(spec), 7, 6, 3,
            experiment.EXPERIMENT_STEP_BUDGET)


def _cyclic_garbage(run, *args):
    """Objects in reference cycles that run(*args) leaves unreachable, found
    with the collector off while it runs."""
    gc.disable()
    try:
        gc.collect()
        run(*args)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", P0_CONFIGS, ids=lambda spec: spec.policy)
@pytest.mark.parametrize("bug_name", sorted(experiment._bugs_for(None)))
def test_a_cell_leaves_no_cyclic_garbage(bug_name, spec):
    records = []
    task = _task(bug_name, spec)
    assert _cyclic_garbage(
        lambda: records.append(experiment._run_attempt(task))) == 0
    assert records[0]["total_evaluations"] > 0


@pytest.mark.parametrize("outcome", ["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False])
def test_a_cell_runs_without_the_collector_and_restores_it(
        enabled, outcome, monkeypatch):
    seen = []

    def search(*args, **kwargs):
        seen.append(gc.isenabled())
        if outcome == "raises":
            raise RuntimeError("search failed")
        return RepairOutcome(False, None, 1, None)

    monkeypatch.setattr(experiment, "run_repair", search)
    task = _task("reset-1", P0_CONFIGS[0])
    if not enabled:
        gc.disable()
    try:
        if outcome == "raises":
            with pytest.raises(RuntimeError, match="search failed"):
                experiment._run_attempt(task)
        else:
            assert experiment._run_attempt(task)["total_evaluations"] == 1
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]


def test_runs_of_functions_that_call_each_other_leave_no_cyclic_garbage():
    program = parse_program(EVEN_ODD)
    # a pass, a failure, a depth fault and a missing entry function
    suite = parse_suite("a | even | 4 | 1\nb | odd | 4 | 1\n"
                        "c | even | 500 | 1\n", "<string>")
    missing = parse_suite("d | none | 1 | 1\n", "<string>")
    assert run_tests(program, suite, BUDGET).faults == [None, None, "depth"]
    for run, cases in [(run_tests, suite), (run_tests, missing),
                       (passes_all, suite), (passes_all, suite[:1]),
                       (passes_all, missing)]:
        assert _cyclic_garbage(run, program, cases, BUDGET) == 0


def test_a_compile_that_runs_out_of_stack_leaves_no_cyclic_garbage():
    # `even` and `odd` compile first; forty nested ifs then outgrow the
    # 60 frames left, so the whole run is rerun with room
    deep = "return 0;"
    for _ in range(40):
        deep = f"if (n >= 0) {{ {deep} }}"
    program = parse_program(EVEN_ODD + f"fn f(n) {{ {deep} return 1; }}")
    suite = parse_suite("t | even | 2 | 1\n", "<string>")

    def nested(levels):
        if levels:
            return nested(levels - 1)
        return run_tests(program, suite, BUDGET)

    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    levels = sys.getrecursionlimit() - depth - 60
    assert _cyclic_garbage(nested, levels) == 0
    assert nested(levels).flags == [True]


def test_a_test_that_leaves_the_collector_off_fails(pytester):
    pytester.makeconftest(
        (Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile("""
        import gc

        def test_leaks():
            gc.disable()

        def test_after():
            assert gc.isenabled()
    """)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=2, errors=1)
    assert gc.isenabled()
