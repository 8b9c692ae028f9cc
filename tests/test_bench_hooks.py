"""The benchmark in perfbench/ wraps functions of the program by name.

These tests resolve every name it hooks and read a plan cell's task the
way it does, so renaming a hooked function or reshaping the task fails
here, not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from patchbandit import engine, experiment
from patchbandit.engine import ConfigSpec
from patchbandit.experiment import ExperimentPlan, run_experiment

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_hooked_name_resolves(spans):
    hooks = [(module, attribute) for module, attribute, *_ in
             spans.LAYER_HOOKS + spans.GENERATOR_HOOKS]
    hooks += [("patchbandit.experiment", "_run_attempt"),
              ("patchbandit.corpus", "check_bug")]
    for module, attribute in hooks:
        owner, name = spans._owner(module, attribute)
        assert callable(getattr(owner, name, None)), (module, attribute)


def test_cell_key_reads_a_task_of_run_experiment(spans, monkeypatch):
    tasks = []
    run_attempt = experiment._run_attempt

    def capture(task):
        tasks.append(task)
        return run_attempt(task)

    monkeypatch.setenv("REPAIR_JOBS", "1")
    monkeypatch.setattr(experiment, "_run_attempt", capture)
    spec = ConfigSpec("ap", credit="erwa", arms="7")
    plan = ExperimentPlan(configs=(spec,), bug_names=("reset-1",),
                          attempts=1, population_size=4, generations=1)
    run_experiment(plan)

    (task,) = tasks
    seed = plan.seed_for("reset-1", spec, 0)
    assert spans._cell_key((task,)) == f"ap|arms7|reset-1|{seed}"
    assert len(task) == 7
    rebuilt = ConfigSpec(*task[2])
    assert rebuilt == spec and rebuilt.key() == spec.key()


def test_a_plan_cell_builds_every_program_through_engine_apply_edits(
        spans, monkeypatch):
    # the benchmark's mutate.apply_edits span replaces the name engine
    # looks up at call time; a program built another way goes unmeasured
    built, variants = [], []
    owner, name = spans._owner("patchbandit.engine", "apply_edits")
    apply_edits = getattr(owner, name)

    def hooked(program, edits):
        result = apply_edits(program, edits)
        built.append(result[0])
        return result

    class Recorded(engine.Variant):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            variants.append(self)

    monkeypatch.setenv("REPAIR_JOBS", "1")
    monkeypatch.setattr(owner, name, hooked)
    monkeypatch.setattr(engine, "Variant", Recorded)
    plan = ExperimentPlan(configs=(ConfigSpec("uniform", arms="18"),),
                          bug_names=("guard-1",), attempts=1,
                          population_size=8, generations=6)
    run_experiment(plan)

    original = variants[0].program
    from_hook = {id(program) for program in built}
    # a crossover child is a variant with edits and no arm to credit
    crossed = [v for v in variants if v.born_arm is None
               and v.program is not None and v.edits]
    assert crossed
    for variant in variants[1:]:
        if variant.program is not None:
            assert (id(variant.program) in from_hook
                    or variant.program is original)
