"""Metamorphic relations over plans.

A cell's records depend on its bug, its config and the plan's settings
alone: not on the plan's other cells, not on the order the plan lists its
bugs and configs, and not on what ran before the cell in the same process.
A journal that resumes a plan, a replay of one cell and a table shared by
a plan's cells all rest on that.  Each relation compares serial runs of a
small plan with runs of plans built from it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patchbandit
from patchbandit.experiment import parse_plan, run_experiment

SETTINGS = ("base_seed = 11\nattempts = 2\npop = 10\ngens = 4\n"
            "step_budget = 5000\n")
BUGS = ("callswap-1", "init-1", "mid3")
CONFIGS = ("uniform", "ucb credit=erwa", "pm arms=7")


def _plan(bugs, configs):
    return (SETTINGS + f"bugs = {', '.join(bugs)}\n"
            + "".join(f"config = {config}\n" for config in configs))


def _blocks(detail_json, configs):
    """Config line -> its block of the detail, as JSON reads it back."""
    return dict(zip(configs, json.loads(detail_json)["configs"]))


def _run(bugs, configs):
    """The blocks of the plan's serial run in this process."""
    report = run_experiment(parse_plan(_plan(bugs, configs)))
    return _blocks(report.to_json(), configs)


@pytest.fixture(scope="module")
def serial():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPAIR_JOBS", "1")
        yield _run


@pytest.fixture(scope="module")
def full(serial):
    return serial(BUGS, CONFIGS)


@pytest.mark.parametrize("bugs, configs", [
    (("mid3",), ("pm arms=7",)),
    (("init-1", "callswap-1"), ("pm arms=7", "uniform")),
], ids=["one-cell-pair", "two-by-two-reversed"])
def test_every_cell_of_a_sub_plan_equals_that_cell_of_the_full_plan(
        serial, full, bugs, configs):
    for config, block in serial(bugs, configs).items():
        assert sorted(block["bugs"]) == sorted(bugs)
        for bug, records in block["bugs"].items():
            assert records == full[config]["bugs"][bug], (config, bug)


def test_permuting_bugs_and_configs_permutes_the_blocks_only(serial, full):
    bugs = BUGS[::-1]
    configs = CONFIGS[1:] + CONFIGS[:1]
    for config, block in serial(bugs, configs).items():
        assert block == full[config], config


def test_a_cell_in_a_fresh_process_equals_it_after_the_rest_of_the_plan(
        full):
    # the full plan ran (pm arms=7, mid3) last in this process
    bugs, configs = BUGS[-1:], CONFIGS[-1:]
    script = ("import sys\n"
              "from patchbandit.experiment import parse_plan, run_experiment\n"
              "sys.stdout.write(run_experiment(parse_plan(sys.stdin.read()))"
              ".to_json())\n")
    paths = [str(Path(patchbandit.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "REPAIR_JOBS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", script],
                          input=_plan(bugs, configs), env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    fresh = _blocks(done.stdout, configs)[configs[0]]["bugs"][bugs[0]]
    assert fresh == full[configs[0]]["bugs"][bugs[0]]
