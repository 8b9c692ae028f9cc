"""Byte guards for the search path.

The first digest below is the sha256 of detail.json for a small plan with
long lineages (18 arms, 15 generations, one patch of seven edits),
recorded while every variant's program was still rebuilt from the
original by replaying its whole edit list.  Building a mutation child from
its parent's program must not change a byte of it.

The second covers the selection axes every other byte pin leaves at
``reward=raw cadence=generation``: relative rewards, credits applied per
mutation, and each policy and credit assigner under them.

Each plan also pins every case the interpreter runs on its way, in order:
the pass flag, the fault kind and the sorted coverage (None when the run
asks for none).  No artifact reads a fault kind, so only this pin sees
one move along a search.
"""

import hashlib

from patchbandit.experiment import ConfigSpec, ExperimentPlan, run_experiment
from patchbandit.toylang import interp

LONG_LINEAGE_PLAN = ExperimentPlan(
    configs=(ConfigSpec("uniform", arms="arms18"),
             ConfigSpec("ucb", credit="erwa", arms="arms18")),
    bug_names=("init-1", "worstloss-1"), attempts=1, base_seed=0,
    population_size=40, generations=15, step_budget=5000)

AXES_PLAN = ExperimentPlan(
    configs=(ConfigSpec("pm", credit="avg", reward="relative",
                        cadence="mutation", arms="3"),
             ConfigSpec("ap", credit="erwa", reward="relative",
                        cadence="generation", arms="7"),
             ConfigSpec("egreedy", credit="avg", reward="raw",
                        cadence="mutation", arms="18"),
             ConfigSpec("ucb", credit="erwa", reward="relative",
                        cadence="mutation", arms="7")),
    bug_names=("guard-1", "init-1", "offbyone-1", "span-1"), attempts=2,
    base_seed=0, population_size=20, generations=8, step_budget=5000)

AXES_SHA256 = \
    "4eeb9fc26a175e9a83d8b00739c6ee1bd88e2d6e542eb9feabd054f32311bb8c"

DETAIL_SHA256 = \
    "7df2ae4c4747a2f50988cbe6cb2d3b9c0962213840eacaca3d8ea2b9cce1b1df"


LONG_LINEAGE_CASES_SHA256 = \
    "39e6a34cda499e0a442c373e6e0fc32a76372305391d4b1895d028e7477b34a5"

AXES_CASES_SHA256 = \
    "7b66832832528ddce00f3e135963d261e76049566638d353a9fa0c216f537cb0"


def _spy_cases(monkeypatch):
    """A digest that every later `interp._run_case` call updates with
    its outcome."""
    digest = hashlib.sha256()
    run_case = interp._run_case

    def spied(*args):
        ok, fault, cov = outcome = run_case(*args)
        digest.update(repr((ok, fault, cov if cov is None
                            else sorted(cov))).encode())
        return outcome

    monkeypatch.setattr(interp, "_run_case", spied)
    return digest


def _total_evaluations(report):
    return [record["total_evaluations"]
            for block in report.detail["configs"]
            for records in block["bugs"].values()
            for record in records]


def test_long_lineage_plan_matches_the_recorded_detail_digest(monkeypatch):
    monkeypatch.setenv("REPAIR_JOBS", "1")
    cases = _spy_cases(monkeypatch)
    report = run_experiment(LONG_LINEAGE_PLAN)
    assert _total_evaluations(report) == [544, 461, 481, 9]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
        DETAIL_SHA256
    assert cases.hexdigest() == LONG_LINEAGE_CASES_SHA256


def test_selection_axes_plan_matches_the_recorded_detail_digest(monkeypatch):
    monkeypatch.setenv("REPAIR_JOBS", "1")
    cases = _spy_cases(monkeypatch)
    report = run_experiment(AXES_PLAN)
    assert _total_evaluations(report) == [
        118, 115, 154, 155, 160, 168, 174, 169,
        120, 131, 157, 165, 161, 151, 163, 165,
        8, 81, 162, 161, 160, 151, 168, 168,
        73, 74, 151, 157, 154, 135, 172, 160]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
        AXES_SHA256
    assert cases.hexdigest() == AXES_CASES_SHA256
