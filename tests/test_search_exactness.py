"""Byte guard for the search path.

The digest below is the sha256 of detail.json for a small plan with long
lineages (18 arms, 15 generations, one patch of seven edits), recorded
while every variant's program was still rebuilt from the original by
replaying its whole edit list.  Building a mutation child from its
parent's program must not change a byte of it.
"""

import hashlib

from patchbandit.experiment import ConfigSpec, ExperimentPlan, run_experiment

LONG_LINEAGE_PLAN = ExperimentPlan(
    configs=(ConfigSpec("uniform", arms="arms18"),
             ConfigSpec("ucb", credit="erwa", arms="arms18")),
    bug_names=("init-1", "worstloss-1"), attempts=1, base_seed=0,
    population_size=40, generations=15, step_budget=5000)

DETAIL_SHA256 = \
    "7df2ae4c4747a2f50988cbe6cb2d3b9c0962213840eacaca3d8ea2b9cce1b1df"


def test_long_lineage_plan_matches_the_recorded_detail_digest(monkeypatch):
    monkeypatch.setenv("REPAIR_JOBS", "1")
    report = run_experiment(LONG_LINEAGE_PLAN)
    evaluations = [record["total_evaluations"]
                   for block in report.detail["configs"]
                   for records in block["bugs"].values()
                   for record in records]
    assert evaluations == [544, 461, 481, 9]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
        DETAIL_SHA256
