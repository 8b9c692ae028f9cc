"""Acceptance suite: one test per headline behavior, each with explicit
tolerances and a wall-clock budget.

Expected values are independent closed forms or frozen calibration
constants; nothing here is read back from the modules under test. The
repair-matrix tests share one module-scoped experiment run.
"""

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import patchbandit
from patchbandit import aos
from patchbandit.aos import Controller, DEFAULT_ALPHA, compute_reward
from patchbandit.corpus import load_corpus, run_gate
from patchbandit.engine import derive_seed
from patchbandit.experiment import (
    CSV_COLUMNS,
    ConfigSpec,
    ExperimentPlan,
    run_experiment,
)
from patchbandit import cli

from bandit_env import BanditSpec, probabilities, qualities, run_episode


# ------------------------------------------------- policy math, exact


def test_policy_update_equations_match_closed_forms():
    t0 = time.perf_counter()

    # probability matching: equal qualities share mass exactly
    pm = Controller(ConfigSpec(policy="pm", credit="avg", cadence="mutation"), 3)
    for arm in range(3):
        pm.credit(arm, 0.5)
    for p in probabilities(pm):
        assert abs(p - 1 / 3) <= 1e-9

    # recency-weighted update from the optimistic start:
    # Q = 1.0 + 0.8 * (0.0 - 1.0) = 0.2
    er = Controller(
        ConfigSpec(policy="pm", credit="erwa", alpha=0.8, cadence="mutation"), 2)
    er.credit(0, 0.0)
    assert abs(qualities(er)[0] - 0.2) <= 1e-9

    # pursuit: the unique winner takes one beta-step toward the ceiling,
    # N=3 from uniform: P_1 = 1/3 + 0.8 * (2/3 - 1/3) = 0.6, losers 0.2
    ap = Controller(ConfigSpec(policy="ap", credit="avg", cadence="mutation"), 3)
    ap.credit(1, 2.0)
    assert abs(probabilities(ap)[1] - 0.6) <= 1e-9
    assert abs(probabilities(ap)[0] - 0.2) <= 1e-9
    assert abs(probabilities(ap)[2] - 0.2) <= 1e-9

    # relative reward divides by the parent, raw fallback without one
    assert abs(compute_reward(0.75, 0.5, "relative") - 1.5) <= 1e-9
    assert abs(compute_reward(0.75, 0.0, "relative") - 0.75) <= 1e-9
    assert abs(compute_reward(0.75, None, "relative") - 0.75) <= 1e-9

    # tuned per-policy step sizes and the derived floor/ceiling
    assert DEFAULT_ALPHA == {"pm": 0.8, "ucb": 0.8, "ap": 0.2, "egreedy": 0.4}
    resolved = Controller(ConfigSpec(policy="pm"), 4)
    assert abs(resolved.p_min - 1 / 8) <= 1e-9
    assert abs(resolved.p_max - 5 / 8) <= 1e-9

    assert time.perf_counter() - t0 < 1.0


def test_selection_distributions_stay_normalized_and_bounded():
    t0 = time.perf_counter()

    for i in range(5000):
        rng = random.Random(derive_seed("accept-dist", "pm", i))
        n = rng.randint(2, 8)
        c = Controller(
            ConfigSpec(policy="pm", credit="avg", cadence="mutation"), n)
        if rng.random() < 0.2:
            for arm in range(n):  # zero total mass: uniform fallback
                c.credit(arm, 0.0)
        for _ in range(rng.randint(1, 12)):
            c.credit(rng.randrange(n),
                     rng.random() * rng.choice((0.0, 0.5, 1.0, 2.0)))
        probs = probabilities(c)
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert min(probs) >= c.p_min - 1e-12

    for i in range(5000):
        rng = random.Random(derive_seed("accept-dist", "ap", i))
        n = rng.randint(2, 8)
        c = Controller(
            ConfigSpec(policy="ap", credit="avg", cadence="mutation"), n)
        for _ in range(rng.randint(1, 12)):
            c.credit(rng.randrange(n), rng.random() * 2.0)
        probs = probabilities(c)
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert min(probs) >= c.p_min - 1e-12
        assert max(probs) <= c.p_max + 1e-12

        # pursuit contracts the winner's ceiling gap by (1 - beta) per
        # credit; one 50.0 makes `best` the strict argmax (other means <= 2)
        best = rng.randrange(n)
        c.credit(best, 50.0)
        gap = abs(probabilities(c)[best] - c.p_max)
        for _ in range(5):
            c.credit(best, 50.0)
        shrink = (1 - aos.BETA) ** 5
        assert abs(probabilities(c)[best] - c.p_max) <= shrink * gap + 1e-9

    assert time.perf_counter() - t0 < 10.0


# -------------------------------------------- synthetic-bandit behavior


def test_policies_converge_to_best_arm_within_thresholds():
    t0 = time.perf_counter()

    # pursuit pins the best arm's probability to the ceiling
    for s in range(5):
        rng = random.Random(derive_seed("accept-ap", s))
        c = Controller(
            ConfigSpec(policy="ap", credit="avg", cadence="mutation"), 2)
        run_episode(BanditSpec([0.1, 0.9]), c, 500, rng)
        assert abs(probabilities(c)[1] - c.p_max) <= 1e-3

    # epsilon-greedy settles on the best of five arms: expected pull rate
    # 1 - eps + eps/5, asserted with a 0.05 margin over the last half
    eps = 0.2
    for s in range(5):
        rng = random.Random(derive_seed("accept-eg", s))
        c = Controller(
            ConfigSpec(policy="egreedy", credit="avg", cadence="mutation"), 5)
        ep = run_episode(
            BanditSpec([0.1, 0.3, 0.5, 0.7, 0.9]), c, 20000, rng)
        rate = ep.selections[10000:].count(4) / 10000
        assert rate >= 1 - eps + eps / 5 - 0.05

    # optimistic exploration still commits to the clearly better arm
    for s in range(5):
        rng = random.Random(derive_seed("accept-ucb", s))
        c = Controller(
            ConfigSpec(policy="ucb", credit="avg", cadence="mutation"), 2)
        ep = run_episode(BanditSpec([0.9, 0.1]), c, 10000, rng)
        assert ep.selections.count(0) / 10000 >= 0.70

    assert time.perf_counter() - t0 < 30.0


def test_recency_weighted_credit_tracks_drift_where_average_lags():
    t0 = time.perf_counter()

    # arm 0 decays 0.01 per step from 0.9; arm 1 holds 0.5, so the best
    # arm flips at step 41; re-identification window is ceil(5 / alpha)
    alpha = 0.4
    spec = BanditSpec([0.9, 0.5], noise="jitter", width=0.1,
                      drift=[-0.01, 0.0])
    switch = next(s for s in range(1000) if spec.best_arm_at(s) == 1)
    assert switch == 41 and spec.best_arm_at(switch - 1) == 0
    window = math.ceil(5 / alpha)

    for credit, a, want in (("erwa", alpha, 1), ("avg", None, 0)):
        for s in range(5):
            rng = random.Random(derive_seed("accept-drift", credit, s))
            c = Controller(
                ConfigSpec(policy="egreedy", credit=credit, alpha=a,
                           cadence="mutation"), 2)
            ep = run_episode(spec, c, switch + 4 * window, rng)
            modal = Counter(
                ep.selections[switch:switch + window]).most_common(1)[0][0]
            assert modal == want, (credit, s, modal)

    assert time.perf_counter() - t0 < 30.0


# ----------------------------------------------------- corpus soundness


def test_corpus_gate_proves_single_edit_reachability():
    t0 = time.perf_counter()
    bugs = load_corpus()
    results = run_gate(bugs)
    assert len(results) == 12
    bad = [(r.name, r.errors) for r in results if not r.ok]
    assert not bad
    for r in results:
        assert r.single_edit_fixes >= 1
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------- repair-loop matrix


MATRIX_CONFIGS = (ConfigSpec("uniform"),) + tuple(
    ConfigSpec(policy, credit=credit)
    for policy in ("pm", "ap", "egreedy", "ucb")
    for credit in ("avg", "erwa"))


# sha256 of the matrix report's artifacts, as `write_report` writes them;
# a change to any record, metric or number format shows here
MATRIX_DIGESTS = {
    "detail.json":
        "e351683aa4794652cdc70f9ac09d2c2bbcf97b6792f4346932d420407d849066",
    "summary.csv":
        "98d4c5e01254f28155e7db5c18890f620437006b1eb4812fd615381c4ccf9540",
}


@pytest.fixture(scope="module")
def repair_matrix():
    plan = ExperimentPlan(configs=MATRIX_CONFIGS, attempts=20, base_seed=0)
    t0 = time.perf_counter()
    report = run_experiment(plan)
    return report, time.perf_counter() - t0


def test_bandit_configs_patch_at_least_as_many_bugs_as_uniform(repair_matrix):
    report, elapsed = repair_matrix
    assert elapsed < 900.0
    assert not report.detail["errors"]

    blocks = report.detail["configs"]
    assert blocks[0]["policy"] == "uniform"
    baseline = blocks[0]["metrics"]["bugs_patched"]
    assert baseline >= 8

    for block in blocks[1:]:
        label = (block["policy"], block["credit"])
        assert block["metrics"]["bugs_patched"] >= baseline - 1, label


def test_the_matrix_report_bytes_are_pinned(repair_matrix):
    report, _ = repair_matrix
    texts = {"detail.json": report.to_json(), "summary.csv": report.to_csv()}
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items()} == MATRIX_DIGESTS


SMALL_PLAN = (
    "base_seed = 7\n"
    "attempts = 3\n"
    "pop = 12\n"
    "gens = 4\n"
    "bugs = reset-1, dupadd-1\n"
    "config = uniform arms=3\n"
    "config = egreedy credit=erwa arms=3\n")


def test_benchmark_reruns_are_byte_identical_and_columns_recompute(
        repair_matrix, tmp_path):
    plan_path = tmp_path / "small.plan"
    plan_path.write_text(SMALL_PLAN)

    outputs = []
    for label in ("one", "two"):
        out = tmp_path / label
        assert cli.main(
            ["bench", "--plan", str(plan_path), "--out", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("summary.csv", "detail.json")})
    assert outputs[0] == outputs[1]

    # every summary cell recomputes from the per-attempt records
    report, _ = repair_matrix
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert tuple(rows[0]) == CSV_COLUMNS
    blocks = report.detail["configs"]
    assert len(rows) == len(blocks) + 1

    for row, block in zip(rows[1:], blocks):
        assert row[:5] == [block["policy"], block["credit"], block["reward"],
                           block["cadence"], block["arms"]]
        assert row[5] == ("-" if block["alpha"] is None
                          else "%.6g" % block["alpha"])

        records = [r for recs in block["bugs"].values() for r in recs]
        wins = [r for r in records if r["patched"]]
        micro = len(wins) / len(records)
        rates = [sum(r["patched"] for r in recs) / len(recs)
                 for recs in block["bugs"].values()]
        macro = sum(rates) / len(rates)
        patched_bugs = sum(1 for recs in block["bugs"].values()
                           if any(r["patched"] for r in recs))
        counts = sorted(r["variants_evaluated_at_patch"] for r in wins)

        assert float(row[6]) == pytest.approx(micro, rel=1e-5)
        assert float(row[7]) == pytest.approx(macro, rel=1e-5)
        assert int(row[8]) == patched_bugs
        if counts:
            avg = sum(counts) / len(counts)
            assert float(row[9]) == pytest.approx(avg, rel=1e-5)
            assert int(row[10]) == counts[(len(counts) - 1) // 2]
        else:
            assert row[9] == "-" and row[10] == "-"


def test_bench_bytes_do_not_depend_on_the_process_or_worker_count(tmp_path):
    # two fresh interpreters, serial and with a pool, under different hash
    # seeds: stdout and every file written must match byte for byte
    plan_path = tmp_path / "small.plan"
    plan_path.write_text(SMALL_PLAN)
    paths = [str(Path(patchbandit.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]
    runs = []
    for hash_seed, jobs in (("0", "1"), ("12345", "2")):
        out = tmp_path / f"jobs{jobs}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "REPAIR_JOBS": jobs,
               "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-m", "patchbandit.cli", "bench",
             "--plan", str(plan_path), "--out", str(out)],
            env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        written = {path.relative_to(out).as_posix(): path.read_bytes()
                   for path in sorted(out.rglob("*")) if path.is_file()}
        runs.append((done.stdout, written))
    assert runs[0] == runs[1]
    assert {"summary.csv", "detail.json"} < set(runs[0][1])
    assert any(name.startswith("patches/") for name in runs[0][1])


def test_overfitting_patches_surface_through_heldout_quality(repair_matrix):
    report, _ = repair_matrix
    uniform = report.detail["configs"][0]
    assert uniform["policy"] == "uniform"
    records = uniform["bugs"]["offbyone-1"]
    assert len(records) == 20

    wins = [r for r in records if r["patched"]]
    assert wins, "baseline never patched the overfitting trap"
    for r in wins:
        quality = r["quality"]
        assert quality is not None
        assert quality["t_total"] > 0
        assert 0 <= quality["t_pass"] <= quality["t_total"]
        assert quality["score"] == quality["t_pass"] / quality["t_total"]
    assert any(r["quality"]["score"] < 1.0 for r in wins)
