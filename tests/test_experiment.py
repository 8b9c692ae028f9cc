"""Experiment plans, seed derivation, metrics, and report determinism."""

import concurrent.futures
import json
import re
from pathlib import Path

import pytest

from patchbandit.aos import ConfigError
from patchbandit.corpus import DEFAULT_CORPUS_DIR, load_corpus, load_patch
from patchbandit import experiment
from patchbandit.engine import derive_seed
from patchbandit.experiment import (CSV_COLUMNS, ConfigSpec,
                                    EXPERIMENT_STEP_BUDGET, ExperimentPlan,
                                    PlanFormatError, compute_metrics,
                                    evaluate_quality,
                                    load_plan, parse_plan, run_experiment,
                                    worker_count, write_report)
from patchbandit.toylang import apply_edits, run_tests

EXAMPLE_PLAN = Path(__file__).resolve().parent.parent / "docs" / "example.plan"


@pytest.fixture(scope="module")
def bugs():
    return {bug.name: bug for bug in load_corpus(None)}


SMALL_PLAN = ExperimentPlan(
    configs=(ConfigSpec("uniform"), ConfigSpec("ap", credit="erwa")),
    bug_names=("reset-1", "dupadd-1"), attempts=3, base_seed=11,
    population_size=12, generations=4, step_budget=5000)


# ------------------------------------------------------------- config spec

def test_uniform_spec_blanks_bandit_fields():
    spec = ConfigSpec("uniform", credit="erwa", reward="relative",
                      cadence="mutation", alpha=0.5)
    assert (spec.credit, spec.reward, spec.cadence, spec.alpha) == \
           ("-", "-", "-", None)
    assert spec.is_uniform


def test_erwa_alpha_defaults_follow_the_tuned_table():
    assert ConfigSpec("pm", credit="erwa").alpha == 0.8
    assert ConfigSpec("ap", credit="erwa").alpha == 0.2
    assert ConfigSpec("egreedy", credit="erwa").alpha == 0.4
    assert ConfigSpec("ucb", credit="erwa").alpha == 0.8
    assert ConfigSpec("pm", credit="erwa", alpha=0.3).alpha == 0.3


def test_average_credit_ignores_alpha():
    assert ConfigSpec("pm", credit="avg", alpha=0.9).alpha is None


def test_spec_rejects_bad_fields():
    with pytest.raises(ConfigError):
        ConfigSpec("greedy")
    with pytest.raises(ConfigError):
        ConfigSpec("pm", credit="mean")
    with pytest.raises(ConfigError):
        ConfigSpec("pm", arms="arms4")
    with pytest.raises(ConfigError):
        ConfigSpec("pm", credit="erwa", alpha=1.5)


def test_spec_takes_an_arm_count_or_a_scheme_name():
    by_count = ConfigSpec("pm", arms="7")
    assert by_count.arms == "arms7"
    assert by_count == ConfigSpec("pm", arms="arms7")
    plan = parse_plan("config = pm arms=7\nconfig = pm arms=arms7\n")
    assert [spec.key() for spec in plan.configs] == [by_count.key()] * 2
    with pytest.raises(ConfigError, match="unknown arm scheme '5'"):
        ConfigSpec("pm", arms="5")


def test_spec_key_is_canonical_text():
    assert ConfigSpec("uniform").key() == "uniform|-|-|-|arms3|-"
    assert ConfigSpec("ucb", credit="erwa", arms="arms18").key() == \
           "ucb|erwa|raw|generation|arms18|0.8"


# ------------------------------------------------------------------- seeds

def test_cell_seeds_are_reproducible_and_distinct():
    plan = SMALL_PLAN
    spec = plan.configs[0]
    seed = plan.seed_for("reset-1", spec, 0)
    assert seed == derive_seed(11, "reset-1", spec.key(), 0)
    others = {plan.seed_for("reset-1", spec, 1),
              plan.seed_for("dupadd-1", spec, 0),
              plan.seed_for("reset-1", plan.configs[1], 0)}
    assert seed not in others and len(others) == 3


def test_plan_validation():
    with pytest.raises(PlanFormatError):
        ExperimentPlan(configs=())
    # an empty path names no corpus; only None means the packaged one
    with pytest.raises(PlanFormatError, match="corpus_dir must not be empty"):
        ExperimentPlan(configs=(ConfigSpec("uniform"),), corpus_dir="")


@pytest.mark.parametrize("name, value", [
    ("attempts", 0), ("population_size", 1), ("generations", -1),
    ("step_budget", 0),
])
def test_plan_rejects_a_setting_below_its_minimum(name, value):
    # the only check of these settings: run_repair takes them as they are
    with pytest.raises(PlanFormatError, match=f"^{name} must be >= "):
        ExperimentPlan(configs=(ConfigSpec("uniform"),), **{name: value})


@pytest.mark.parametrize("build", [
    lambda plan, changes: plan._replace(**changes),
    lambda plan, changes: plan._make({**plan._asdict(), **changes}.values()),
], ids=["_replace", "_make"])
def test_a_changed_copy_of_a_plan_or_config_is_checked(build):
    # a named tuple's own _replace and _make skip its __new__
    with pytest.raises(PlanFormatError, match="^attempts must be >= 1"):
        build(SMALL_PLAN, {"attempts": 0})
    with pytest.raises(PlanFormatError, match="at least one config"):
        build(SMALL_PLAN, {"configs": ()})
    spec = ConfigSpec("pm", credit="erwa")
    with pytest.raises(ConfigError, match="alpha must be in"):
        build(spec, {"alpha": 1.5})
    with pytest.raises(ConfigError, match="unknown credit"):
        build(spec, {"credit": "mean"})
    # and normalised as the constructor normalises
    assert build(spec, {"arms": "7"}).arms == "arms7"
    assert build(spec, {"policy": "uniform"}) == ConfigSpec("uniform")
    copy = build(SMALL_PLAN, {"attempts": 5})
    assert type(copy) is ExperimentPlan and copy.attempts == 5
    assert copy == SMALL_PLAN._replace(attempts=5)


# ----------------------------------------------------------------- quality

def test_reference_fix_scores_full_quality(bugs):
    # empty edit list on the fixed program = the developer patch
    for bug in bugs.values():
        shifted = bug._replace(program=bug.fixed)
        quality = evaluate_quality((), shifted, EXPERIMENT_STEP_BUDGET)
        t_total = len(bug.heldout_suite)
        assert quality == {"t_pass": t_total, "t_total": t_total,
                           "score": 1.0}


def test_overfit_patch_scores_below_full_quality(bugs):
    bug = bugs["offbyone-1"]
    _, edits = load_patch(DEFAULT_CORPUS_DIR / bug.name / "overfit.patch")
    assert run_tests(apply_edits(bug.program, edits)[0],
                     bug.repair_suite, EXPERIMENT_STEP_BUDGET).fitness == 1.0
    t_total = len(bug.heldout_suite)
    assert evaluate_quality(edits, bug, EXPERIMENT_STEP_BUDGET) == {
        "t_pass": t_total - 1, "t_total": t_total,
        "score": (t_total - 1) / t_total}


# ----------------------------------------------------------------- metrics

def _record(patched, at=None):
    return {"patched": patched, "variants_evaluated_at_patch": at}


def test_metric_aggregation_micro_macro_and_medians():
    per_bug = {
        "a": [_record(True, 10), _record(True, 30)],
        "b": [_record(True, 7), _record(False)],
        "c": [_record(False), _record(False)],
    }
    metrics = compute_metrics(per_bug)
    assert metrics["success_rate_micro"] == pytest.approx(3 / 6)
    assert metrics["success_rate_macro"] == pytest.approx((1 + 0.5 + 0) / 3)
    assert metrics["bugs_patched"] == 2
    assert metrics["avg_variant"] == pytest.approx((10 + 30 + 7) / 3)
    assert metrics["median_variant"] == 10    # lower median of [7, 10, 30]


def test_lower_median_convention_on_even_counts():
    per_bug = {"a": [_record(True, 3), _record(True, 7)]}
    assert compute_metrics(per_bug)["median_variant"] == 3


def test_no_successes_leaves_variant_columns_empty():
    metrics = compute_metrics({"a": [_record(False)]})
    assert metrics["avg_variant"] is None
    assert metrics["median_variant"] is None
    assert metrics["bugs_patched"] == 0


def test_each_attempt_contributes_exactly_one_unit():
    per_bug = {"a": [_record(True, 4), _record(False), _record(True, 9)]}
    base = compute_metrics(per_bug)
    for drop in range(3):
        kept = {"a": [r for i, r in enumerate(per_bug["a"]) if i != drop]}
        delta = base["success_rate_micro"] * 3 - \
            compute_metrics(kept)["success_rate_micro"] * 2
        assert delta == pytest.approx(float(per_bug["a"][drop]["patched"]))


# ------------------------------------------------------------- experiments

@pytest.fixture(scope="module")
def small_report():
    return run_experiment(SMALL_PLAN)


def test_experiment_rerun_is_byte_identical(small_report):
    again = run_experiment(SMALL_PLAN)
    assert small_report.to_csv() == again.to_csv()
    assert small_report.to_json() == again.to_json()


def test_csv_has_the_documented_columns(small_report):
    header, *rows = small_report.to_csv().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == len(SMALL_PLAN.configs)
    assert rows[0].startswith("uniform,-,-,-,arms3,-,")
    assert rows[1].startswith("ap,erwa,raw,generation,arms3,0.2,")


def test_summary_matches_detail_recomputation(small_report):
    detail = json.loads(small_report.to_json())
    for block in detail["configs"]:
        assert block["metrics"] == json.loads(
            json.dumps(compute_metrics(block["bugs"])))


def test_detail_records_seeds_and_snapshots(small_report):
    detail = small_report.detail
    uniform, adaptive = detail["configs"]
    for bug_name, records in uniform["bugs"].items():
        for attempt, record in enumerate(records):
            assert record["attempt"] == attempt
            assert record["seed"] == SMALL_PLAN.seed_for(
                bug_name, SMALL_PLAN.configs[0], attempt)
            assert record["aos_snapshot"] is None
    snapshots = [r["aos_snapshot"] for records in adaptive["bugs"].values()
                 for r in records]
    assert all(s is not None and len(s) == 3 for s in snapshots)


def test_successful_attempts_carry_quality_scores(small_report):
    records = [r for block in small_report.detail["configs"]
               for recs in block["bugs"].values() for r in recs]
    assert any(r["patched"] for r in records)
    for record in records:
        if record["patched"]:
            assert record["edits"]
            assert 0.0 <= record["quality"]["score"] <= 1.0
        else:
            assert record["edits"] is None and record["quality"] is None


def test_unknown_bug_is_recorded_and_skipped():
    plan = SMALL_PLAN._replace(bug_names=("reset-1", "ghost-9"),
                               attempts=1)
    report = run_experiment(plan)
    assert report.detail["errors"] == [
        {"bug": "ghost-9", "message": "bug 'ghost-9' not in corpus"}]
    assert set(report.detail["configs"][0]["bugs"]) == {"reset-1"}


def test_a_bug_with_nothing_to_repair_is_an_error_record(tmp_path):
    bugdir = tmp_path / "fine-1"
    bugdir.mkdir()
    program = "fn f(x) { return x; }\n"
    (bugdir / "bug.toy").write_text(program)
    (bugdir / "fixed.toy").write_text(program)
    (bugdir / "repair.tests").write_text("t0 | f | 0 | 0\nt2 | f | 2 | 2\n")
    (bugdir / "heldout.tests").write_text("h1 | f | 1 | 1\n")
    plan = SMALL_PLAN._replace(bug_names=None, attempts=1,
                               corpus_dir=str(tmp_path))
    report = run_experiment(plan)
    for block in report.detail["configs"]:
        (record,) = block["bugs"]["fine-1"]
        assert record["error"] == "nothing to repair"
        assert record["patched"] is False
        assert record["total_evaluations"] == 0


def test_written_patches_reapply_and_revalidate(tmp_path, bugs, small_report):
    write_report(small_report, tmp_path)
    assert (tmp_path / "summary.csv").read_text() == small_report.to_csv()
    assert (tmp_path / "detail.json").read_text() == small_report.to_json()
    patch_files = sorted((tmp_path / "patches").glob("*.patch"))
    assert patch_files
    for path in patch_files:
        bug_name, edits = load_patch(path)
        program, _ = apply_edits(bugs[bug_name].program, edits)
        assert run_tests(program, bugs[bug_name].repair_suite,
                         EXPERIMENT_STEP_BUDGET).fitness == 1.0


def test_worker_pool_does_not_change_the_bytes(small_report, monkeypatch):
    monkeypatch.setenv("REPAIR_JOBS", "2")
    plan = SMALL_PLAN._replace(bug_names=("reset-1",), attempts=4)
    parallel = run_experiment(plan)
    monkeypatch.setenv("REPAIR_JOBS", "1")
    serial = run_experiment(plan)
    assert parallel.to_json() == serial.to_json()


@pytest.mark.parametrize("jobs, attempts, workers", [("500", 1, [2]),
                                                     ("2", 3, [2]),
                                                     ("500", 3, [6])])
def test_the_pool_starts_no_more_workers_than_cells(monkeypatch, jobs,
                                                    attempts, workers):
    started = []

    class RecordingPool:
        """Records max_workers and runs the cells in this process, so that
        no worker process is ever started."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # the pool is imported from here when a run needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setenv("REPAIR_JOBS", jobs)
    plan = SMALL_PLAN._replace(bug_names=("reset-1",),
                               attempts=attempts, generations=1)
    run_experiment(plan)     # two configs, so 2 * attempts cells
    assert started == workers


def test_worker_count_honors_the_env(monkeypatch):
    monkeypatch.setenv("REPAIR_JOBS", "5")
    assert worker_count() == 5
    monkeypatch.setenv("REPAIR_JOBS", "0")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("REPAIR_JOBS", "many")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.delenv("REPAIR_JOBS")
    assert worker_count() >= 1


# ------------------------------------------------------------------- plans

def test_plan_manifest_round_trip():
    text = """
    # matrix for the main table
    base_seed = 9
    attempts = 2
    pop = 10
    gens = 3
    step_budget = 4000
    bugs = mid3, span-1
    config = uniform arms=3
    config = egreedy credit=erwa alpha=0.4 reward=relative cadence=mutation arms=18
    """
    plan = parse_plan(text)
    assert plan == ExperimentPlan(
        configs=(ConfigSpec("uniform"),
                 ConfigSpec("egreedy", credit="erwa", alpha=0.4,
                            reward="relative", cadence="mutation",
                            arms="arms18")),
        bug_names=("mid3", "span-1"), attempts=2, base_seed=9,
        population_size=10, generations=3, step_budget=4000)


# each malformed plan line, and the message it gives
MALFORMED_PLAN_LINES = {
    "nonsense": "expected key = value",
    "mystery = 4": "unknown key 'mystery'",
    "config = warp arms=3": "unknown policy 'warp'",
    "config = pm arms=5": "unknown arm scheme '5'",
    "config = pm tempo=fast": "unknown config key 'tempo'",
    "config = pm credit": "expected key=value, got 'credit'",
    "attempts = soon": "attempts: not an integer: 'soon'",
    "config =": "empty config",
    "corpus =": "empty corpus",
}


@pytest.mark.parametrize("line", list(MALFORMED_PLAN_LINES))
def test_malformed_plan_lines_raise(line):
    message = re.escape(MALFORMED_PLAN_LINES[line])
    with pytest.raises(PlanFormatError, match=f"^line 2: {message}$"):
        parse_plan(f"config = uniform\n{line}\n")


@pytest.mark.parametrize("key, first, second", [
    ("base_seed", "1", "2"), ("attempts", "1", "2"), ("pop", "10", "20"),
    ("gens", "1", "2"), ("step_budget", "100", "200"),
    ("corpus", "here", "there"), ("bugs", "reset-1", "mid3"),
])
def test_a_plan_key_other_than_config_may_appear_once(key, first, second):
    # a second line would otherwise replace the first without a word
    text = f"config = pm\n{key} = {first}\n\n# again\n{key} = {second}\n"
    with pytest.raises(PlanFormatError,
                       match=f"^line 5: {key} is already set on line 2$"):
        parse_plan(text)


@pytest.mark.parametrize("key, first, second", [
    ("credit", "avg", "erwa"), ("reward", "raw", "relative"),
    ("cadence", "generation", "mutation"), ("arms", "3", "18"),
    ("alpha", "0.3", "0.9"),
])
def test_a_config_key_may_appear_once_in_its_line(key, first, second):
    # a second key=value would otherwise replace the first without a word
    text = (f"config = uniform\nbugs = guard-1\n"
            f"config = pm credit=erwa {key}={first} {key}={second}\n")
    with pytest.raises(PlanFormatError,
                       match=f"^line 3: config key '{key}' is given twice$"):
        parse_plan(text)


def test_the_example_plan_parses_to_its_documented_matrix():
    bandits = tuple(ConfigSpec(policy, credit=credit)
                    for policy in ("pm", "ap", "egreedy", "ucb")
                    for credit in ("avg", "erwa"))
    assert load_plan(EXAMPLE_PLAN) == ExperimentPlan(
        configs=(ConfigSpec("uniform"),) + bandits, base_seed=42,
        attempts=20, population_size=40, generations=10, step_budget=5000)


def test_plan_needs_a_config():
    with pytest.raises(PlanFormatError):
        parse_plan("attempts = 3\n")


def test_plan_needs_a_bug():
    # an empty list would run nothing and report 0% success
    with pytest.raises(PlanFormatError, match="at least one bug"):
        parse_plan("config = pm\nbugs =\n")
    with pytest.raises(PlanFormatError, match="at least one bug"):
        ExperimentPlan(configs=(ConfigSpec("uniform"),), bug_names=())


def test_load_plan_missing_file(tmp_path):
    with pytest.raises(PlanFormatError, match="not found"):
        load_plan(tmp_path / "missing.plan")
