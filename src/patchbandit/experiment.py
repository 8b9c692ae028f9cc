"""Experiment orchestration: config matrix, worker pool, metric tables.

A plan names a bug set, a list of selection configs, and an attempt count.
Every (config, bug, attempt) cell derives its own seed from the base seed
by stable hashing, so any cell can be reproduced in isolation and reruns
are byte-identical regardless of worker count.
"""

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

from .aos import ConfigError
from .corpus import DEFAULT_CORPUS_DIR, edits_to_jsonable, load_corpus
from .engine import (MIN_POPULATION, ConfigSpec, RepairOutcome, derive_seed,
                     format_value, run_repair)
from .toylang import (DEFAULT_STEP_BUDGET, NothingToRepair, apply_edits,
                      run_tests)
from .toylang.syntax import read_int

run_repair_uniform = run_repair  # unused; perfbench/spans.py hooks the name

# experiment searches cap the interpreter tighter than the library default:
# every true corpus fix runs in well under this, so only doomed variants
# are cut short
EXPERIMENT_STEP_BUDGET = 5000

# the six config axes, then the five metrics
CSV_COLUMNS = tuple(field.name for field in fields(ConfigSpec)) + (
    "success_rate_micro", "success_rate_macro", "bugs_patched",
    "avg_variant", "median_variant")

# smallest value each integer plan field accepts, checked before any cell runs
_PLAN_MINIMUMS = {"attempts": 1, "population_size": MIN_POPULATION,
                  "generations": 0, "step_budget": 1}


class PlanFormatError(ValueError):
    """A plan manifest line could not be parsed."""


@dataclass(frozen=True)
class ExperimentPlan:
    configs: tuple
    bug_names: tuple | None = None      # None: the whole corpus
    attempts: int = 20
    base_seed: int = 0
    population_size: int = 40
    generations: int = 10
    step_budget: int = EXPERIMENT_STEP_BUDGET
    corpus_dir: str | None = None       # None: the packaged corpus

    def __post_init__(self):
        if not self.configs:
            raise PlanFormatError("a plan needs at least one config")
        if self.bug_names == ():
            raise PlanFormatError("a plan needs at least one bug")
        for name, low in _PLAN_MINIMUMS.items():
            if getattr(self, name) < low:
                raise PlanFormatError(f"{name} must be >= {low}")

    def seed_for(self, bug_name: str, config: ConfigSpec,
                 attempt: int) -> int:
        return derive_seed(self.base_seed, bug_name, config.key(), attempt)


def evaluate_quality(edits, bug, step_budget: int = DEFAULT_STEP_BUDGET):
    """Held-out pass fraction of the patched program, as the attempt record
    stores it: {"t_pass", "t_total", "score"}."""
    patched, _ = apply_edits(bug.program, edits)
    report = run_tests(patched, bug.heldout_suite, step_budget=step_budget)
    t_pass, t_total = report.flags.count(True), len(report.flags)
    return {"t_pass": t_pass, "t_total": t_total, "score": t_pass / t_total}


# ------------------------------------------------------------ attempt pool

_BUG_CACHE = {}


def _bugs_for(corpus_dir):
    key = str(corpus_dir)
    if key not in _BUG_CACHE:
        _BUG_CACHE[key] = {bug.name: bug for bug in load_corpus(corpus_dir)}
    return _BUG_CACHE[key]


def _run_attempt(task):
    (corpus_dir, bug_name, axes, seed, pop, gens, budget) = task
    bug = _bugs_for(corpus_dir)[bug_name]
    record = {"seed": seed}
    try:
        outcome = run_repair(bug.program, bug.repair_suite, ConfigSpec(*axes),
                             seed=seed, population_size=pop, generations=gens,
                             step_budget=budget)
    except NothingToRepair:
        outcome = RepairOutcome(False, None, None, 0, None)
        record["error"] = "nothing to repair"
    record.update(
        patched=outcome.patched,
        variants_evaluated_at_patch=outcome.variants_evaluated_at_patch,
        total_evaluations=outcome.total_evaluations,
        edits=None, quality=None, aos_snapshot=outcome.aos_snapshot)
    if outcome.patched:
        record["edits"] = edits_to_jsonable(outcome.patch.edits)
        record["quality"] = evaluate_quality(outcome.patch.edits, bug,
                                             step_budget=budget)
    return record


def worker_count() -> int:
    """REPAIR_JOBS caps the pool; default is the machine's CPU count."""
    limit = os.environ.get("REPAIR_JOBS")
    if limit is not None:
        try:
            jobs = read_int(limit)
        except ValueError as err:
            raise ConfigError(f"REPAIR_JOBS: {err}") from None
        if jobs < 1:
            raise ConfigError("REPAIR_JOBS must be >= 1")
        return jobs
    return os.cpu_count() or 1


# -------------------------------------------------------------- experiment

@dataclass(frozen=True)
class ExperimentReport:
    detail: dict          # full JSON-ready structure

    def to_json(self) -> str:
        return json.dumps(self.detail, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for block in self.detail["configs"]:
            # the six config axes, then the five metrics, in column order
            row = [block[name] for name in CSV_COLUMNS[:6]]
            row += [block["metrics"][name] for name in CSV_COLUMNS[6:]]
            writer.writerow(format_value(value) for value in row)
        return out.getvalue()


def compute_metrics(per_bug_attempts: dict) -> dict:
    """Aggregate one config's attempt records, keyed by bug name."""
    total = sum(len(records) for records in per_bug_attempts.values())
    successes = [r for records in per_bug_attempts.values()
                 for r in records if r["patched"]]
    micro = len(successes) / total if total else 0.0
    per_bug = [sum(r["patched"] for r in records) / len(records)
               for records in per_bug_attempts.values() if records]
    macro = sum(per_bug) / len(per_bug) if per_bug else 0.0
    patched_bugs = sum(1 for records in per_bug_attempts.values()
                       if any(r["patched"] for r in records))
    counts = sorted(r["variants_evaluated_at_patch"] for r in successes)
    return {
        "success_rate_micro": micro,
        "success_rate_macro": macro,
        "bugs_patched": patched_bugs,
        "avg_variant": sum(counts) / len(counts) if counts else None,
        "median_variant": counts[(len(counts) - 1) // 2] if counts else None,
    }


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    corpus_dir = str(plan.corpus_dir or DEFAULT_CORPUS_DIR)
    errors = []
    if plan.bug_names is None:
        names = sorted(_bugs_for(corpus_dir))
    else:
        available = _bugs_for(corpus_dir)
        names = []
        for name in plan.bug_names:
            if name in available:
                names.append(name)
            else:
                errors.append((name, f"bug {name!r} not in corpus"))

    # one (config index, bug, attempt) per cell, in task and result order
    cells = [(index, name, attempt) for index in range(len(plan.configs))
             for name in names for attempt in range(plan.attempts)]
    tasks = [(corpus_dir, name, astuple(plan.configs[index]),
              plan.seed_for(name, plan.configs[index], attempt),
              plan.population_size, plan.generations, plan.step_budget)
             for index, name, attempt in cells]

    # the pool starts all its workers at once, so start no idle ones
    jobs = min(worker_count(), len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_attempt, tasks, chunksize=4))
    else:
        results = [_run_attempt(task) for task in tasks]

    blocks = [{**asdict(spec), "bugs": {name: [] for name in names}}
              for spec in plan.configs]
    for (index, name, attempt), record in zip(cells, results):
        blocks[index]["bugs"][name].append({**record, "attempt": attempt})
    for block in blocks:
        block["metrics"] = compute_metrics(block["bugs"])

    detail = {
        "base_seed": plan.base_seed,
        "attempts": plan.attempts,
        "population_size": plan.population_size,
        "generations": plan.generations,
        "step_budget": plan.step_budget,
        "errors": [{"bug": name, "message": msg} for name, msg in errors],
        "configs": blocks,
    }
    return ExperimentReport(detail=detail)


def write_report(report: ExperimentReport, out_dir) -> None:
    """summary.csv, detail.json, and one patch file per successful attempt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.csv").write_text(report.to_csv())
    (out / "detail.json").write_text(report.to_json())
    patches = out / "patches"
    written = set()
    for index, block in enumerate(report.detail["configs"]):
        for bug_name, records in sorted(block["bugs"].items()):
            for record in records:
                if not record["patched"]:
                    continue
                patches.mkdir(exist_ok=True)
                name = f"c{index:02d}-{bug_name}-a{record['attempt']:02d}.patch"
                written.add(name)
                payload = {"bug": bug_name, "edits": record["edits"]}
                (patches / name).write_text(
                    json.dumps(payload, sort_keys=True, indent=2) + "\n")
    # an earlier run's patch left here is not this report's, yet
    # `repair quality` would score it
    for stale in patches.glob("*.patch"):
        if stale.name not in written and stale.is_file():
            stale.unlink()


# ------------------------------------------------------------ plan parsing

def _parse_config_line(value: str, line_no: int) -> ConfigSpec:
    tokens = value.split()
    if not tokens:
        raise PlanFormatError(f"line {line_no}: empty config")
    kwargs = {"policy": tokens[0]}
    for token in tokens[1:]:
        if "=" not in token:
            raise PlanFormatError(
                f"line {line_no}: expected key=value, got {token!r}")
        key, _, raw = token.partition("=")
        if key not in ("credit", "reward", "cadence", "arms", "alpha"):
            raise PlanFormatError(f"line {line_no}: unknown config key {key!r}")
        if key in kwargs:
            # a second value would replace the first without a word
            raise PlanFormatError(
                f"line {line_no}: config key {key!r} is given twice")
        if key != "alpha":
            kwargs[key] = raw
            continue
        try:
            kwargs["alpha"] = float(raw)
        except ValueError:
            raise PlanFormatError(f"line {line_no}: alpha needs a number, "
                                  f"got {raw!r}") from None
    try:
        return ConfigSpec(**kwargs)
    except ConfigError as err:
        raise PlanFormatError(f"line {line_no}: {err}") from err


def parse_bug_names(text: str, where: str = "") -> tuple:
    """Comma-separated bug names, each listed at most once."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    for index, name in enumerate(names):
        # a repeated bug would run its cells twice and keep one record set
        if name in names[:index]:
            raise PlanFormatError(f"{where}bug {name!r} is listed twice")
    return names


def parse_plan(text: str) -> ExperimentPlan:
    """Plain-text manifest: one key = value per line, # for comments."""
    kwargs = {"configs": []}
    set_on = {}                         # key -> the line that set it
    int_keys = {"base_seed": "base_seed", "attempts": "attempts",
                "pop": "population_size", "gens": "generations",
                "step_budget": "step_budget"}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PlanFormatError(f"line {line_no}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "config":
            kwargs["configs"].append(_parse_config_line(value, line_no))
            continue
        # every other key sets one plan field, so it may appear once
        if key in set_on:
            raise PlanFormatError(f"line {line_no}: {key} is already set "
                                  f"on line {set_on[key]}")
        set_on[key] = line_no
        if key in int_keys:
            try:
                number = read_int(value)
            except ValueError as err:
                raise PlanFormatError(
                    f"line {line_no}: {key}: {err}") from None
            low = _PLAN_MINIMUMS.get(int_keys[key])
            if low is not None and number < low:
                raise PlanFormatError(
                    f"line {line_no}: {key} must be >= {low}")
            kwargs[int_keys[key]] = number
        elif key == "corpus":
            kwargs["corpus_dir"] = value
        elif key == "bugs":
            kwargs["bug_names"] = parse_bug_names(value, f"line {line_no}: ")
        else:
            raise PlanFormatError(f"line {line_no}: unknown key {key!r}")
    return ExperimentPlan(configs=tuple(kwargs.pop("configs")), **kwargs)


def load_plan(path) -> ExperimentPlan:
    path = Path(path)
    if not path.is_file():
        raise PlanFormatError(f"plan file not found: {path}")
    try:
        return parse_plan(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise PlanFormatError(f"{path} is not UTF-8 text ({err})") from err
