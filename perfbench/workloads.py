"""The benchmark's workloads, the input each builds from a seed, and the
checks every output must pass.

A plan workload hands the program a generated plan file: a pinned plan
at base seed 0 with its bugs listed in an order drawn from the benchmark
seed and the repetition's number. The order changes the order cells are
dispatched in, and so which cells share a pool chunk, but not the cells
themselves, so every order must reproduce the plan's pinned bytes. The
gate has no random input: it runs `repair gate` over the packaged 12-bug
corpus, so its seed only names the run.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from patchbandit.corpus import edits_from_jsonable
from patchbandit.toylang import apply_edits, run_tests

BASE_SEED = 0
POP = 40
STEP_BUDGET = 5000


@dataclass(frozen=True)
class Plan:
    configs: tuple
    bugs: tuple              # empty: the whole corpus
    attempts: int
    gens: int
    digest: tuple            # sha256 prefixes of detail.json, summary.csv

    def bug_names(self, corpus) -> list:
        return sorted(self.bugs or corpus)

    def text(self, order_seed: str, corpus) -> str:
        order = self.bug_names(corpus)
        random.Random(order_seed).shuffle(order)
        return "".join(
            [f"base_seed = {BASE_SEED}\n", f"attempts = {self.attempts}\n",
             f"pop = {POP}\n", f"gens = {self.gens}\n",
             f"step_budget = {STEP_BUDGET}\n",
             f"bugs = {', '.join(order)}\n"]
            + [f"config = {config}\n" for config in self.configs])

    def cells(self, corpus) -> int:
        return len(self.configs) * len(self.bug_names(corpus)) * self.attempts


# The digests come from serial runs at the commit that added this
# benchmark; ROADMAP.md pins P0's detail.json digest.
P0 = Plan(configs=("uniform", "ucb credit=erwa", "pm arms=7"), bugs=(),
          attempts=2, gens=10,
          digest=("a88759ad29084f4d", "deaf48c92847969f"))
LONG_SEARCH = Plan(configs=("uniform arms=18", "ucb credit=erwa arms=18"),
                   bugs=("callswap-1", "guard-1", "init-1", "offbyone-1",
                         "span-1", "worstloss-1"),
                   attempts=1, gens=40,
                   digest=("52ecfeffadbdc098", "1317796042c43af6"))


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int                # REPAIR_JOBS of the measured repetitions
    nominal_s: float         # one repetition, in reference seconds
    plan: Plan = None        # None: the gate

    @property
    def is_gate(self) -> bool:
        return self.plan is None

    def argv(self, plan_path, out_dir) -> list:
        if self.is_gate:
            return ["gate"]
        return ["bench", "--plan", str(plan_path), "--out", str(out_dir)]

    def ops(self, corpus) -> int:
        """Operations of one repetition: cells, or gate bugs."""
        return len(corpus) if self.is_gate else self.plan.cells(corpus)


WORKLOADS = {wl.name: wl for wl in (
    Workload("p0-serial", jobs=1, nominal_s=9.6, plan=P0),
    Workload("p0-pool2", jobs=2, nominal_s=5.3, plan=P0),
    Workload("gate", jobs=1, nominal_s=11.5),
    Workload("long-search", jobs=1, nominal_s=9.2, plan=LONG_SEARCH),
)}

# The exact counters of a traced P0 run, measured at the commit that added
# this benchmark.
P0_COUNTERS = {
    "engine.evaluations": 10791,
    "engine.cases": 66793,
    "mutate.mint_edit.inapplicable": 2699,
    "engine.cases.fault.budget": 1114,
    "engine.cases.fault.cycle": 10048,
}

# Per bug: (fixing operators in discovery order, single-edit fixes,
# edits examined) from `check_bug` at the default step budget.
GATE_TABLE = {
    "callswap-1": (("func_call_swap",), 1, 35),
    "dupadd-1": (("stmt_delete",), 2, 166),
    "guard-1": (("guard_insert",), 1, 28),
    "init-1": (("var_init_insert",), 1, 211),
    "mid3": (("stmt_append", "stmt_replace"), 2, 243),
    "negbal-1": (("stmt_append", "stmt_delete", "stmt_replace",
                  "stmt_swap"), 10, 160),
    "offbyone-1": (("stmt_append", "off_by_one", "const_perturb"), 4, 129),
    "reset-1": (("stmt_delete",), 1, 162),
    "sched-1": (("stmt_append", "stmt_replace", "expr_add"), 4, 107),
    "span-1": (("stmt_append",), 1, 433),
    "swap-1": (("off_by_one", "stmt_swap"), 3, 117),
    "worstloss-1": (("stmt_append",), 1, 427),
}


# ----------------------------------------------------------- plan checks


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def expected_summary(detail: dict) -> str:
    """summary.csv recomputed from detail.json's attempt records alone."""
    rows = ["policy,credit,reward,cadence,arms,alpha,success_rate_micro,"
            "success_rate_macro,bugs_patched,avg_variant,median_variant"]
    for block in detail["configs"]:
        per_bug = list(block["bugs"].values())
        records = [r for records in per_bug for r in records]
        counts = sorted(r["variants_evaluated_at_patch"]
                        for r in records if r["patched"])
        micro = len(counts) / len(records)
        macro = sum(sum(r["patched"] for r in rs) / len(rs)
                    for rs in per_bug) / len(per_bug)
        patched_bugs = sum(any(r["patched"] for r in rs) for rs in per_bug)
        avg = sum(counts) / len(counts) if counts else None
        median = counts[(len(counts) - 1) // 2] if counts else None
        rows.append(",".join(_fmt(v) for v in (
            block["policy"], block["credit"], block["reward"],
            block["cadence"], block["arms"], block["alpha"], micro, macro,
            patched_bugs, avg, median)))
    return "\n".join(rows) + "\n"


def _cell_problem(plan, record, bug, patch_path):
    """Why one attempt record is wrong, or None."""
    if "error" in record:
        return f"error record: {record['error']}"
    if not 0 <= record["total_evaluations"] <= POP * (plan.gens + 1):
        return f"impossible total_evaluations {record['total_evaluations']}"
    if not record["patched"]:
        if record["edits"] is not None or \
                record["variants_evaluated_at_patch"] is not None:
            return "unpatched attempt carries a patch"
        return None
    if not 1 <= record["variants_evaluated_at_patch"] \
            <= record["total_evaluations"]:
        return "variants_evaluated_at_patch out of range"
    patched, _ = apply_edits(bug.program, edits_from_jsonable(record["edits"]))
    if run_tests(patched, bug.repair_suite, STEP_BUDGET).fitness != 1.0:
        return "reported patch fails the repair suite"
    heldout = run_tests(patched, bug.heldout_suite, STEP_BUDGET)
    quality = record["quality"]
    if (quality["t_pass"], quality["t_total"]) != \
            (heldout.flags.count(True), len(heldout.flags)):
        return "held-out quality does not recompute"
    if not patch_path.is_file() or json.loads(patch_path.read_text()) != \
            {"bug": bug.name, "edits": record["edits"]}:
        return f"missing or wrong {patch_path.name}"
    return None


def check_plan(plan, out_dir, stdout, exit_code, bugs):
    """(failed cells, problems) of one repetition of a plan workload."""
    total = plan.cells(bugs)
    if exit_code != 0:
        return total, [f"repair bench exited with {exit_code}"]
    out_dir = Path(out_dir)
    detail_bytes = (out_dir / "detail.json").read_bytes()
    summary_bytes = (out_dir / "summary.csv").read_bytes()
    detail = json.loads(detail_bytes)
    whole = []
    if stdout != summary_bytes.decode():
        whole.append("stdout differs from summary.csv")
    if detail["errors"]:
        whole.append(f"plan errors: {detail['errors']}")
    if summary_bytes.decode() != expected_summary(detail):
        whole.append("summary.csv does not recompute from detail.json")
    digests = tuple(hashlib.sha256(data).hexdigest()[:16]
                    for data in (detail_bytes, summary_bytes))
    if digests != plan.digest:
        whole.append(f"digests {digests} are not the pinned {plan.digest}")
    shape = [{name: len(records) for name, records in block["bugs"].items()}
             for block in detail["configs"]]
    if shape != [dict.fromkeys(plan.bug_names(bugs), plan.attempts)] * \
            len(plan.configs):
        whole.append("detail.json does not hold every planned cell")
    if whole:
        return total, whole
    failed, problems = 0, []
    for index, block in enumerate(detail["configs"]):
        for name, records in block["bugs"].items():
            for record in records:
                patch = out_dir / "patches" / \
                    f"c{index:02d}-{name}-a{record['attempt']:02d}.patch"
                problem = _cell_problem(plan, record, bugs[name], patch)
                if problem is not None:
                    failed += 1
                    problems.append(f"{block['policy']} {name} "
                                    f"a{record['attempt']}: {problem}")
    return failed, problems


# ----------------------------------------------------------- gate checks


def check_gate(stdout, exit_code, results):
    """(failed bugs, problems) of one gate repetition; `results` holds the
    [name, errors, fixing operators, fixes, examined] each check_bug
    returned."""
    lines = stdout.splitlines()
    if exit_code != 0 or not lines or lines[-1] != \
            f"gate: PASS ({len(GATE_TABLE)} bugs)" or \
            sorted(r[0] for r in results) != sorted(GATE_TABLE):
        return len(GATE_TABLE), [f"gate exited with {exit_code}: "
                                 f"{lines[-1:] or 'no output'}"]
    failed, problems = 0, []
    for name, errors, fixing, fixes, examined in results:
        ops = ",".join(sorted(set(fixing)))
        line = f"{name}: PASS ({fixes} single-edit fixes via {ops})"
        got = (tuple(fixing), fixes, examined)
        if errors or got != GATE_TABLE[name] or line not in lines:
            failed += 1
            problems.append(f"{name}: {errors or got} "
                            f"!= {GATE_TABLE[name]}")
    return failed, problems
