"""Per-layer metrics of one traced repetition, computed from its spans.

Times are in reference seconds (speed.py) and summed over every process,
so on the pool workload a layer's seconds are worker seconds, not wall
seconds. Counts come only from what
the program returns or raises (see spans.py); interpreter step counts
are not visible from outside and are not reported.
"""

from collections import Counter

from spans import CELL, GATE_BUG
from workloads import GATE_TABLE

# Every value FitnessReport.faults can hold for a failed case.
FAULT_KINDS = ("budget", "cycle", "type", "index", "undefined-variable",
               "div-zero", "unknown-function", "arity", "depth",
               "missing-return", "missing-entry")

TIMED = ("interp.run_tests", "interp.passes_all", "interp.compile_program",
         "mutate.mint_edit", "mutate.apply_edits", "mutate.apply_edit",
         "localize", "aos.select_arm", "aos.credit", "aos.flush_generation")

# Names of the exact counters: noise cannot move them, so two traced
# repetitions of one workload must agree on every one. `engine.cases*`
# count only the search's own evaluations, not the localize run or the
# held-out quality run of a patch.
COUNTERS = tuple(
    [f"{name}.calls" for name in TIMED]
    + ["interp.cases", "interp.cases.pass"]
    + [f"interp.cases.fault.{kind}" for kind in FAULT_KINDS]
    + ["mutate.mint_edit.inapplicable", "mutate.apply_edits.edits",
       "engine.evaluations", "engine.patched", "engine.cases",
       "engine.cases.fault.budget", "engine.cases.fault.cycle"])


def _pool_metrics(cells, jobs, clocks):
    """busy_frac and tail_idle_s from (pid, start, end) of every cell."""
    if not cells:
        return 0.0, 0.0
    first = min(start for _, start, _ in cells)
    last = max(end for _, _, end in cells)
    busy = sum(clocks.of(pid).seconds(start, end)
               for pid, start, end in cells)
    last_by_worker = {}
    for pid, _, end in cells:
        last_by_worker[pid] = max(end, last_by_worker.get(pid, end))
    # a worker that never got a cell was idle from the start
    idle_from = (min(last_by_worker.values())
                 if len(last_by_worker) >= jobs else first)
    return (busy / (jobs * clocks.all.seconds(first, last)),
            clocks.all.seconds(idle_from, last))


def layer_metrics(spans_by_pid: dict, jobs: int, clocks) -> dict:
    """Per-layer metrics; `clocks` is the repetition's speed.RunClocks."""
    calls, seconds = Counter(), Counter()
    counts = Counter()
    worst_s = Counter()
    faulted_calls = 0
    faulted_s = 0.0
    gate_bug_s = Counter()
    cells = []
    attempt_self = 0.0
    for pid, spans in spans_by_pid.items():
        clock = clocks.of(pid)
        child_s = Counter()          # direct children time per parent
        for name, start, end, parent, _cell, _info in spans:
            if parent >= 0:
                child_s[parent] += clock.seconds(start, end)
        for idx, (name, start, end, parent, cell, info) in enumerate(spans):
            took = clock.seconds(start, end)
            calls[name] += 1
            seconds[name] += took
            if name == "interp.run_tests" and isinstance(info, list):
                cases, passed, faults = info
                counts["interp.cases"] += cases
                counts["interp.cases.pass"] += passed
                counts.update(f"interp.cases.fault.{kind}" for kind in faults)
                if parent >= 0 and spans[parent][0] == "engine.attempt":
                    counts["engine.cases"] += cases
                    counts["engine.cases.fault.budget"] += \
                        faults.count("budget")
                    counts["engine.cases.fault.cycle"] += faults.count("cycle")
                worst = ("budget" if "budget" in faults else
                         "cycle" if "cycle" in faults else "clean")
                worst_s[worst] += took
                if worst != "clean":
                    faulted_calls += 1
                    faulted_s += took
            elif name == "mutate.mint_edit" and info == "InapplicableOperator":
                counts["mutate.mint_edit.inapplicable"] += 1
            elif name == "mutate.apply_edits" and isinstance(info, int):
                counts["mutate.apply_edits.edits"] += info
            elif name == "engine.attempt" and isinstance(info, list):
                counts["engine.evaluations"] += info[0]
                counts["engine.patched"] += int(info[1])
                attempt_self += took - child_s[idx]
            elif name == CELL:
                cells.append((pid, start, end))
            elif name == GATE_BUG:
                gate_bug_s[cell] += took

    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
    for name in COUNTERS:
        out.setdefault(name, counts[name])
    run_tests_calls = calls["interp.run_tests"]
    run_tests_s = seconds["interp.run_tests"]
    out.update({
        "interp.run_tests.budget_s": worst_s["budget"],
        "interp.run_tests.cycle_s": worst_s["cycle"],
        "interp.run_tests.clean_s": worst_s["clean"],
        "interp.run_tests.faulted_call_frac":
            faulted_calls / run_tests_calls if run_tests_calls else 0.0,
        "interp.run_tests.faulted_time_frac":
            faulted_s / run_tests_s if run_tests_s else 0.0,
        "interp.s_per_case":
            run_tests_s / counts["interp.cases"] if counts["interp.cases"]
            else 0.0,
        "mutate.mint_edit.applicable_frac":
            1.0 - counts["mutate.mint_edit.inapplicable"]
            / calls["mutate.mint_edit"] if calls["mutate.mint_edit"] else 0.0,
        "mutate.enumerate_edits.s": seconds["mutate.enumerate_edits"],
        "syntax.parse_program.s": seconds["syntax.parse_program"],
        "syntax.print_program.s": seconds["syntax.print_program"],
        "engine.attempt.s": seconds["engine.attempt"],
        "engine.search.self_s": attempt_self,
        "experiment.run_experiment.s": seconds["experiment.run_experiment"],
        "experiment.evaluate_quality.s":
            seconds["experiment.evaluate_quality"],
        "experiment.write_report.s": seconds["experiment.write_report"],
        "corpus.load_corpus.s": seconds["corpus.load_corpus"],
    })
    out["experiment.pool.busy_frac"], out["experiment.pool.tail_idle_s"] = \
        _pool_metrics(cells, jobs, clocks)
    for bug in GATE_TABLE:
        out[f"corpus.check_bug.{bug}.s"] = gate_bug_s[bug]
    return out

