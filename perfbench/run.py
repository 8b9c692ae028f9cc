"""Benchmark of the patchbandit repair harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in workloads.py and described in README.md.
Every repetition is a fresh `python3 perfbench/child.py` process that
imports the program from `src/` and calls `patchbandit.cli.main`, so each
one pays the set-up a user pays.

Times are in reference seconds: measured seconds divided by the host's
slowdown, which speed.py samples while the program runs.

--trace 0 runs set-up probes and as many measured repetitions as fit in
S reference seconds (at least one) and reports the end-to-end metrics. --trace 1 runs one
untraced and two traced repetitions and reports the per-layer metrics and
the tracing overhead; the run fails if the two traced repetitions
disagree on any exact counter.

Every output is checked (workloads.py). The last line of standard output
is one JSON object: {"correct": bool, "attempted": int, "failed": int,
"metrics": {name: {"value": number, "unit": str}}}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

if not (SRC / "patchbandit" / "cli.py").is_file():
    sys.exit(f"no program to measure: {SRC} holds no patchbandit package")
sys.path.insert(0, str(SRC))

import spans  # noqa: E402  (the imports below need SRC on the path)
import speed  # noqa: E402
from layers import COUNTERS, layer_metrics  # noqa: E402
from patchbandit.corpus import load_corpus  # noqa: E402
from workloads import (P0, P0_COUNTERS, WORKLOADS,  # noqa: E402
                       check_gate, check_plan)

PROBES = 9            # set-up probes per untraced run
RUN_LIMIT_S = 170     # a run must end within 180 s
TAIL_BEYOND = 10      # the tail percentile keeps this many samples beyond it


@dataclass
class Rep:
    """One repetition: its timings and what its checks found."""

    ops: int
    failed: int
    problems: list = field(default_factory=list)
    wall: float = 0.0        # measured seconds
    ref_wall: float = 0.0    # reference seconds (speed.py)
    cells: dict = field(default_factory=dict)   # cell or bug -> ref. s
    work: int = 0            # variants evaluated, or gate edits examined
    rss_mb: float = 0.0
    job_dir: Path = None
    clocks: speed.RunClocks = None
    timed: bool = False


def _stop_group(pgid):
    """Kill what is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(job_dir, mode, argv, jobs, deadline):
    """Run child.py once; its result dict, or None if it did not finish."""
    job_dir.mkdir(parents=True)
    (job_dir / "job.json").write_text(json.dumps(
        {"mode": mode, "src": str(SRC), "argv": argv, "jobs": jobs}))
    env = dict(os.environ, REPAIR_JOBS=str(jobs))
    with open(job_dir / "stderr.txt", "wb") as log:
        before = speed.sample()
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_dir)],
            env=env, stdout=log, stderr=log, start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            _stop_group(proc.pid)
            proc.wait()
    after = speed.sample()
    result_path = job_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        return None
    result = json.loads(result_path.read_text())
    result["t_spawn"] = t_spawn
    result["samples"] = [before, after] + result.get("samples", [])
    return result


def probe_setup(wl, plan_path, job_dir, deadline):
    """(measured, reference) seconds from spawning a child to its first
    cell or gate bug, at the speed sampled just before and after it."""
    result = spawn(job_dir, "probe", wl.argv(plan_path, job_dir / "out"), 1,
                   deadline)
    if result is None or "t_dispatch" not in result:
        return None
    clock = speed.RefClock(result["samples"])
    return (result["t_dispatch"] - result["t_spawn"],
            clock.seconds(result["t_spawn"], result["t_dispatch"]))


def measure(wl, mode, job_dir, plan_path, bugs, deadline):
    """Run and check one repetition."""
    ops = wl.ops(bugs)
    out_dir = job_dir / "out"
    result = spawn(job_dir, mode, wl.argv(plan_path, out_dir), wl.jobs,
                   deadline)
    if result is None:
        return Rep(ops, ops, [f"{job_dir.name}: child failed, see "
                              f"{job_dir / 'stderr.txt'}"])
    units = [(pid, span)
             for pid, spans_of in spans.load_spans(job_dir).items()
             for span in spans_of if span[0] in (spans.CELL, spans.GATE_BUG)]
    stdout = (job_dir / "stdout.txt").read_text()
    if wl.is_gate:
        failed, problems = check_gate(stdout, result["exit_code"],
                                      [span[5] for _, span in units])
        work = sum(span[5][4] for _, span in units)
    else:
        failed, problems = check_plan(wl.plan, out_dir, stdout,
                                      result["exit_code"], bugs)
        work = sum(span[5] for _, span in units)
    if len(units) != ops:
        failed = ops
        problems.append(f"{len(units)} of {ops} cells reported a result")
    clocks = speed.RunClocks(result["samples"], spans.load_samples(job_dir))
    return Rep(ops, failed, [f"{job_dir.name}: {p}" for p in problems],
               wall=result["t_end"] - result["t_spawn"],
               ref_wall=ref_wall(result, units, clocks),
               cells={span[4]: clocks.of(pid).seconds(span[1], span[2])
                      for pid, span in units},
               work=work, rss_mb=result["peak_rss_mb"], job_dir=job_dir,
               clocks=clocks, timed=True)


def ref_wall(result, units, clocks):
    """Wall time of a repetition in reference seconds. While a pool runs
    cells, the wall is that of its last worker to finish, at that
    worker's own speed."""
    start, end = result["t_spawn"], result["t_end"]
    pids = {pid for pid, _ in units}
    if len(pids) < 2:
        return clocks.all.seconds(start, end)
    first = min(span[1] for _, span in units)
    last = {pid: max(span[2] for p, span in units if p == pid)
            for pid in pids}
    return (clocks.all.seconds(start, first)
            + max(clocks.of(pid).seconds(first, t) for pid, t in last.items())
            + clocks.all.seconds(max(last.values()), end))


def tail(values):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it
    (the largest value when there are too few samples)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]


def cell_percentiles(cell_s):
    """attempt_p50_s and attempt_tail_s over per-cell (or per-bug) times."""
    return {"attempt_p50_s": statistics.median(cell_s),
            "attempt_tail_s": tail(cell_s)}


def end_to_end(reps, setups):
    """Metrics of an untraced run, and the cell percentiles it prints.

    Times are in reference seconds (speed.py). Wall time and rate are
    medians over the repetitions, each cell's time is its median over the
    repetitions, and set-up is the median probe."""
    keys = set.intersection(*(set(rep.cells) for rep in reps))
    cell_s = [statistics.median(rep.cells[key] for rep in reps)
              for key in keys]
    return {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_s": statistics.median(rep.ref_wall for rep in reps),
        "evals_per_s": statistics.median(rep.work / rep.ref_wall
                                         for rep in reps),
        "peak_rss_mb": max(rep.rss_mb for rep in reps),
    }, cell_percentiles(cell_s), len(cell_s)


def per_layer(wl, untraced, traced):
    """Metrics of a traced run, and what its counter self-check found."""
    first, second = (layer_metrics(spans.load_spans(rep.job_dir), wl.jobs,
                                   rep.clocks)
                     for rep in traced)
    problems = [f"counter {name}: {first[name]} then {second[name]}"
                for name in COUNTERS if first[name] != second[name]]
    if wl.plan is P0:
        problems += [f"counter {name}: {first[name]}, pinned {want}"
                     for name, want in P0_COUNTERS.items()
                     if first[name] != want]
    fastest = min(traced, key=lambda rep: rep.ref_wall)
    metrics = first if fastest is traced[0] else second
    overhead = fastest.ref_wall - untraced.ref_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced.ref_wall
    metrics["host.wall_measured_s"] = untraced.wall
    metrics["host.slowdown"] = untraced.wall / untraced.ref_wall
    metrics.update(cell_percentiles(list(untraced.cells.values())))
    return metrics, problems


def run(args, spec):
    deadline = time.perf_counter() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    bugs = {bug.name: bug
            for bug in load_corpus(SRC / "patchbandit" / "corpus")}
    work = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def plan_for(order):
        """The input plan, with the bugs in the seed's order-th order."""
        path = work / f"input-{order}.plan"
        if not wl.is_gate and not path.exists():
            path.write_text(wl.plan.text(f"{args.seed}:{order}", bugs))
        return path

    def rep(name, mode, order=0):
        return measure(wl, mode, work / name, plan_for(order), bugs,
                       deadline)

    if args.trace:      # one order, so that the repetitions compare
        reps = [rep("untraced", "run"), rep("traced-1", "trace"),
                rep("traced-2", "trace")]
    else:               # an order per repetition
        setups = [probe_setup(wl, plan_for(0), work / f"probe-{k}",
                              deadline)
                  for k in range(PROBES)]
        reps = [rep(f"rep-{k}", "run", order=k)
                for k in range(max(1, int(args.seconds // wl.nominal_s)))]
    problems = [p for r in reps for p in r.problems]
    failed = sum(r.failed for r in reps)
    attempted = sum(r.ops for r in reps)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    timed = [r for r in reps if r.timed]
    if len(timed) < (len(reps) if args.trace else 1):
        sys.exit("too few repetitions finished to report metrics")

    if args.trace:
        metrics, counter_problems = per_layer(wl, reps[0], reps[1:])
        for problem in counter_problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if counter_problems:    # count the second traced repetition
            failed = max(failed, reps[2].ops)
        declared = spec["per_layer"]
        notes = []
    else:
        if None in setups:
            sys.exit("a set-up probe did not reach its first cell")
        metrics, cells, samples = end_to_end(timed, setups)
        declared = spec["end_to_end"]
        notes = [f"{len(timed)} of {len(reps)} repetitions timed, "
                 f"{PROBES} set-up probes; times in reference seconds",
                 "measured wall: " + ", ".join(
                     f"{r.wall:.4g} s (slowdown {r.wall / r.ref_wall:.3g})"
                     for r in timed),
                 "measured set-up: median " + format(statistics.median(
                     raw for raw, _ in setups), ".4g") + " s"]
        if wl.is_gate:
            notes.append(f"edits_per_s = {metrics['evals_per_s']:.6g} 1/s")
        notes += [f"{name} = {value:.6g} s (over {samples} "
                  f"{'bugs' if wl.is_gate else 'cells'})"
                  for name, value in cells.items()]
    print(f"{wl.name} seed={args.seed} trace={args.trace}: failed_frac = "
          f"{failed / attempted:.6g} ({failed} of {attempted})")
    emit(metrics, declared, notes, failed, attempted)


def emit(metrics, declared, notes, failed, attempted):
    """Print the metrics by name and unit, then the result line."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        sys.exit(f"metrics {sorted(set(units) ^ set(metrics))} do not "
                 "match BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run(args, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    main()
