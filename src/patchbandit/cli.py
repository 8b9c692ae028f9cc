"""Command line front end: repair run | bench | quality | gate."""

import argparse
import math
import sys
from pathlib import Path

from .aos import CADENCES, CREDITS, POLICIES, REWARDS, ConfigError
from .corpus import (CorpusError, GATE_STEP_BUDGET, load_corpus, load_patch,
                     run_gate)
from .engine import ARM_SCHEMES
from .experiment import (ConfigSpec, EXPERIMENT_STEP_BUDGET, ExperimentPlan,
                         PlanFormatError, evaluate_quality, load_plan,
                         parse_bug_names, run_experiment, write_report)
from .toylang.syntax import read_int

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CORPUS = 2
EXIT_GATE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; usage problems are exit code 1 here
    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    # a flag reads integers as a test suite does
    try:
        return read_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _path(text: str) -> str:
    # an empty path would name the working directory, or for --corpus the
    # packaged corpus, without a word
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _step_budget(text: str) -> int:
    # run_tests rejects a budget below 1; refuse it before any work starts
    budget = _integer(text)
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {budget}")
    return budget


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repair",
                     description="Bandit-guided program repair experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag left out is absent, so the ConfigSpec/ExperimentPlan default holds
    run = sub.add_parser("run", help="one selection config over the corpus",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--policy", required=True,
                     choices=("uniform",) + POLICIES)
    run.add_argument("--credit", choices=CREDITS)
    run.add_argument("--alpha", type=float,
                     help="ERWA decay; defaults to the policy's tuned value")
    run.add_argument("--reward", choices=REWARDS)
    run.add_argument("--cadence", choices=CADENCES)
    run.add_argument("--arms",
                     choices=[s.removeprefix("arms") for s in ARM_SCHEMES])
    run.add_argument("--pop", dest="population_size", type=_integer)
    run.add_argument("--gens", dest="generations", type=_integer)
    run.add_argument("--attempts", type=_integer)
    run.add_argument("--seed", dest="base_seed", type=_integer)
    run.add_argument("--corpus", dest="corpus_dir", type=_path)
    run.add_argument("--out", required=True, type=_path)
    run.add_argument("--bugs", dest="bug_names",
                     help="comma-separated bug names; default: all")
    run.add_argument("--step-budget", type=_step_budget)
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="run a plan manifest")
    bench.add_argument("--plan", required=True)
    bench.add_argument("--out", required=True, type=_path)
    bench.set_defaults(func=cmd_bench)

    quality = sub.add_parser("quality",
                             help="held-out scores for saved patches")
    quality.add_argument("--patches", required=True, type=_path)
    quality.add_argument("--corpus", default=None, type=_path)
    quality.add_argument("--step-budget", type=_step_budget,
                         default=EXPERIMENT_STEP_BUDGET)
    quality.set_defaults(func=cmd_quality)

    gate = sub.add_parser("gate", help="corpus reachability oracle")
    gate.add_argument("--corpus", default=None, type=_path)
    gate.add_argument("--step-budget", type=_step_budget,
                      default=GATE_STEP_BUDGET)
    gate.set_defaults(func=cmd_gate)
    return parser


def _out_dir(text: str) -> Path:
    # made and checked before any cell runs, so a bad --out loses no results
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise _UsageError(f"not a directory: {out}") from None
    except OSError as err:
        raise _UsageError(f"cannot create {out}: {err.strerror}") from None
    # an entry of the wrong kind would fail write_report after every cell;
    # a link to nothing is an entry too, though exists() calls it absent
    for name, kind, is_kind in (("summary.csv", "file", Path.is_file),
                                ("detail.json", "file", Path.is_file),
                                ("patches", "directory", Path.is_dir)):
        entry = out / name
        if (entry.exists() or entry.is_symlink()) and not is_kind(entry):
            raise _UsageError(f"not a {kind}: {entry}")
    # so would a patch file's name taken by anything but a regular file
    for entry in sorted((out / "patches").glob("*.patch")):
        if not entry.is_file():
            raise _UsageError(f"not a file: {entry}")
    return out


def _finish(report, out_dir) -> int:
    write_report(report, out_dir)
    sys.stdout.write(report.to_csv())
    errors = report.detail["errors"]
    for error in errors:
        print(f"corpus error: {error['message']}", file=sys.stderr)
    return EXIT_CORPUS if errors else EXIT_OK


def _given(args, cls) -> dict:
    """The flags given on the command line that set a field of cls."""
    return {name: getattr(args, name) for name in cls._fields
            if hasattr(args, name)}


def cmd_run(args) -> int:
    settings = _given(args, ExperimentPlan)
    if "bug_names" in settings:
        settings["bug_names"] = parse_bug_names(settings["bug_names"])
    plan = ExperimentPlan(configs=(ConfigSpec(**_given(args, ConfigSpec)),),
                          **settings)
    out = _out_dir(args.out)
    return _finish(run_experiment(plan), out)


def cmd_bench(args) -> int:
    plan = load_plan(args.plan)
    out = _out_dir(args.out)
    return _finish(run_experiment(plan), out)


def cmd_quality(args) -> int:
    bugs = {bug.name: bug for bug in load_corpus(args.corpus)}
    patch_dir = Path(args.patches)
    if not patch_dir.is_dir():
        raise _UsageError(f"not a directory: {patch_dir}")
    files = sorted(patch_dir.glob("*.patch"))
    if not files:
        print("no patch files found")
        return EXIT_OK
    scores = []
    for path in files:
        bug_name, edits = load_patch(path)
        if bug_name not in bugs:
            raise CorpusError(f"{path.name}: unknown bug {bug_name!r}")
        quality = evaluate_quality(edits, bugs[bug_name],
                                   step_budget=args.step_budget)
        print(f"{path.name} {bug_name} {quality['t_pass']}/"
              f"{quality['t_total']} {quality['score']:.6g}")
        scores.append(quality["score"])
    kept = [s for s in scores if s > 0.0]
    if kept:
        print(f"aggregate quality over {len(kept)} patches "
              f"(zero-pass excluded): {math.fsum(kept) / len(kept):.6g}")
    else:
        print("aggregate quality: no patch passed any held-out test")
    return EXIT_OK


def cmd_gate(args) -> int:
    results = run_gate(load_corpus(args.corpus), step_budget=args.step_budget)
    for result in results:
        if result.ok:
            ops = ",".join(sorted(set(result.fixing_operators)))
            print(f"{result.name}: PASS ({result.single_edit_fixes} "
                  f"single-edit fixes via {ops})")
        else:
            print(f"{result.name}: FAIL")
            for error in result.errors:
                print(f"  {error}")
    ok = all(result.ok for result in results)
    print(f"gate: {'PASS' if ok else 'FAIL'} ({len(results)} bugs)")
    return EXIT_OK if ok else EXIT_GATE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, PlanFormatError, ConfigError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CorpusError as err:
        print(f"corpus error: {err}", file=sys.stderr)
        return EXIT_CORPUS


if __name__ == "__main__":
    sys.exit(main())
