"""Seeded-bug corpus: loading, validation, patch files, reachability gate.

A corpus directory holds one subdirectory per bug with four files:
``bug.toy`` (the seeded-defect program), ``fixed.toy`` (the reference
repair), ``repair.tests`` (the suite the search optimizes against), and
``heldout.tests`` (unseen tests used only for patch-quality scoring).

The gate re-derives every claim the experiments rely on: the reference
fix is perfect on both suites, the buggy program fails at least one and
passes at least one repair test, and brute-force enumeration of all
single-edit mutants over the localized region contains at least one
variant that passes the whole repair suite.
"""

import json
from pathlib import Path
from typing import NamedTuple

from .toylang import (ALL_OPERATORS, Edit, NothingToRepair, ParseError,
                      SuiteFormatError, enumerate_edits, apply_edit,
                      localize, parse_program, parse_suite, passes_all,
                      payload_fits, print_program, run_tests, same_shape)

DEFAULT_CORPUS_DIR = Path(__file__).parent / "corpus"

# the step budget of `repair gate` when --step-budget is not given
GATE_STEP_BUDGET = 100_000

BUG_FILES = ("bug.toy", "fixed.toy", "repair.tests", "heldout.tests")


class CorpusError(Exception):
    """A bug directory is missing, malformed, or unparseable."""


class Bug(NamedTuple):
    name: str
    program: object        # buggy Program
    fixed: object          # reference Program
    repair_suite: object
    heldout_suite: object


def load_bug(path) -> Bug:
    path = Path(path)
    texts = {}
    for filename in BUG_FILES:
        if not (path / filename).is_file():
            raise CorpusError(f"{path.name}: missing {filename}")
        try:
            texts[filename] = (path / filename).read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise CorpusError(
                f"{path.name}: {filename} is not UTF-8 text") from err
    try:
        program = parse_program(texts["bug.toy"])
        fixed = parse_program(texts["fixed.toy"])
        repair, heldout = (parse_suite(texts[name], source=str(path / name))
                           for name in ("repair.tests", "heldout.tests"))
    except (ParseError, SuiteFormatError) as err:
        raise CorpusError(f"{path.name}: {err}") from err
    return Bug(path.name, program, fixed, repair, heldout)


def load_corpus(path):
    """Load every bug under the corpus directory, sorted by name; None
    names the packaged corpus."""
    if path == "":      # Path("") would name the working directory
        raise CorpusError("empty corpus path")
    root = DEFAULT_CORPUS_DIR if path is None else Path(path)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")
    bugs = tuple(load_bug(sub) for sub in sorted(root.iterdir())
                 if sub.is_dir())
    if not bugs:
        raise CorpusError(f"no bug directories under {root}")
    return bugs


# ------------------------------------------------------------ patch files


def edits_to_jsonable(edits):
    return [{"op": e.op, "target": e.target, "path": list(e.path),
             "payload": list(e.payload)} for e in edits]


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _items(record, key) -> tuple:
    # tuple() would also split a string into its characters
    if not isinstance(record[key], list):
        raise TypeError(f"{key} {record[key]!r} is not a list")
    return tuple(record[key])


def edits_from_jsonable(records):
    try:
        edits = tuple(Edit(r["op"], r["target"], _items(r, "path"),
                           _items(r, "payload")) for r in records)
    except (KeyError, TypeError) as err:
        raise CorpusError(f"malformed edit record: {err}") from err
    for edit in edits:
        if edit.op not in ALL_OPERATORS:
            raise CorpusError(f"malformed edit record: unknown operator "
                              f"{edit.op!r}")
        if not _is_int(edit.target):
            raise CorpusError(f"malformed edit record: target "
                              f"{edit.target!r} is not an integer")
        if not all(isinstance(step, str) or _is_int(step)
                   for step in edit.path):
            raise CorpusError(f"malformed edit record: path "
                              f"{list(edit.path)!r} holds an item that is "
                              f"neither a string nor an integer")
        if not payload_fits(edit):
            raise CorpusError(f"malformed edit record: payload "
                              f"{list(edit.payload)!r} does not fit {edit.op}")
    return edits


def load_patch(path):
    """Read a patch file; returns (bug name, edit tuple)."""
    try:
        data = json.loads(Path(path).read_text())
        bug_name, records = data["bug"], data["edits"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise CorpusError(f"unreadable patch file {path}: {err}") from err
    if not isinstance(bug_name, str):
        raise CorpusError(f"unreadable patch file {path}: bug name "
                          f"{bug_name!r} is not a string")
    return bug_name, edits_from_jsonable(records)


# ------------------------------------------------------------------ gate


class BugGateResult(NamedTuple):
    name: str
    errors: tuple
    fixing_operators: tuple   # operators with >= 1 full-pass single edit
    single_edit_fixes: int
    edits_examined: int

    @property
    def ok(self) -> bool:
        return not self.errors


def check_bug(bug: Bug, step_budget: int) -> BugGateResult:
    errors = []

    if not same_shape(parse_program(print_program(bug.program)), bug.program):
        errors.append("buggy program does not round-trip")
    if not same_shape(parse_program(print_program(bug.fixed)), bug.fixed):
        errors.append("fixed program does not round-trip")

    for label, suite in (("repair", bug.repair_suite),
                         ("held-out", bug.heldout_suite)):
        report = run_tests(bug.fixed, suite, step_budget)
        if report.fitness != 1.0:
            bad = [case.name for case, flag in zip(suite, report.flags)
                   if not flag]
            errors.append(f"reference fix fails {label} tests: {bad}")

    fixing = []
    examined = 0
    fix_count = 0
    try:
        located = localize(bug.program, bug.repair_suite, step_budget)
    except NothingToRepair:
        errors.append("buggy program fails no repair test")
    else:
        flags = located.report.flags
        if True not in flags:
            errors.append("buggy program passes no repair test")
        # most variants that fail, fail a test the buggy program fails, so
        # those run first and passes_all stops there; the verdict is the same
        failing_first = [case for ok in (False, True)
                         for case, flag in zip(bug.repair_suite, flags)
                         if flag == ok]
        for edit in enumerate_edits(bug.program, located.weights):
            examined += 1
            variant, applied = apply_edit(bug.program, edit)
            if not applied:
                errors.append(f"enumerated edit failed to apply: {edit}")
                continue
            if passes_all(variant, failing_first, step_budget):
                fix_count += 1
                if edit.op not in fixing:
                    fixing.append(edit.op)
        if not fixing:
            errors.append("no single-edit variant passes the repair suite")

    return BugGateResult(bug.name, tuple(errors), tuple(fixing),
                         fix_count, examined)


def run_gate(bugs, step_budget: int) -> tuple:
    """One BugGateResult per bug, in the order given."""
    return tuple(check_bug(bug, step_budget) for bug in bugs)
