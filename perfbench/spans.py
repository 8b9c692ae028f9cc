"""Spans recorded around the harness's public functions, from outside.

The benchmark never edits the program. It replaces a function by a timing
wrapper in the namespace its caller looks it up in: `engine` imports
`run_tests`, `apply_edits`, `mint_edit` and `localize` by name, so those
are patched on `engine`; `corpus` imports `passes_all`, `apply_edit` and
`enumerate_edits` by name, so those are patched on `corpus`; and so on.
`interp.compile_program` and the `Controller` methods are looked up at
call time, so they are patched on their module or class.

A span is `(name, start, end, parent, cell, info)`: `parent` indexes the
span that was open when it began (-1 for none), `cell` names the
(config, bug, attempt) cell or gate bug it belongs to, and `info` holds
what the return value says (fault kinds of a `FitnessReport`, evaluations
of a `RepairOutcome`, number of edits applied) or the name of the
exception that ended the call.

Spans stay in memory, with the process's speed samples (speed.py). Each
process writes its own to `spans-<pid>.json` when its run ends: the
benchmark's child after `cli.main` returns, and each forked pool worker,
which inherits the wrappers, from a multiprocessing finalizer when the
pool shuts it down.
"""

import functools
import importlib
import json
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path

perf = time.perf_counter

# Spans that name one unit of work: a plan cell or a gate bug.
CELL = "experiment.cell"
GATE_BUG = "corpus.check_bug"


def _cell_key(args):
    """Readable id of a plan cell from `experiment._run_attempt`'s task."""
    _corpus, bug, fields, seed = args[0][:4]
    return f"{fields[0]}|{fields[4]}|{bug}|{seed}"


def _report_info(args, kwargs, report):
    faults = [kind for kind in report.faults if kind is not None]
    return [len(report.flags), report.flags.count(True), faults]


def _outcome_info(args, kwargs, outcome):
    return [outcome.total_evaluations, outcome.patched]


def _edit_count(args, kwargs, result):
    edits = args[1] if len(args) > 1 else kwargs["edits"]
    return len(edits)


def _gate_info(args, kwargs, result):
    return [result.name, list(result.errors), list(result.fixing_operators),
            result.single_edit_fixes, result.edits_examined]


def _cell_info(args, kwargs, record):
    return record["total_evaluations"]


# (module, attribute, span name, info) for the traced run.
LAYER_HOOKS = (
    ("patchbandit.cli", "run_experiment", "experiment.run_experiment", None),
    ("patchbandit.cli", "write_report", "experiment.write_report", None),
    ("patchbandit.cli", "load_corpus", "corpus.load_corpus", None),
    ("patchbandit.experiment", "load_corpus", "corpus.load_corpus", None),
    ("patchbandit.experiment", "evaluate_quality",
     "experiment.evaluate_quality", None),
    ("patchbandit.experiment", "run_repair", "engine.attempt", _outcome_info),
    ("patchbandit.experiment", "run_repair_uniform", "engine.attempt",
     _outcome_info),
    ("patchbandit.experiment", "run_tests", "interp.run_tests", _report_info),
    ("patchbandit.experiment", "apply_edits", "mutate.apply_edits",
     _edit_count),
    ("patchbandit.engine", "run_tests", "interp.run_tests", _report_info),
    ("patchbandit.engine", "apply_edits", "mutate.apply_edits", _edit_count),
    ("patchbandit.engine", "mint_edit", "mutate.mint_edit", None),
    ("patchbandit.engine", "localize", "localize", None),
    ("patchbandit.toylang.localize", "run_tests", "interp.run_tests",
     _report_info),
    ("patchbandit.toylang.interp", "compile_program",
     "interp.compile_program", None),
    ("patchbandit.corpus", "parse_program", "syntax.parse_program", None),
    ("patchbandit.corpus", "print_program", "syntax.print_program", None),
    ("patchbandit.corpus", "run_tests", "interp.run_tests", _report_info),
    ("patchbandit.corpus", "localize", "localize", None),
    ("patchbandit.corpus", "passes_all", "interp.passes_all", None),
    ("patchbandit.corpus", "apply_edit", "mutate.apply_edit", None),
    ("patchbandit.aos", "Controller.select_arm", "aos.select_arm", None),
    ("patchbandit.aos", "Controller.credit", "aos.credit", None),
    ("patchbandit.aos", "Controller.flush_generation",
     "aos.flush_generation", None),
)

# Generators: the span covers the time spent producing items, not the
# caller's work between them.
GENERATOR_HOOKS = (
    ("patchbandit.corpus", "enumerate_edits", "mutate.enumerate_edits"),
)


class Dispatched(BaseException):
    """Raised by a set-up probe at the first cell or bug. It derives from
    BaseException so that no handler in the program swallows it."""


def _owner(module_name, attribute):
    """(object holding the name, name) for 'module' + 'Class.attr'."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _patch(module_name, attribute, make):
    owner, name = _owner(module_name, attribute)
    setattr(owner, name, make(getattr(owner, name)))


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, spans_dir, sampler):
        self.spans_dir = Path(spans_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.cell = None
        self.sampler = sampler      # speed.Sampler of this process

    # ------------------------------------------------------------ hooks

    def install(self, layers: bool) -> None:
        """Wrap the cell and gate-bug entry points, and with `layers` every
        boundary in LAYER_HOOKS and GENERATOR_HOOKS."""
        _patch("patchbandit.experiment", "_run_attempt",
               lambda fn: self._wrap(fn, CELL, _cell_info, cell=_cell_key))
        _patch("patchbandit.corpus", "check_bug",
               lambda fn: self._wrap(fn, GATE_BUG, _gate_info,
                                     cell=lambda args: args[0].name))
        if not layers:
            return
        for module, attribute, name, info in LAYER_HOOKS:
            _patch(module, attribute,
                   lambda fn, name=name, info=info: self._wrap(fn, name, info))
        for module, attribute, name in GENERATOR_HOOKS:
            _patch(module, attribute,
                   lambda fn, name=name: self._wrap_generator(fn, name))

    def _enter_process(self):
        # a forked pool worker starts with a copy of its parent's spans
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans.clear()
            self.stack.clear()
            self.sampler.start()
            mp_util.Finalize(None, self.dump, exitpriority=100)

    def _wrap(self, fn, name, info, cell=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if cell is not None:
                self._enter_process()
                self.cell = cell(args)
            span_cell = self.cell
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                spans[idx] = (name, start, perf(), parent, span_cell,
                              type(err).__name__)
                raise
            finally:
                stack.pop()
                if cell is not None:
                    self.cell = None
            end = perf()
            spans[idx] = (name, start, end, parent, span_cell,
                          info(args, kwargs, result) if info else None)
            return result
        return hooked

    def _wrap_generator(self, fn, name):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            span_cell = self.cell
            items = fn(*args, **kwargs)
            first = perf()
            busy = 0.0
            try:
                while True:
                    start = perf()
                    try:
                        item = next(items)
                    except StopIteration:
                        busy += perf() - start
                        return
                    busy += perf() - start
                    yield item
            finally:
                spans[idx] = (name, first, first + busy, parent, span_cell,
                              None)
        return hooked

    # ----------------------------------------------------------- output

    def dump(self) -> None:
        self.sampler.stop()
        path = self.spans_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans,
                                    "samples": self.sampler.samples}))


def install_probe(record: dict) -> None:
    """Stop the program at its first cell or gate bug, noting the time."""
    def stop(fn):
        @functools.wraps(fn)
        def first_dispatch(*args, **kwargs):
            record["t_dispatch"] = perf()
            raise Dispatched()
        return first_dispatch
    _patch("patchbandit.experiment", "_run_attempt", stop)
    _patch("patchbandit.corpus", "check_bug", stop)


def _span_files(spans_dir):
    for path in sorted(Path(spans_dir).glob("spans-*.json")):
        yield json.loads(path.read_text())


def load_spans(spans_dir):
    """{pid: [span, ...]} from every span file of one run."""
    return {data["pid"]: data["spans"] for data in _span_files(spans_dir)}


def load_samples(spans_dir):
    """{pid: [(time, slowdown), ...]}: the speed samples of each process."""
    return {data["pid"]: [tuple(point) for point in data["samples"]]
            for data in _span_files(spans_dir)}
