"""No output byte depends on how the running Python's `sum` adds floats.

Python 3.12 made the builtin `sum` add floats with Neumaier compensation;
3.10 and 3.11 add them left to right.  The macro success rate therefore
takes math.fsum, which rounds correctly on every version, and the search
adds its weights in its own left-to-right loop.  Only one Python may be
installed, so the guard here emulates 3.12's `sum` in every module of the
package and checks that a plan's output bytes and a macro rate on which
the two ways of adding differ stay the same.
"""

import math
import pkgutil
from functools import reduce
from importlib import import_module
from operator import add

import patchbandit
from patchbandit import cli
from patchbandit.experiment import compute_metrics

from test_acceptance import SMALL_PLAN

# patched attempts out of 20 per bug: the acceptance matrix's pm|erwa block
# (ExperimentPlan(configs=MATRIX_CONFIGS, attempts=20, base_seed=0))
PM_ERWA_PATCHED = {"callswap-1": 0, "dupadd-1": 20, "guard-1": 0,
                   "init-1": 0, "mid3": 20, "negbal-1": 20, "offbyone-1": 3,
                   "reset-1": 20, "sched-1": 20, "span-1": 5, "swap-1": 3,
                   "worstloss-1": 4}

# math.fsum of the twelve rates over 12; left-to-right addition gives
# 0.47916666666666674
PM_ERWA_MACRO = 0.4791666666666667


def compensated_sum(iterable, start=0):
    """The builtin sum as Python 3.12 computes it: ints and bools add
    exactly until the first float; from there on a float adds with
    Neumaier compensation, an int as a plain double, and the compensation
    is added back at the end."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if isinstance(total, float):
            break
    else:
        return total
    compensation = 0.0
    for item in items:
        if not isinstance(item, float):
            total += float(item)
            continue
        result = total + item
        if abs(total) >= abs(item):
            compensation += (total - result) + item
        else:
            compensation += (item - result) + total
        total = result
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _outcomes():
    return {bug: [{"patched": attempt < patched,
                   "variants_evaluated_at_patch": 1 if attempt < patched
                   else None} for attempt in range(20)]
            for bug, patched in PM_ERWA_PATCHED.items()}


def test_the_emulation_differs_from_left_to_right_addition():
    # without a difference on these rates the guard would check nothing
    rates = [patched / 20 for patched in PM_ERWA_PATCHED.values()]
    assert compensated_sum(rates) / 12 == PM_ERWA_MACRO
    assert reduce(add, rates) / 12 == 0.47916666666666674
    assert compensated_sum([1, True, 2]) == 4
    assert compensated_sum([2 ** 60, 1, 1]) == 2 ** 60 + 2


def test_macro_rate_is_the_correctly_rounded_mean():
    assert compute_metrics(_outcomes())["success_rate_macro"] == PM_ERWA_MACRO


def _bench_bytes(tmp_path, label):
    plan_path = tmp_path / "small.plan"
    plan_path.write_text(SMALL_PLAN)
    out = tmp_path / label
    assert cli.main(["bench", "--plan", str(plan_path), "--out", str(out)]) == 0
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_no_output_byte_depends_on_the_float_sum(tmp_path, monkeypatch):
    monkeypatch.setenv("REPAIR_JOBS", "1")
    native = _bench_bytes(tmp_path, "native")
    native_macro = compute_metrics(_outcomes())["success_rate_macro"]
    with monkeypatch.context() as patch:
        # a module-level name shadows the builtin in that module's code
        for module in pkgutil.walk_packages(patchbandit.__path__,
                                            "patchbandit."):
            patch.setattr(import_module(module.name), "sum",
                          compensated_sum, raising=False)
        emulated = _bench_bytes(tmp_path, "emulated")
        macro = compute_metrics(_outcomes())["success_rate_macro"]
    assert emulated == native
    assert macro == native_macro == PM_ERWA_MACRO
