"""Tree-walking interpreter with a per-test step budget.

Programs are compiled once into nested closures (one per AST node) and then
run against test cases.  Values are ints in the signed 64-bit range
(`syntax.INT_MIN` to `INT_MAX`, in place of a cap on products alone) plus
int arrays (lists) bound to parameters.  Literals and test values are
checked where they are read and results in `_ARITH_FNS`, so every value
stays in range.  Any misuse (undefined variable, array index out of
bounds, division or modulus by zero, non-integer operand, a result outside
the range, unknown callee, wrong arity, call depth past the cap, falling
off a function without returning) raises a runtime fault, which fails the
current test.  Call depth is the toy program's own: a run whose
recursion, or whose compiling, outgrows Python's stack before the cap is
rerun whole, compiling included, with room for the whole cap.

A step is one statement execution; a while loop spends one step per
condition check.  Exhausting the budget is a fault.  The fault rule for
loops is: a loop whose snapshot, taken at every condition check from its
64th iteration on, repeats one taken earlier faults `cycle` there.  A
snapshot leaves out the loop's accumulators: names whose every occurrence
in the loop (condition and body, nested statements included) is a
self-update `v = v + e`, `v = v - e` or `v = e + v`, where `e` reads no
accumulator (found when the loop takes its first snapshot).  At the first
repeat of such a reduced snapshot the loop can never end: it faults
`cycle` if the accumulators repeat too, and otherwise `budget`, or
`overflow` if an accumulator leaves the range before the budget is gone
(`_skip_periods`).  Each is the fault the loop would reach without the
projection, at any budget.  A loop snapshots from its first iteration,
so a loop that freezes early stops at its first repeat, and works out
there which fault the rule would give.

The hot path rests on four exactness arguments:

* A loop snapshot is the tuple of the frame's values alone, arrays copied
  to tuples.  Names are never removed from a frame, only added, and a
  dict keeps insertion order, so two snapshots of one loop with the same
  length hold the same names in the same order.  Equal value tuples
  therefore mean equal frames, and snapshots of different lengths never
  compare equal.  With accumulators the reduced snapshot starts with the
  frame length for the same reason.
* A reduced snapshot holds everything that can steer the loop or raise a
  fault.  An accumulator is read only by its own update, and that read
  faults only if the name is undefined (the frame length shows that) or
  not an int (then the period before the repeat would have faulted,
  unless it never ran the update).  So once the reduced snapshot repeats,
  the loop takes the same path forever and each accumulator changes by
  the same amount every period.  If every amount is zero, the full frame
  repeats at this iteration, the first at which it can, and the full
  snapshot repeats here too.  Otherwise the full frame never repeats and
  the loop runs until the budget is gone or an accumulator leaves the
  range.  An accumulator moves by the same amount each period at each
  point of the period, so it leaves the range within the budget only if
  it is out of range at some point of the last two periods the budget
  allows, which hold the last time the loop reaches each point.  So the
  loop moves the accumulators on by the periods before those (a value
  that leaves the range there faults `overflow` at once, as it would at
  the period's last update) and runs the two.  Every statement it would
  run was covered in that period, so coverage matches as well.
* When iteration j's snapshot first repeats iteration i's, the loop runs
  the same path, spends the same steps and covers the same statements
  every p = j - i iterations from i on.  The rule, which looks only from
  iteration 64 on, first meets a repeat at iteration max(i, 64) + p, and
  the steps left there follow from the steps left at iterations i to j
  (`_fault_at_repeat`).  Steps only go down, so if that count is negative
  the budget runs out on the way there.  Every statement run after j was
  run between i and j, so faulting at j gives the rule's fault kind and
  coverage; only the steps left differ, and no report carries them.
* `Num` with an int literal, `Unary`, `Binary` and `len(...)` can only
  produce an int (or fault), so conditions, `&&`/`||` operands, indexes
  and stored values built from them skip the run-time int check.  `Var`,
  `Index` and user `Call` results keep it: a variable or a callee's
  return may be an array, and array elements come from test arguments
  that nothing validates.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

from .syntax import (Assign, Binary, Block, Call, Function, If, Index, Num,
                     Program, Return, Store, Unary, Var, While, BUILTIN_LEN,
                     INT_MAX, INT_MIN, children, height)

DEFAULT_STEP_BUDGET = 100_000
MAX_CALL_DEPTH = 100
_CYCLE_CHECK_AFTER = 64


class ToyFault(Exception):
    """Runtime fault; `kind` is a short machine-readable tag."""

    def __init__(self, kind: str, msg: str):
        super().__init__(msg)
        self.kind = kind


class _ReturnSignal(Exception):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Ctx:
    __slots__ = ("steps", "coverage", "depth")

    def __init__(self, steps: int, coverage, depth: int = 0):
        self.steps = steps
        self.coverage = coverage
        self.depth = depth


def _undefined(name: str) -> ToyFault:
    return ToyFault("undefined-variable",
                    f"variable {name!r} read before assignment")


def _not_an_array(name: str, value) -> ToyFault:
    """The fault of using `name` as an array; value is env.get(name)."""
    if value is None:
        return ToyFault("undefined-variable", f"array {name!r} is not defined")
    return ToyFault("type", f"{name!r} is not an array")


# `/` rounds toward zero, and `%` is the remainder with the sign of a
def _div(a: int, b: int) -> int:
    if b == 0:
        raise ToyFault("div-zero", "division by zero")
    q = a // b
    return q + 1 if q < 0 and q * b != a else q


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise ToyFault("div-zero", "modulus by zero")
    return a - _div(a, b) * b


def _checked(fn):
    """fn, faulting `overflow` when its result leaves the int range."""
    low, high = INT_MIN, INT_MAX
    def checked(a: int, b: int) -> int:
        v = fn(a, b)
        if low <= v <= high:
            return v
        raise ToyFault("overflow", "result outside the signed 64-bit range")
    return checked


# every arithmetic operator, on ints the caller has checked
_ARITH_FNS = {"+": _checked(operator.add), "-": _checked(operator.sub),
              "*": _checked(operator.mul), "/": _checked(_div),
              "%": _checked(_mod)}
_CMP_FNS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def _state_key(env: dict) -> tuple:
    return tuple([tuple(v) if type(v) is list else v for v in env.values()])


def _split_state(env: dict, accumulators: frozenset) -> tuple:
    """The frame as (reduced key, accumulator values), arrays copied to
    tuples as in `_state_key`; the reduced key starts with the frame
    length, so it tells which accumulators are defined."""
    key = [len(env)]
    totals = []
    for name, v in env.items():
        (totals if name in accumulators else key).append(
            tuple(v) if type(v) is list else v)
    return tuple(key), tuple(totals)


def _fault_at_repeat(i: int, j: int, left: list, steps: int) -> ToyFault:
    """The fault the loop rule gives, now that iteration j's snapshot
    repeats iteration i's and no accumulator has changed: left[k] holds
    the steps left after iteration k (k <= 64) and `steps` iteration j's.
    From i the loop repeats every p = j - i iterations for the same steps.
    If i >= 64 the rule sees this repeat itself; otherwise it first meets
    one at J = 64 + p, with left[i + r] - q * (left[i] - steps) steps
    left, where J - i = q * p + r and so i + r <= 64.
    """
    if i < _CYCLE_CHECK_AFTER:
        period = j - i
        q, r = divmod(_CYCLE_CHECK_AFTER + period - i, period)
        if left[i + r] - q * (left[i] - steps) < 0:
            return ToyFault("budget", "step budget exhausted")
    return ToyFault("cycle", "loop state repeats; the loop cannot terminate")


def _skip_periods(env: dict, ctx: _Ctx, accumulators: frozenset,
                  was: tuple, now: tuple, period: int) -> _Ctx:
    """Move changed accumulators (`was` and `now`, in frame order) on by
    all but the last two periods the budget allows, and return a context
    for the rest of the loop, which covers nothing new."""
    skip = max(ctx.steps // period - 1, 0)
    for name, a, b in zip([n for n in env if n in accumulators], was, now):
        if a != b:
            env[name] = _ARITH_FNS["+"](b, skip * (b - a))
    return _Ctx(ctx.steps - skip * period, None, ctx.depth)


class _CompiledFn:
    def __init__(self, fn: Function, functions: dict):
        self.fn = fn
        self.params = fn.params
        self.body = tuple(_compile_stmt(s, functions) for s in fn.body)

    def invoke(self, args: list, ctx: _Ctx):
        if len(args) != len(self.params):
            raise ToyFault("arity",
                           f"{self.fn.name} expects {len(self.params)} "
                           f"arguments, got {len(args)}")
        ctx.depth += 1
        if ctx.depth > MAX_CALL_DEPTH:
            raise ToyFault("depth", "call depth limit exceeded")
        env = dict(zip(self.params, args))
        try:
            for stmt in self.body:
                stmt(env, ctx)
            raise ToyFault("missing-return",
                           f"{self.fn.name} fell off the end")
        except _ReturnSignal as sig:
            return sig.value
        finally:
            ctx.depth -= 1


# ------------------------------------------------------ expression compile


def _yields_int(expr) -> bool:
    """True when expr can only evaluate to an int (or fault)."""
    t = type(expr)
    if t is Num:
        return type(expr.value) is int
    return t is Unary or t is Binary or (t is Call and expr.name == BUILTIN_LEN)


def _compile_int(expr, functions: dict, what: str):
    """Compile expr into a closure that returns an int or faults `type`."""
    fn = _compile_expr(expr, functions)
    if _yields_int(expr):
        return fn
    message = f"{what} must be an integer"
    def checked(env, ctx):
        v = fn(env, ctx)
        if type(v) is not int:
            raise ToyFault("type", message)
        return v
    return checked


def _compile_expr(expr, functions: dict):
    t = type(expr)
    if t is Num:
        v = expr.value
        return lambda env, ctx: v
    if t is Var:
        name = expr.name
        def var_read(env, ctx):
            try:
                return env[name]
            except KeyError:
                raise _undefined(name)
        return var_read
    if t is Index:
        name = expr.name
        if type(expr.index) is Var:
            return _compile_index_by_var(name, expr.index.name)
        idx = _compile_int(expr.index, functions, "array index")
        def index_read(env, ctx):
            arr = env.get(name)
            if type(arr) is not list:
                raise _not_an_array(name, arr)
            i = idx(env, ctx)
            if 0 <= i < len(arr):
                return arr[i]
            raise ToyFault("index",
                           f"{name}[{i}] out of bounds (length {len(arr)})")
        return index_read
    if t is Unary:
        operand = _compile_int(expr.operand, functions, "operand of -")
        sub = _ARITH_FNS["-"]
        return lambda env, ctx: sub(0, operand(env, ctx))
    if t is Binary:
        return _compile_binary(expr, functions)
    if t is Call:
        return _compile_call(expr, functions)
    raise TypeError(f"not an expression node: {expr!r}")


def _compile_index_by_var(name: str, idx_name: str):
    """`name[idx_name]`, both read straight from env, faulting in the
    general path's order."""
    def index_by_var(env, ctx):
        arr = env.get(name)
        if type(arr) is not list:
            raise _not_an_array(name, arr)
        try:
            i = env[idx_name]
        except KeyError:
            raise _undefined(idx_name)
        if type(i) is not int:
            raise ToyFault("type", "array index must be an integer")
        if 0 <= i < len(arr):
            return arr[i]
        raise ToyFault("index",
                       f"{name}[{i}] out of bounds (length {len(arr)})")
    return index_by_var


def _compile_leaf_binary(expr: Binary):
    """Arithmetic or comparison of a variable with a variable or an int
    literal, read straight from env; None for other operand shapes.

    Faults keep the general path's order: the left variable undefined,
    then the right one undefined, then a non-int operand.
    """
    left, right = expr.left, expr.right
    if type(left) is not Var:
        return None
    op = expr.op
    is_cmp = op in _CMP_FNS
    fn = _CMP_FNS[op] if is_cmp else _ARITH_FNS[op]
    a_name = left.name
    message = f"operands of {op} must be integers"
    if type(right) is Num and type(right.value) is int:
        b = right.value
        if is_cmp:
            def cmp_var_num(env, ctx):
                try:
                    a = env[a_name]
                except KeyError:
                    raise _undefined(a_name)
                if type(a) is not int:
                    raise ToyFault("type", message)
                return 1 if fn(a, b) else 0
            return cmp_var_num
        def arith_var_num(env, ctx):
            try:
                a = env[a_name]
            except KeyError:
                raise _undefined(a_name)
            if type(a) is not int:
                raise ToyFault("type", message)
            return fn(a, b)
        return arith_var_num
    if type(right) is Var:
        b_name = right.name
        if is_cmp:
            def cmp_var_var(env, ctx):
                try:
                    a = env[a_name]
                except KeyError:
                    raise _undefined(a_name)
                try:
                    b = env[b_name]
                except KeyError:
                    raise _undefined(b_name)
                if type(a) is not int or type(b) is not int:
                    raise ToyFault("type", message)
                return 1 if fn(a, b) else 0
            return cmp_var_var
        def arith_var_var(env, ctx):
            try:
                a = env[a_name]
            except KeyError:
                raise _undefined(a_name)
            try:
                b = env[b_name]
            except KeyError:
                raise _undefined(b_name)
            if type(a) is not int or type(b) is not int:
                raise ToyFault("type", message)
            return fn(a, b)
        return arith_var_var
    return None


def _compile_binary(expr: Binary, functions: dict):
    op = expr.op
    if op == "&&" or op == "||":
        left = _compile_int(expr.left, functions, f"operand of {op}")
        right = _compile_int(expr.right, functions, f"operand of {op}")
        if op == "&&":
            def and_(env, ctx):
                if not left(env, ctx):
                    return 0
                return 1 if right(env, ctx) else 0
            return and_
        def or_(env, ctx):
            if left(env, ctx):
                return 1
            return 1 if right(env, ctx) else 0
        return or_

    leaf = _compile_leaf_binary(expr)
    if leaf is not None:
        return leaf
    left = _compile_expr(expr.left, functions)
    right = _compile_expr(expr.right, functions)
    message = f"operands of {op} must be integers"
    if op in _CMP_FNS:
        fn = _CMP_FNS[op]
        def cmp(env, ctx):
            a = left(env, ctx)
            b = right(env, ctx)
            if type(a) is not int or type(b) is not int:
                raise ToyFault("type", message)
            return 1 if fn(a, b) else 0
        return cmp
    fn = _ARITH_FNS[op]
    def arith(env, ctx):
        a = left(env, ctx)
        b = right(env, ctx)
        if type(a) is not int or type(b) is not int:
            raise ToyFault("type", message)
        return fn(a, b)
    return arith


def _compile_call(expr: Call, functions: dict):
    name = expr.name
    arg_fns = tuple(_compile_expr(a, functions) for a in expr.args)
    if name == BUILTIN_LEN:
        def len_call(env, ctx):
            if len(arg_fns) != 1:
                raise ToyFault("arity", "len takes exactly one argument")
            arr = arg_fns[0](env, ctx)
            if type(arr) is not list:
                raise ToyFault("type", "len expects an array")
            return len(arr)
        return len_call

    def call(env, ctx):
        cfn = functions.get(name)
        if cfn is None:
            raise ToyFault("unknown-function", f"no function {name!r}")
        return cfn.invoke([fn(env, ctx) for fn in arg_fns], ctx)
    return call


# ------------------------------------------------------- statement compile


def _compile_stmt(stmt, functions: dict):
    t = type(stmt)
    sid = stmt.sid
    if t is Assign:
        name = stmt.name
        value = _compile_expr(stmt.expr, functions)
        def assign(env, ctx):
            steps = ctx.steps - 1
            ctx.steps = steps
            if steps < 0:
                raise ToyFault("budget", "step budget exhausted")
            if ctx.coverage is not None:
                ctx.coverage.add(sid)
            env[name] = value(env, ctx)
        return assign
    if t is Store:
        name = stmt.name
        idx = _compile_int(stmt.index, functions, "array index")
        value = _compile_int(stmt.expr, functions, "stored value")
        def store(env, ctx):
            steps = ctx.steps - 1
            ctx.steps = steps
            if steps < 0:
                raise ToyFault("budget", "step budget exhausted")
            if ctx.coverage is not None:
                ctx.coverage.add(sid)
            arr = env.get(name)
            if type(arr) is not list:
                raise _not_an_array(name, arr)
            i = idx(env, ctx)
            if not 0 <= i < len(arr):
                raise ToyFault("index",
                               f"{name}[{i}] out of bounds (length {len(arr)})")
            arr[i] = value(env, ctx)
        return store
    if t is Return:
        value = _compile_expr(stmt.expr, functions)
        def ret(env, ctx):
            steps = ctx.steps - 1
            ctx.steps = steps
            if steps < 0:
                raise ToyFault("budget", "step budget exhausted")
            if ctx.coverage is not None:
                ctx.coverage.add(sid)
            raise _ReturnSignal(value(env, ctx))
        return ret
    if t is If:
        cond = _compile_int(stmt.cond, functions, "condition")
        then = tuple(_compile_stmt(s, functions) for s in stmt.then)
        orelse = tuple(_compile_stmt(s, functions) for s in stmt.orelse)
        def if_(env, ctx):
            steps = ctx.steps - 1
            ctx.steps = steps
            if steps < 0:
                raise ToyFault("budget", "step budget exhausted")
            if ctx.coverage is not None:
                ctx.coverage.add(sid)
            for s in then if cond(env, ctx) else orelse:
                s(env, ctx)
        return if_
    if t is While:
        cond = _compile_int(stmt.cond, functions, "condition")
        body = tuple(_compile_stmt(s, functions) for s in stmt.body)
        accumulators = None     # found at the first snapshot, if any
        def while_(env, ctx):
            nonlocal accumulators
            seen = {}       # snapshot -> accumulator totals, in order
            left = [None]   # left[k]: steps left after iteration k (k <= 64)
            while True:
                steps = ctx.steps - 1
                ctx.steps = steps
                if steps < 0:
                    raise ToyFault("budget", "step budget exhausted")
                if ctx.coverage is not None:
                    ctx.coverage.add(sid)
                if not cond(env, ctx):
                    return
                if accumulators is None:
                    accumulators = _accumulators(stmt)
                if accumulators:
                    key, totals = _split_state(env, accumulators)
                else:
                    key, totals = _state_key(env), None
                size = len(seen)
                first = seen.setdefault(key, totals)
                if len(seen) == size:
                    i = list(seen).index(key) + 1
                    if first == totals:
                        raise _fault_at_repeat(i, size + 1, left, ctx.steps)
                    # the steps are kept for iterations up to 64 only; for
                    # a later i, start afresh and skip at the next repeat
                    if i < len(left):
                        ctx = _skip_periods(env, ctx, accumulators, first,
                                            totals, left[i] - ctx.steps)
                    seen, left = {}, [None]
                elif size < _CYCLE_CHECK_AFTER:
                    left.append(ctx.steps)
                for s in body:
                    s(env, ctx)
        return while_
    if t is Block:
        body = tuple(_compile_stmt(s, functions) for s in stmt.body)
        def block(env, ctx):
            steps = ctx.steps - 1
            ctx.steps = steps
            if steps < 0:
                raise ToyFault("budget", "step budget exhausted")
            if ctx.coverage is not None:
                ctx.coverage.add(sid)
            for s in body:
                s(env, ctx)
        return block
    raise TypeError(f"not a statement node: {stmt!r}")


def _self_update_delta(stmt: Assign):
    """`e` when stmt is `v = v + e`, `v = v - e` or `v = e + v`, else None."""
    expr = stmt.expr
    if type(expr) is not Binary or expr.op not in ("+", "-"):
        return None
    if type(expr.left) is Var and expr.left.name == stmt.name:
        return expr.right
    if expr.op == "+" and type(expr.right) is Var \
            and expr.right.name == stmt.name:
        return expr.left
    return None


def _accumulators(loop: While) -> frozenset:
    """Names whose every occurrence in the loop (condition and body, nested
    statements included) is the target of a self-update `v = v + e`,
    `v = v - e` or `v = e + v`.

    Any other occurrence of a name counts against it, an occurrence inside
    a delta `e` included, so no delta reads its own or another
    accumulator: a name in doubt is dropped in this one pass.
    """
    updated, other = set(), set()
    todo = list(children(loop))
    while todo:
        node = todo.pop()
        t = type(node)
        if t is Assign:
            delta = _self_update_delta(node)
            if delta is not None:
                updated.add(node.name)
                todo.append(delta)
                continue
        if t is Var or t is Index or t is Store or t is Assign:
            other.add(node.name)
        todo.extend(children(node))
    return frozenset(updated - other)


# --------------------------------------------------------------- running


def compile_program(program: Program) -> dict:
    """The program's functions, compiled, by name.  A call looks its callee
    up in this dict when it runs, so one pass compiles them all."""
    functions = {}
    for fn in program.functions:
        functions[fn.name] = _CompiledFn(fn, functions)
    return functions


@dataclass
class FitnessReport:
    flags: list          # pass/fail per test, in suite order
    fitness: float       # passed / total, exactly
    faults: list         # fault kind per failed test, None when passed
    coverage: list | None = None  # per-test executed statement ids

    @property
    def all_passed(self) -> bool:
        return all(self.flags)


def _stack_room(program: Program) -> int:
    """Python frames enough for MAX_CALL_DEPTH nested toy calls and the one
    that faults: per call, its `invoke` and at most three frames per level
    (a statement's or an expression's closure, plus an int check or a
    call's argument list), with headroom for raising a fault.  Compiling
    takes fewer: at most three frames per level, once.  Measuring the
    height takes at most one frame per level, and none below a statement
    measured before (the parser measures every statement it reads)."""
    levels = height([s for fn in program.functions for s in fn.body])
    return (MAX_CALL_DEPTH + 1) * (3 * levels + 2) + 100


def _with_stack_room(run, program: Program, *args):
    """run(program, *args), which compiles and runs the program.  If
    Python's stack runs out first (deep toy recursion, or compiling a
    deeply nested program, on top of whatever the caller's stack already
    holds), the whole run is rerun once with room for the whole toy depth,
    so that the toy semantics decide the outcome.  Each case runs on a
    fresh context with copied arguments, so the rerun is exact."""
    try:
        return run(program, *args)
    except RecursionError:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + _stack_room(program))
        try:
            return run(program, *args)
        finally:
            sys.setrecursionlimit(limit)


def _run_case(functions: dict, case, step_budget: int, want_cov: bool):
    # the caller has checked that the entry function exists
    ctx = _Ctx(step_budget, set() if want_cov else None)
    args = [list(a) if type(a) in (list, tuple) else a for a in case.args]
    try:
        result = functions[case.entry].invoke(args, ctx)
        return result == case.expected, None, ctx.coverage
    except ToyFault as fault:
        return False, fault.kind, ctx.coverage


def run_tests(program, suite, step_budget: int = DEFAULT_STEP_BUDGET,
              coverage: bool = False) -> FitnessReport:
    """Run the whole suite; fitness is the exact fraction of passing tests.

    A missing entry function zeroes the variant: every test is marked
    failed and fitness is 0.0.
    """
    if step_budget <= 0:
        raise ValueError("step_budget must be positive")
    return _with_stack_room(_run_tests, program, list(suite), step_budget,
                            coverage)


def _run_tests(program, cases: list, step_budget: int, coverage: bool):
    functions = compile_program(program)
    if any(case.entry not in functions for case in cases):
        return FitnessReport([False] * len(cases), 0.0,
                             ["missing-entry"] * len(cases),
                             [set() for _ in cases] if coverage else None)
    flags, faults, covs = [], [], []
    for case in cases:
        ok, fault, cov = _run_case(functions, case, step_budget, coverage)
        flags.append(ok)
        faults.append(fault)
        covs.append(cov)
    fitness = sum(flags) / len(flags) if flags else 0.0
    return FitnessReport(flags, fitness, faults, covs if coverage else None)


def passes_all(program, suite, step_budget: int = DEFAULT_STEP_BUDGET) -> bool:
    """Short-circuit check that every test passes (first failure stops).

    Each case runs on a fresh context with copied arguments, so the verdict
    does not depend on the order of the cases, only the work done does."""
    return _with_stack_room(_passes_all, program, list(suite), step_budget)


def _passes_all(program, cases: list, step_budget: int) -> bool:
    functions = compile_program(program)
    if any(case.entry not in functions for case in cases):
        return False
    for case in cases:
        ok, _, _ = _run_case(functions, case, step_budget, False)
        if not ok:
            return False
    return True
