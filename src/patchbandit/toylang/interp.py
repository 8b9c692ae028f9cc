"""Tree-walking interpreter with a per-test step budget.

Each AST node is compiled once into a closure, which the node keeps
(`syntax.compiled`), and programs are run against test cases.  Values are
ints in the signed 64-bit range (`syntax.INT_MIN` to `INT_MAX`, in place of
a cap on products alone) plus int arrays (lists) bound to parameters, and
never None: so a statement's code returns None, or the value of the
`return` it ran, which its function returns.  Literals and test values are
checked where they are read and results in `_BINARY_FNS`, so every value
stays in range.  Any misuse (undefined variable, array index out of
bounds, division or modulus by zero, non-integer operand, a result outside
the range, unknown callee, wrong arity, call depth past the cap, falling
off a function without returning) raises a runtime fault, which fails the
current test.  Call depth is the toy program's own: a run whose
recursion, or whose compiling, outgrows Python's stack before the cap is
rerun whole, compiling included, with room for the whole cap.

A step is one statement execution; a while loop spends one step per
condition check.  Exhausting the budget is a fault.  The fault rule for
loops is one sentence: at the first condition check at which a loop's
frame, less its accumulators, repeats the frame of an earlier check of
the same run of the loop, the loop faults `cycle` if its accumulators
repeat too and `budget` if they do not.  Accumulators are names whose
every occurrence in the loop (condition and body, nested statements
included) is a self-update `v = v + e`, `v = v - e` or `v = e + v`,
where `e` reads no accumulator (found when the loop is compiled).  Either
way the loop can never end; `budget` says that an int keeps moving, as
the drift verdict's does.  An accumulator that leaves the range before
that check faults `overflow`, because the loop runs literally until then.
A loop whose ints drift in step faults `budget` at its eighth condition
check when one pass over its path shows that it cannot leave before the
budget is gone (`_drift_verdict`).

The hot path rests on five exactness arguments:

* The code a node keeps is the code every program that holds the node
  would compile for it.  A node never changes, and its code is made from
  its own subtree alone: its fields and its children's code.  A call
  looks its callee up by name in the run's context (`_Ctx.functions`)
  when it runs, so no code refers to a program's table of functions.  A
  loop's accumulators come from its names (`syntax.loop_names`), which
  are a union over its subtree; combining the unions of the statements
  directly inside it gives what a walk of the whole subtree gives.
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
  the loop takes the same path forever, covering nothing new, and each
  accumulator changes by the same amount every period.  If every amount
  is zero, the full frame repeats at this check, the first at which it
  can: a repeat of the full frame is a repeat of the reduced snapshot.
  Otherwise the full frame never repeats, and the loop faults `budget`.
* `Num` with an int literal, `Unary`, `Binary` and `len(...)` can only
  produce an int (or fault), so conditions, `&&`/`||` operands, indexes
  and stored values built from them skip the run-time int check.  `Var`,
  `Index` and user `Call` results keep it: a variable or a callee's
  return may be an array, and array elements come from test arguments
  that nothing validates.
* At its eighth condition check a loop compares its frame with the one a
  check before.  If both hold the same names and the ints have moved by a
  vector D, not all zero, one pass replays the iteration's path on forms
  c + k*s, k counting iterations from here, each int starting with slope
  D.  The pass follows assignments, `if`s and blocks over literals,
  variables, negation, `+`, `-`, `*` with a constant side, `/` and `%` of
  constants, comparisons, `&&`, `||`, `len` and reads at a constant index;
  anything else, or any error, refuses.  Suppose it ends at the start
  moved by D, its arrays as they were, and up to eight iterations past
  the last one whose condition check the steps allow no test changes its
  truth and no value leaves the range (a comparison of forms is monotone
  in k, and `==` or `!=` changes at one k at most, so its two ends and its
  root decide every k).  Then each of those iterations takes the frame at
  k to the frame at k + 1 along the same path.  If D moves accumulators
  alone, the reduced snapshot repeats at k = 1, and the loop faults
  `budget` there.  Otherwise the reduced snapshots from here are all
  distinct, nor does the one at a k >= 1 within the budget repeat that
  of an earlier check, j <= 7 checks back: the loop is steered by its
  reduced snapshot alone, so that check's frame would run the path j
  times to the snapshot here, making it the one at k + j, which D rules
  out; so the loop runs the path until the budget is gone.  Either way
  the verdict asks for the steps to run the first iteration whole, so
  the path's statements are all the loop covers from here, and faulting
  `budget` at once with them is the rule's outcome.  This is the loop
  acceleration of Gonnord and Halbwachs (SAS 2006), applied to one
  concrete path.
"""

from __future__ import annotations

import operator
import sys
from typing import NamedTuple

from .syntax import (Assign, Binary, Block, Call, Function, If, Index, Num,
                     Program, Return, Store, Unary, Var, While, BUILTIN_LEN,
                     CMP_OPS, INT_MAX, INT_MIN, compiled, height, loop_names)

MAX_CALL_DEPTH = 100
_DRIFT_CHECK = 8    # the condition check at which a loop tries the verdict


class ToyFault(Exception):
    """Runtime fault; `kind` is a short machine-readable tag."""

    def __init__(self, kind: str, msg: str):
        super().__init__(msg)
        self.kind = kind


class _Ctx:
    """A run's context, reset for each case: the steps left, the ids of
    the statements the case ran (None when coverage is off), the program's
    compiled functions by name, which a call looks its callee up in, and
    the toy call depth.  A fault ends the case, so a call that faults
    leaves the depth as it is until the next case resets it."""
    __slots__ = ("steps", "coverage", "functions", "depth")

    def __init__(self, steps: int, coverage, functions: dict):
        self.steps = steps
        self.coverage = coverage
        self.functions = functions
        self.depth = 0


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


# every binary operator but `&&` and `||`, on ints the caller has checked;
# a comparison gives the int 1 or 0
_BINARY_FNS = {"+": _checked(operator.add), "-": _checked(operator.sub),
               "*": _checked(operator.mul), "/": _checked(_div),
               "%": _checked(_mod),
               "<": lambda a, b: 1 if a < b else 0,
               "<=": lambda a, b: 1 if a <= b else 0,
               ">": lambda a, b: 1 if a > b else 0,
               ">=": lambda a, b: 1 if a >= b else 0,
               "==": lambda a, b: 1 if a == b else 0,
               "!=": lambda a, b: 1 if a != b else 0}


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


# ------------------------------------------------------- drift verdict


class _Refusal(Exception):
    """A shape the affine pass does not follow."""


def _drift_verdict(cond, body, env: dict, before: tuple, steps: int):
    """The ids of the statements that one iteration of the loop (nodes
    `cond` and `body`) runs from here if, by the module docstring's last
    exactness argument, the loop runs them until its budget is gone; else
    None.
    `before` is the frame at the check before (`_state_key`), and `steps`
    the steps left after this check."""
    if len(before) != len(env):
        return None
    forms, after, moved = {}, {}, False     # the frame at k = 0 and k = 1
    for (name, v), w in zip(env.items(), before):
        if type(v) is int and type(w) is int:
            forms[name], after[name] = (v, v - w), (v + v - w, v - w)
            moved = moved or v != w
        elif type(v) is list:
            forms[name] = after[name] = v
        else:
            return None
    if not moved:
        return None
    checks, path = [], []
    try:
        if not _affine_test(cond, forms, checks):
            return None
        _affine_body(body, forms, checks, path)
    except Exception:       # a refused shape, a fault or Python's own error
        return None
    if steps < len(path) or forms != after:
        return None
    # _DRIFT_CHECK iterations past the last k whose condition runs, more
    # than the checks before this one, so none of their frames comes back
    horizon = steps // (len(path) + 1) + _DRIFT_CHECK
    for op, c, s in checks:
        end = c + horizon * s
        if op is None:
            if not (INT_MIN <= c <= INT_MAX and INT_MIN <= end <= INT_MAX):
                return None
        elif s and (c % s == 0 and 0 <= -c // s <= horizon
                    if op == "==" or op == "!=" else
                    _BINARY_FNS[op](c, 0) != _BINARY_FNS[op](end, 0)):
            return None
    return path


def _affine_body(stmts: tuple, forms: dict, checks: list, path: list):
    """Run stmts on forms, adding the id of each statement run to path."""
    for stmt in stmts:
        path.append(stmt.sid)
        t = type(stmt)
        if t is Assign:
            forms[stmt.name] = _affine(stmt.expr, forms, checks)
        elif t is If:
            _affine_body(stmt.then if _affine_test(stmt.cond, forms, checks)
                         else stmt.orelse, forms, checks, path)
        elif t is Block:
            _affine_body(stmt.body, forms, checks, path)
        else:
            raise _Refusal


def _affine(expr, forms: dict, checks: list):
    """expr's value k iterations from now: a pair (c, s) for the int
    c + k*s, or an array.  Each test on the way is added to checks as
    (op, c, s), c + k*s compared with 0, whose truth must not change, and
    each int computed as (None, c, s), which must stay in range."""
    t = type(expr)
    if t is Num and type(expr.value) is int:
        return expr.value, 0
    if t is Var:
        return forms[expr.name]
    if t is Index:
        arr = forms[expr.name]
        i, s = _affine_int(expr.index, forms, checks)
        if type(arr) is list and not s and 0 <= i < len(arr) \
                and type(arr[i]) is int:
            return arr[i], 0
    elif t is Call:
        if expr.name == BUILTIN_LEN and len(expr.args) == 1:
            arr = _affine(expr.args[0], forms, checks)
            if type(arr) is list:
                return len(arr), 0
    elif t is Unary:
        c, s = _affine_int(expr.operand, forms, checks)
        checks.append((None, -c, -s))
        return -c, -s
    elif t is Binary:
        op = expr.op
        if op == "&&" or op == "||":
            value = _affine_test(expr.left, forms, checks)
            if value == (op == "||"):
                return value, 0
            return _affine_test(expr.right, forms, checks), 0
        a, p = _affine_int(expr.left, forms, checks)
        b, q = _affine_int(expr.right, forms, checks)
        if op in CMP_OPS:
            checks.append((op, a - b, p - q))
            return _BINARY_FNS[op](a, b), 0
        if not (p or q):        # a constant, `/` and `%` included
            return _BINARY_FNS[op](a, b), 0
        if op == "+" or op == "-" or (op == "*" and not (p and q)):
            c, s = _BINARY_FNS[op](a, b), (p + q if op == "+" else
                                           p - q if op == "-" else
                                           p * b + a * q)
            checks.append((None, c, s))
            return c, s
    raise _Refusal


def _affine_int(expr, forms: dict, checks: list) -> tuple:
    value = _affine(expr, forms, checks)
    if type(value) is not tuple:
        raise _Refusal
    return value


def _affine_test(expr, forms: dict, checks: list) -> int:
    """expr's truth now, 1 or 0, which must not change."""
    c, s = _affine_int(expr, forms, checks)
    checks.append(("!=", c, s))
    return 1 if c else 0


class _CompiledFn:
    """A function's code.  It keeps the function's name and not its node,
    so that the code a node keeps refers to nothing that refers back."""
    __slots__ = ("name", "params", "body")

    def __init__(self, fn: Function):
        self.name = fn.name
        self.params = fn.params
        self.body = _compile_body(fn.body)

    def invoke(self, args: list, ctx: _Ctx):
        if len(args) != len(self.params):
            raise ToyFault("arity",
                           f"{self.name} expects {len(self.params)} "
                           f"arguments, got {len(args)}")
        depth = ctx.depth + 1
        if depth > MAX_CALL_DEPTH:
            raise ToyFault("depth", "call depth limit exceeded")
        ctx.depth = depth
        env = dict(zip(self.params, args))
        for stmt in self.body:
            value = stmt(env, ctx)
            if value is not None:
                ctx.depth = depth - 1
                return value
        raise ToyFault("missing-return", f"{self.name} fell off the end")


# ------------------------------------------------------ expression compile


def _yields_int(expr) -> bool:
    """True when expr can only evaluate to an int (or fault)."""
    t = type(expr)
    if t is Num:
        return type(expr.value) is int
    return t is Unary or t is Binary or (t is Call and expr.name == BUILTIN_LEN)


def _compile_int(expr, what: str):
    """Compile expr into a closure that returns an int or faults `type`."""
    fn = _compile_expr(expr)
    if _yields_int(expr):
        return fn
    message = f"{what} must be an integer"
    def checked(env, ctx):
        v = fn(env, ctx)
        if type(v) is not int:
            raise ToyFault("type", message)
        return v
    return checked


def _compile_expr(expr):
    """expr's code; a leaf's is made anew, any other node's is kept on it."""
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
        return compiled(expr, _compile_index)
    if t is Unary:
        return compiled(expr, _compile_unary)
    if t is Binary:
        return compiled(expr, _compile_binary)
    if t is Call:
        return compiled(expr, _compile_call)
    raise TypeError(f"not an expression node: {expr!r}")


def _compile_index(expr: Index):
    name = expr.name
    if type(expr.index) is Var:
        return _compile_index_by_var(name, expr.index.name)
    idx = _compile_int(expr.index, "array index")
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


def _compile_unary(expr: Unary):
    operand = _compile_int(expr.operand, "operand of -")
    sub = _BINARY_FNS["-"]
    return lambda env, ctx: sub(0, operand(env, ctx))


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
    """An operator of `_BINARY_FNS` on a variable and a variable or an int
    literal, read straight from env; None for other operand shapes.

    Faults keep the general path's order: the left variable undefined,
    then the right one undefined, then a non-int operand.
    """
    left, right = expr.left, expr.right
    if type(left) is not Var:
        return None
    fn = _BINARY_FNS[expr.op]
    a_name = left.name
    message = f"operands of {expr.op} must be integers"
    if type(right) is Num and type(right.value) is int:
        b = right.value
        def var_num(env, ctx):
            try:
                a = env[a_name]
            except KeyError:
                raise _undefined(a_name)
            if type(a) is not int:
                raise ToyFault("type", message)
            return fn(a, b)
        return var_num
    if type(right) is Var:
        b_name = right.name
        def var_var(env, ctx):
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
        return var_var
    return None


def _compile_binary(expr: Binary):
    op = expr.op
    if op == "&&" or op == "||":
        left = _compile_int(expr.left, f"operand of {op}")
        right = _compile_int(expr.right, f"operand of {op}")
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
    left = _compile_expr(expr.left)
    right = _compile_expr(expr.right)
    fn = _BINARY_FNS[op]
    message = f"operands of {op} must be integers"
    def binary(env, ctx):
        a = left(env, ctx)
        b = right(env, ctx)
        if type(a) is not int or type(b) is not int:
            raise ToyFault("type", message)
        return fn(a, b)
    return binary


def _compile_call(expr: Call):
    name = expr.name
    arg_fns = tuple(_compile_expr(a) for a in expr.args)
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
        cfn = ctx.functions.get(name)
        if cfn is None:
            raise ToyFault("unknown-function", f"no function {name!r}")
        return cfn.invoke([fn(env, ctx) for fn in arg_fns], ctx)
    return call


# ------------------------------------------------------- statement compile


def _compile_body(stmts: tuple) -> tuple:
    """The code of each statement, kept on the statement."""
    return tuple([compiled(s, _compile_stmt) for s in stmts])


def _compile_stmt(stmt):
    t = type(stmt)
    sid = stmt.sid
    if t is Assign:
        name = stmt.name
        value = _compile_expr(stmt.expr)
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
        idx = _compile_int(stmt.index, "array index")
        value = _compile_int(stmt.expr, "stored value")
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
        value = _compile_expr(stmt.expr)
        def ret(env, ctx):
            steps = ctx.steps - 1
            ctx.steps = steps
            if steps < 0:
                raise ToyFault("budget", "step budget exhausted")
            if ctx.coverage is not None:
                ctx.coverage.add(sid)
            return value(env, ctx)
        return ret
    if t is If:
        cond = _compile_int(stmt.cond, "condition")
        then = _compile_body(stmt.then)
        orelse = _compile_body(stmt.orelse)
        def if_(env, ctx):
            steps = ctx.steps - 1
            ctx.steps = steps
            if steps < 0:
                raise ToyFault("budget", "step budget exhausted")
            if ctx.coverage is not None:
                ctx.coverage.add(sid)
            for s in then if cond(env, ctx) else orelse:
                value = s(env, ctx)
                if value is not None:
                    return value
        return if_
    if t is While:
        cond_node, body_nodes = stmt.cond, stmt.body
        cond = _compile_int(cond_node, "condition")
        body = _compile_body(body_nodes)
        accumulators = loop_names(stmt)[0]
        def while_(env, ctx):
            seen = {}   # reduced snapshot -> accumulator totals
            while True:
                steps = ctx.steps - 1
                ctx.steps = steps
                if steps < 0:
                    raise ToyFault("budget", "step budget exhausted")
                if ctx.coverage is not None:
                    ctx.coverage.add(sid)
                if not cond(env, ctx):
                    return
                if accumulators:
                    key, totals = _split_state(env, accumulators)
                else:
                    key, totals = _state_key(env), None
                size = len(seen)
                first = seen.setdefault(key, totals)
                if len(seen) == size:
                    if first == totals:
                        raise ToyFault("cycle", "loop state repeats; "
                                       "the loop cannot terminate")
                    raise ToyFault("budget", "step budget exhausted")
                elif size == _DRIFT_CHECK - 2:      # the check before
                    before = _state_key(env)
                elif size == _DRIFT_CHECK - 1:
                    path = _drift_verdict(cond_node, body_nodes, env, before,
                                          ctx.steps)
                    if path is not None:
                        if ctx.coverage is not None:
                            ctx.coverage.update(path)
                        raise ToyFault("budget", "step budget exhausted")
                for s in body:
                    value = s(env, ctx)
                    if value is not None:
                        return value
        return while_
    if t is Block:
        body = _compile_body(stmt.body)
        def block(env, ctx):
            steps = ctx.steps - 1
            ctx.steps = steps
            if steps < 0:
                raise ToyFault("budget", "step budget exhausted")
            if ctx.coverage is not None:
                ctx.coverage.add(sid)
            for s in body:
                value = s(env, ctx)
                if value is not None:
                    return value
        return block
    raise TypeError(f"not a statement node: {stmt!r}")


# --------------------------------------------------------------- running


def compile_program(program: Program) -> dict:
    """The program's functions, compiled, by name.  Each node keeps its
    code (`syntax.compiled`), so this compiles only the nodes that no
    program compiled before: for a variant, those its edits rebuilt."""
    return {fn.name: compiled(fn, _CompiledFn) for fn in program.functions}


class FitnessReport(NamedTuple):
    flags: list          # pass/fail per test, in suite order
    fitness: float       # passed / total, exactly
    faults: list         # fault kind per failed test, None when passed
    coverage: list | None  # per-test executed statement ids, if asked for


def _stack_room(program: Program) -> int:
    """Python frames enough for MAX_CALL_DEPTH nested toy calls and the one
    that faults: per call, its `invoke` and at most three frames per level
    (a statement's or an expression's closure, plus an int check or a
    call's argument list), with headroom for raising a fault.  Compiling
    takes fewer: at most four frames per level, once.  Measuring the
    height takes at most one frame per level, and none below a statement
    measured before (the parser measures every statement it reads)."""
    levels = height([s for fn in program.functions for s in fn.body])
    return (MAX_CALL_DEPTH + 1) * (3 * levels + 2) + 100


def _run_case(ctx: _Ctx, case, step_budget: int, want_cov: bool):
    """Run one case on the run's context, reset for it; the caller has
    checked that the entry function exists."""
    ctx.steps = step_budget
    ctx.depth = 0
    ctx.coverage = set() if want_cov else None
    args = [list(a) if type(a) in (list, tuple) else a for a in case.args]
    try:
        result = ctx.functions[case.entry].invoke(args, ctx)
        return result == case.expected, None, ctx.coverage
    except ToyFault as fault:
        return False, fault.kind, ctx.coverage


def run_tests(program, suite, step_budget: int,
              coverage: bool = False) -> FitnessReport:
    """Run the whole suite; fitness is the exact fraction of passing tests.

    A missing entry function zeroes the variant: every test is marked
    failed and fitness is 0.0.
    """
    flags, faults, covs = _run(program, suite, step_budget, coverage, False)
    fitness = sum(flags) / len(flags) if flags else 0.0
    return FitnessReport(flags, fitness, faults, covs)


def passes_all(program, suite, step_budget: int) -> bool:
    """Whether every test passes: the run of `run_tests`, stopped at the
    first failure.

    Each case runs on the run's context, reset for it, with copied
    arguments, so the verdict does not depend on the order of the cases,
    only the work done does."""
    flags, _, _ = _run(program, suite, step_budget, False, True)
    return all(flags)


def _run(program, suite, step_budget: int, coverage: bool,
         stop_at_failure: bool) -> tuple:
    """Compile the program, check its entry functions and run the cases in
    order: the pass flags, fault kinds and (with `coverage`, else None)
    executed statement ids of the cases run.  With `stop_at_failure` the
    lists end at the first failing case.

    If Python's stack runs out first (deep toy recursion, or compiling a
    deeply nested program, on top of whatever the caller's stack already
    holds), the whole run is rerun once with room for the whole toy depth,
    so that the toy semantics decide the outcome.  Each case runs on a
    context reset for it, with copied arguments, so the rerun is exact."""
    if step_budget <= 0:
        raise ValueError("step_budget must be positive")
    cases = list(suite)
    limit = sys.getrecursionlimit()
    try:
        for rerun in (False, True):
            try:
                functions = compile_program(program)
                if any(case.entry not in functions for case in cases):
                    return ([False] * len(cases),
                            ["missing-entry"] * len(cases),
                            [set() for _ in cases] if coverage else None)
                flags, faults, covs = [], [], []
                ctx = _Ctx(step_budget, None, functions)
                for case in cases:
                    ok, fault, cov = _run_case(ctx, case, step_budget,
                                               coverage)
                    flags.append(ok)
                    faults.append(fault)
                    covs.append(cov)
                    if stop_at_failure and not ok:
                        break
                return flags, faults, covs if coverage else None
            except RecursionError:
                if rerun:
                    raise
                sys.setrecursionlimit(limit + _stack_room(program))
    finally:
        sys.setrecursionlimit(limit)
