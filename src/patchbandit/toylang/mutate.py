"""Edit minting and application for the eighteen mutation operators.

Three coarse statement-level moves (append, delete, replace with a donor
statement from the same function) sit alongside fifteen finer templates
organized in four families: function/expression rewrites, bounds and
emptiness checks, initialization and condition fixes, and a multi-line
reorder.

An Edit freezes everything needed to replay a mutation: operator name,
target statement id, an optional expression path, and a payload.
Statement donors travel by id and are looked up in whatever program
the edit is applied to; expression donors travel as printed text and are
parsed once per text, into a node that every edit carrying the text
shares (expression nodes never change). Application is total: an edit
whose target, donor, or path no longer resolves, whose payload does not
have the shape its operator mints or names a side, step or return value
it never mints, or whose result would nest deeper than the parser
accepts (syntax.MAX_NESTING, measured with syntax.height) leaves the
program unchanged and reports a no-op, so edit lists can be replayed in
any lineage.

Each operator is one record in `_OPERATORS`: where it can act (a site
builder that yields its options on a target), how it rewrites the owner
function's body, and its payload's item types.  A mint asks each
weighted statement's builder for its first option, then lists the
options of the one target it draws.  The builders read a function's
statements, its condition texts and the ids of its statements that have
a next sibling from the `Function` node, which works each out once in
its life (`statements`, `conditions`, `followed`), not once per target.

An edit is applied in one walk: `_spliced` descends a function body to
the first statement with the edit's target, pre-order, hands the list
that holds it, its index and its nesting depth to the operator's splice,
and rebuilds the statements around that list on the way back.  Two
adapters build most of the rewrites: `_at_path` descends the edit's
expression path in one `_grafted` walk the same way, hands the
expression it reaches to a small expression rewrite and rebuilds the
expressions above it on return (the seven expression operators), and
`_guarded` wraps the target in an `if` on a condition built from the
payload (the three guard operators).  The code here knows no node
type's children: it finds and rebuilds statements and expressions
through syntax.EXPR_FIELDS and syntax.BODY_FIELDS, and rebuilds a node
through its positional constructor with one field replaced.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

from .syntax import (BODY_FIELDS, CMP_OPS, EXPR_FIELDS, INT_MAX, MAX_NESTING,
                     Assign, Binary, Call, Function, If, Index, Num,
                     ParseError, Program, Return, Store, Unary, Var, While,
                     height, parse_expression, print_expr, program_statements,
                     walk)

COARSE_OPERATORS = ("stmt_append", "stmt_delete", "stmt_replace")

OPERATOR_GROUPS = {
    "coarse": COARSE_OPERATORS,
    "func_expr": ("func_call_swap", "expr_replace", "expr_add", "expr_remove"),
    "checks": ("guard_insert", "range_check_insert", "size_check_insert",
               "lower_bound_clamp", "upper_bound_clamp", "off_by_one"),
    "init_cast": ("var_init_insert", "const_perturb", "negate_condition",
                  "default_return_insert"),
    "multi_line": ("stmt_swap",),
}

ALL_OPERATORS = tuple(op for ops in OPERATOR_GROUPS.values() for op in ops)

_NEGATED = {"<": ">=", ">=": "<", "<=": ">", ">": "<=", "==": "!=", "!=": "=="}


class InapplicableOperator(Exception):
    """The operator has no valid site in the weighted program region."""

    def __init__(self, operator: str):
        super().__init__(f"no valid site for operator {operator!r}")


class Edit(NamedTuple):
    op: str
    target: int
    path: tuple
    payload: tuple


# --------------------------------------------------- expression addressing
#
# An expression path leads from a statement down to one expression: field
# names from syntax.EXPR_FIELDS, and an int for a call argument's position
# (negative counts from the end, as in a tuple).


def _with(node, name, value):
    """node rebuilt through its positional constructor with one field
    replaced."""
    return type(node)(*[value if field == name else getattr(node, field)
                        for field in node._fields])


def iter_own_expressions(node, path=()):
    """Yield (path, expression) for every expression node holds, directly
    or nested, pre-order; paths start from node, usually a statement."""
    if type(node) is Call:
        steps = enumerate(node.args)
    else:
        steps = [(name, getattr(node, name))
                 for name in EXPR_FIELDS[type(node)]]
    for step, child in steps:
        yield path + (step,), child
        yield from iter_own_expressions(child, path + (step,))


def _grafted(node, path, graft):
    """node with graft(expression) in place of the expression at path
    below it, and each expression along the path rebuilt on the way back;
    None if the path leads nowhere or graft returns None."""
    if not path:
        return graft(node)
    step = path[0]
    if isinstance(step, int):
        if type(node) is not Call \
                or not -len(node.args) <= step < len(node.args):
            return None
        args = list(node.args)
        args[step] = _grafted(args[step], path[1:], graft)
        return None if args[step] is None \
            else _with(node, "args", tuple(args))
    if step not in EXPR_FIELDS[type(node)]:
        return None
    sub = _grafted(getattr(node, step), path[1:], graft)
    return None if sub is None else _with(node, step, sub)


# ------------------------------------------------------ subtree collection


def _dedup(seq):
    """The items of seq, each at its first place, yielded as they come."""
    seen = set()
    for item in seq:
        if item not in seen:
            seen.add(item)
            yield item


# Store and Index both access an array: `name[index]`
_ARRAY_ACCESS = (Store, Index)


def _subtree_index_vars(stmt):
    """(variable name, array name) where a plain variable indexes an array."""
    return _dedup((node.index.name, node.name) for node in walk(stmt)
                  if type(node) in _ARRAY_ACCESS
                  and type(node.index) is Var)


# ------------------------------------------------------------ site minting
#
# Each builder yields the (path, payload) options the operator admits on
# one target statement, in deterministic program order: a tuple where the
# set is fixed, otherwise lazily, so that asking for the first option
# tests the target for a site (`stmt_append`'s is a `map`, which a mint
# drops after one option without closing a suspended generator).  No
# option means the operator cannot act there.


def _donor_option(donor):
    return (), (donor.sid,)


def _sites_stmt_append(program, fn, stmt):
    return map(_donor_option, fn.statements())


def _sites_stmt_delete(program, fn, stmt):
    return (((), ()),)


def _sites_stmt_replace(program, fn, stmt):
    return (((), (donor.sid,)) for donor in fn.statements()
            if donor.sid != stmt.sid)


def _sites_func_call_swap(program, fn, stmt):
    for path, node in iter_own_expressions(stmt):
        if isinstance(node, Call) \
                and program.function(node.name) is not None:
            for f in program.functions:
                if f.name != node.name and len(f.params) == len(node.args):
                    yield path, (f.name,)


def _sites_expr_replace(program, fn, stmt):
    if not isinstance(stmt, (If, While)):
        return ()
    own = print_expr(stmt.cond)
    return ((("cond",), (text,)) for text in fn.conditions() if text != own)


def _sites_expr_add(program, fn, stmt):
    # each condition that could replace the target's, joined to it instead
    return ((path, (text, op, side))
            for path, (text,) in _sites_expr_replace(program, fn, stmt)
            for op in ("&&", "||")
            for side in ("left", "right"))


def _sites_expr_remove(program, fn, stmt):
    if isinstance(stmt, (If, While)) and isinstance(stmt.cond, Binary) \
            and stmt.cond.op in ("&&", "||"):
        return (("cond",), ("left",)), (("cond",), ("right",))
    return ()


def _sites_var_names(program, fn, stmt):
    names = (node.name for node in walk(stmt) if type(node) in (Assign, Var))
    return (((), (name,)) for name in _dedup(names))


def _sites_range_check_insert(program, fn, stmt):
    # (index expression text, array name) for every array access
    pairs = ((print_expr(node.index), node.name) for node in walk(stmt)
             if type(node) in _ARRAY_ACCESS)
    return (((), pair) for pair in _dedup(pairs))


def _sized_arrays(stmt):
    """Names of the arrays stmt indexes or passes to len, as it walks."""
    for node in walk(stmt):
        if type(node) in _ARRAY_ACCESS:
            yield node.name
        elif type(node) is Call and node.name == "len":
            yield from (arg.name for arg in node.args if type(arg) is Var)


def _sites_size_check_insert(program, fn, stmt):
    return (((), (name,)) for name in _dedup(_sized_arrays(stmt)))


def _sites_lower_bound_clamp(program, fn, stmt):
    return (((), (var,)) for var, _ in _subtree_index_vars(stmt))


def _sites_upper_bound_clamp(program, fn, stmt):
    return (((), pair) for pair in _subtree_index_vars(stmt))


def _sites_off_by_one(program, fn, stmt):
    paths = [path + ("index",) for path, node in iter_own_expressions(stmt)
             if isinstance(node, Index)]
    if isinstance(stmt, Store):
        paths.append(("index",))
    if isinstance(stmt, While) and isinstance(stmt.cond, Binary) \
            and stmt.cond.op in CMP_OPS:
        paths.extend((("cond", "left"), ("cond", "right")))
    return ((path, (delta,)) for path in paths for delta in (1, -1))


def _sites_const_perturb(program, fn, stmt):
    return ((path, (delta,)) for path, node in iter_own_expressions(stmt)
            if isinstance(node, Num) for delta in (1, -1))


def _sites_negate_condition(program, fn, stmt):
    if isinstance(stmt, (If, While)):
        return ((("cond",), ()),)
    return ()


def _sites_default_return_insert(program, fn, stmt):
    return ((), (0,)), ((), (1,))


def _sites_stmt_swap(program, fn, stmt):
    return (((), ()),) if stmt.sid in fn.followed() else ()


def mint_edit(operator, program, weights, rng) -> Edit:
    """Draw an Edit: target weight-proportional, site uniform within it.
    Each weighted statement's builder is asked for its first option, and
    only the drawn target's options are listed."""
    sites = _OPERATORS[operator].sites
    candidates, target_weights = [], []
    for fn in program.functions:
        for stmt in fn.statements():
            weight = weights.get(stmt.sid, 0.0)
            if weight <= 0.0:
                continue
            for _ in sites(program, fn, stmt):
                candidates.append((fn, stmt))
                target_weights.append(weight)
                break
    if not candidates:
        raise InapplicableOperator(operator)
    # the first target whose running weight sum exceeds the scaled draw;
    # the last if none does
    sums = list(accumulate(target_weights))
    pick = bisect_right(sums, rng.random() * sums[-1])
    fn, stmt = candidates[min(pick, len(candidates) - 1)]
    options = list(sites(program, fn, stmt))
    path, payload = options[rng.randrange(len(options))]
    return Edit(operator, stmt.sid, path, payload)


def enumerate_edits(program, weights):
    """Every mintable edit over weighted targets, in deterministic order."""
    statements = [(fn, stmt) for fn, stmt in program_statements(program)
                  if weights.get(stmt.sid, 0.0) > 0.0]
    for operator in ALL_OPERATORS:
        for fn, stmt in statements:
            for path, payload in _OPERATORS[operator].sites(program, fn, stmt):
                yield Edit(operator, stmt.sid, path, payload)


# ------------------------------------------------------------- application


def _renumber(stmt, ctr):
    """Copy a statement subtree with fresh ids, allocated pre-order."""
    node = _with(stmt, "sid", _fresh(ctr))
    for name in BODY_FIELDS[type(stmt)]:
        node = _with(node, name,
                     tuple(_renumber(s, ctr) for s in getattr(stmt, name)))
    return node


class _Vetoed(Exception):
    """An operator declines the edit at its target: the program stays as
    it is."""


def _spliced(body, sid, splice, depth=0):
    """body with splice(holder, index, depth) in place of the statement
    list that holds the first statement with the id, pre-order, and each
    statement around that list rebuilt on the way back; None if no
    statement in body has the id.  depth counts the statements the holder
    lies inside."""
    for i, stmt in enumerate(body):
        if stmt.sid == sid:
            return splice(body, i, depth)
        for field in BODY_FIELDS[type(stmt)]:
            sub = _spliced(getattr(stmt, field), sid, splice, depth + 1)
            if sub is not None:
                return body[:i] + (_with(stmt, field, sub),) + body[i + 1:]
    return None


def _statement(program, sid):
    """First statement with the id in program order; None if absent."""
    return next((stmt for _, stmt in program_statements(program)
                 if stmt.sid == sid), None)


# a search carries few distinct payload texts, each in many edits
@lru_cache(maxsize=1024)
def _parse_payload_expr(text):
    """The expression text parses to, one node shared by every caller, as
    expression nodes never change; None if it does not parse."""
    try:
        return parse_expression(text)
    except ParseError:
        return None


def _len_of(array_name):
    return Call("len", (Var(array_name),))


def _fresh(ctr):
    """The next free statement id, taken from the counter."""
    sid = ctr[0]
    ctr[0] += 1
    return sid


# Statement transforms return a tuple of statements to put in the target's
# place, or None to veto the whole edit.


def _tf_stmt_append(program, stmt, edit, ctr):
    donor = _statement(program, edit.payload[0])
    if donor is None:
        return None
    return (stmt, _renumber(donor, ctr))


def _tf_stmt_delete(program, stmt, edit, ctr):
    return ()


def _tf_stmt_replace(program, stmt, edit, ctr):
    donor = _statement(program, edit.payload[0])
    if donor is None:
        return None
    return (_renumber(donor, ctr),)


def _tf_var_init_insert(program, stmt, edit, ctr):
    return (Assign(_fresh(ctr), edit.payload[0], Num(0)), stmt)


def _clamp(var, op, bound, ctr):
    """`if (var op bound) { var = bound; }`, the If's id taken first."""
    sid = _fresh(ctr)
    return If(sid, Binary(op, Var(var), bound),
              (Assign(_fresh(ctr), var, bound),), ())


def _tf_lower_bound_clamp(program, stmt, edit, ctr):
    return (_clamp(edit.payload[0], "<", Num(0), ctr), stmt)


def _tf_upper_bound_clamp(program, stmt, edit, ctr):
    var, array_name = edit.payload
    bound = Binary("-", _len_of(array_name), Num(1))
    return (_clamp(var, ">", bound, ctr), stmt)


def _at_path(rewrite):
    """Statement transform that grafts rewrite(program, node, payload) in
    place of the expression node at the edit's path.  A path that leads
    nowhere, or None from rewrite, vetoes the edit."""
    def transform(program, stmt, edit, ctr):
        if not edit.path:   # the statement itself is no expression
            return None
        node = _grafted(stmt, edit.path,
                        lambda node: rewrite(program, node, edit.payload))
        return None if node is None else (node,)
    return transform


# Expression rewrites, for _at_path: (program, node at the path, payload) ->
# the node to graft there, or None to veto the edit.


def _swap_callee(program, node, payload):
    callee = program.function(payload[0])
    if not isinstance(node, Call) or callee is None \
            or len(callee.params) != len(node.args):
        return None
    return Call(payload[0], node.args)


def _replace_expr(program, node, payload):
    return _parse_payload_expr(payload[0])


def _add_operand(program, node, payload):
    text, op, side = payload
    donor = _parse_payload_expr(text)
    if donor is None or op not in ("&&", "||") \
            or side not in ("left", "right"):
        return None
    return Binary(op, donor, node) if side == "left" \
        else Binary(op, node, donor)


def _remove_operand(program, node, payload):
    if not isinstance(node, Binary) or node.op not in ("&&", "||"):
        return None
    return {"left": node.left, "right": node.right}.get(payload[0])


def _off_by_one(program, node, payload):
    op = {1: "+", -1: "-"}.get(payload[0])
    return None if op is None else Binary(op, node, Num(1))


def _perturb_const(program, node, payload):
    if not isinstance(node, Num):
        return None
    value = node.value + payload[0]
    if abs(value) > INT_MAX:    # its literal would not parse back
        return None
    # negative literals print as unary minus, so store them that way
    return Unary(Num(-value)) if value < 0 else Num(value)


def _negate(program, node, payload):
    if isinstance(node, Binary) and node.op in _NEGATED:
        return Binary(_NEGATED[node.op], node.left, node.right)
    return Binary("==", node, Num(0))


def _guarded(condition):
    """Statement transform that wraps the target in an `if` on
    condition(payload); None from condition vetoes the edit."""
    def transform(program, stmt, edit, ctr):
        cond = condition(edit.payload)
        if cond is None:
            return None
        return (If(_fresh(ctr), cond, (stmt,), ()),)
    return transform


# Guard conditions, for _guarded: payload -> the condition, or None to veto.


def _nonzero(payload):
    return Binary("!=", Var(payload[0]), Num(0))


def _in_range(payload):
    index_text, array_name = payload
    idx = _parse_payload_expr(index_text)
    if idx is None:
        return None
    return Binary("&&", Binary(">=", idx, Num(0)),
                  Binary("<", idx, _len_of(array_name)))


def _nonempty(payload):
    return Binary(">", _len_of(payload[0]), Num(0))


def payload_fits(edit: Edit) -> bool:
    """Whether the payload has the item types the edit's operator mints."""
    operator = _OPERATORS.get(edit.op)
    return operator is not None \
        and tuple(map(type, edit.payload)) == operator.payload


def _in_place(transform):
    """Body edit that puts transform's statements in the target's place,
    unless they would nest deeper there than the parser accepts."""
    def body_edit(program, fn, edit, ctr):
        def splice(holder, i, depth):
            replacement = transform(program, holder[i], edit, ctr)
            # the holder lies inside depth statements, so its own sit one
            # level below that, as the parser counts the function's block
            # as its first level
            if replacement is None \
                    or depth + height(replacement) > MAX_NESTING:
                raise _Vetoed
            return holder[:i] + replacement + holder[i + 1:]
        return _spliced(fn.body, edit.target, splice)
    return body_edit


def _swap_with_next(holder, i, depth):
    if i + 1 >= len(holder):
        raise _Vetoed
    return holder[:i] + (holder[i + 1], holder[i]) + holder[i + 2:]


def _edit_stmt_swap(program, fn, edit, ctr):
    return _spliced(fn.body, edit.target, _swap_with_next)


def _edit_default_return_insert(program, fn, edit, ctr):
    # the target only names the function; the return goes at its end
    if not any(stmt.sid == edit.target for stmt in fn.statements()):
        return None
    if edit.payload[0] not in (0, 1):
        raise _Vetoed
    return fn.body + (Return(_fresh(ctr), Num(edit.payload[0])),)


class _Operator(NamedTuple):
    # (program, owner function, target) -> an iterable of the (path,
    # payload) options; a mint asks it for the first to test the target
    sites: Callable
    # (program, function, edit, id counter) -> the function's new body,
    # or None if no statement of the function has the edit's target;
    # raises _Vetoed to veto the edit
    body_edit: Callable
    # the payload's item types: statement ids, deltas and literals are
    # ints, names and printed expressions are strings.  A float or bool
    # literal, for one, would print but not parse back.
    payload: tuple


_OPERATORS = {
    "stmt_append": _Operator(_sites_stmt_append,
                             _in_place(_tf_stmt_append), (int,)),
    "stmt_delete": _Operator(_sites_stmt_delete,
                             _in_place(_tf_stmt_delete), ()),
    "stmt_replace": _Operator(_sites_stmt_replace,
                              _in_place(_tf_stmt_replace), (int,)),
    "func_call_swap": _Operator(_sites_func_call_swap,
                                _in_place(_at_path(_swap_callee)), (str,)),
    "expr_replace": _Operator(_sites_expr_replace,
                              _in_place(_at_path(_replace_expr)), (str,)),
    "expr_add": _Operator(_sites_expr_add,
                          _in_place(_at_path(_add_operand)), (str, str, str)),
    "expr_remove": _Operator(_sites_expr_remove,
                             _in_place(_at_path(_remove_operand)), (str,)),
    "guard_insert": _Operator(_sites_var_names,
                              _in_place(_guarded(_nonzero)), (str,)),
    "range_check_insert": _Operator(_sites_range_check_insert,
                                    _in_place(_guarded(_in_range)),
                                    (str, str)),
    "size_check_insert": _Operator(_sites_size_check_insert,
                                   _in_place(_guarded(_nonempty)), (str,)),
    "lower_bound_clamp": _Operator(_sites_lower_bound_clamp,
                                   _in_place(_tf_lower_bound_clamp), (str,)),
    "upper_bound_clamp": _Operator(_sites_upper_bound_clamp,
                                   _in_place(_tf_upper_bound_clamp),
                                   (str, str)),
    "off_by_one": _Operator(_sites_off_by_one,
                            _in_place(_at_path(_off_by_one)), (int,)),
    "var_init_insert": _Operator(_sites_var_names,
                                 _in_place(_tf_var_init_insert), (str,)),
    "const_perturb": _Operator(_sites_const_perturb,
                               _in_place(_at_path(_perturb_const)), (int,)),
    "negate_condition": _Operator(_sites_negate_condition,
                                  _in_place(_at_path(_negate)), ()),
    "default_return_insert": _Operator(_sites_default_return_insert,
                                       _edit_default_return_insert, (int,)),
    "stmt_swap": _Operator(_sites_stmt_swap, _edit_stmt_swap, ()),
}


def _function_with_body(program, fn, new_body, next_sid):
    functions = tuple(Function(f.name, f.params, new_body)
                      if f.name == fn.name else f
                      for f in program.functions)
    return Program(functions, next_sid)


def apply_edit(program: Program, edit: Edit):
    """Apply one edit; returns (program, applied). Never raises."""
    if not payload_fits(edit):
        return program, False
    body_edit = _OPERATORS[edit.op].body_edit
    ctr = [program.next_sid]
    try:
        # the first function that holds the target takes the edit
        for fn in program.functions:
            new_body = body_edit(program, fn, edit, ctr)
            if new_body is not None:
                return _function_with_body(program, fn, new_body,
                                           ctr[0]), True
    except (_Vetoed, RecursionError):
        # a RecursionError: only a tree hundreds of levels tall, far past
        # MAX_NESTING, outgrows the stack while it is rebuilt or measured
        pass
    return program, False


def apply_edits(program: Program, edits):
    """Apply an edit list left to right; returns (program, applied flags)."""
    flags = []
    for edit in edits:
        program, applied = apply_edit(program, edit)
        flags.append(applied)
    return program, tuple(flags)
