"""The one integer range: every toy int lies in [-2^63, 2^63).

Arithmetic is checked on each compiled path (a variable with a variable,
a variable with a literal, and the general path), and values that enter
from outside the program are checked where they are read: literals by
the lexer, test arguments and expected values by the suite parser.  The
harness's own integers (plan keys, command-line flags and REPAIR_JOBS)
are read the same way, by `syntax.read_int`.
"""

import resource
import time

import pytest

from patchbandit.aos import ConfigError
from patchbandit.cli import EXIT_USAGE, build_parser, main
from patchbandit.experiment import PlanFormatError, parse_plan, worker_count
from patchbandit.toylang.interp import ToyFault, _Ctx, compile_program
from patchbandit.toylang.suite import SuiteFormatError, parse_suite
from patchbandit.toylang.syntax import (INT_MAX, INT_MIN, Num, ParseError,
                                        parse_program)

SHAPES = {"var-var": "x {op} y", "var-num": "x {op} {y}",
          "general": "(x + 0) {op} y"}

# (op, x, y, result) with results at each end of the range
AT_THE_ENDS = [
    ("+", INT_MAX - 1, 1, INT_MAX),
    ("+", INT_MIN, 0, INT_MIN),
    ("-", INT_MIN + 1, 1, INT_MIN),
    ("-", INT_MAX, 0, INT_MAX),
    ("*", -2 ** 62, 2, INT_MIN),
    ("*", INT_MAX, 1, INT_MAX),
    ("/", INT_MIN, 1, INT_MIN),
    ("/", INT_MAX, 1, INT_MAX),
    ("%", INT_MIN, 3, -2),
    ("%", INT_MAX, 2, 1),
    ("%", INT_MIN, -1, 0),
]

# (op, x, y) whose result lies just past an end of the range
PAST_THE_ENDS = [
    ("+", INT_MAX, 1),
    ("+", INT_MIN, -1),
    ("-", INT_MIN, 1),
    ("-", INT_MAX, -1),
    ("*", 2 ** 62, 2),
    ("*", -2 ** 62 - 1, 2),
    ("*", INT_MIN, -1),
    ("/", INT_MIN, -1),
]


def _run(text, args, budget=100_000):
    cp = compile_program(parse_program(text))
    return cp["f"].invoke(list(args), _Ctx(budget, None))


def _fault(text, args, budget=100_000):
    with pytest.raises(ToyFault) as err:
        _run(text, args, budget)
    return err.value.kind


def _cases(table):
    # a literal is never negative, so the var-num shape takes y >= 0 only
    return [pytest.param(shape, *case, id=f"{shape}:{case[1]}{case[0]}"
                                          f"{case[2]}")
            for case in table for shape in SHAPES
            if shape != "var-num" or case[2] >= 0]


@pytest.mark.parametrize("shape, op, x, y, result", _cases(AT_THE_ENDS))
def test_arithmetic_reaches_each_end_of_the_range(shape, op, x, y, result):
    expr = SHAPES[shape].format(op=op, y=y)
    assert _run(f"fn f(x, y) {{ return {expr}; }}", [x, y]) == result


@pytest.mark.parametrize("shape, op, x, y", _cases(PAST_THE_ENDS))
def test_arithmetic_past_each_end_of_the_range_faults_overflow(shape, op, x,
                                                               y):
    expr = SHAPES[shape].format(op=op, y=y)
    assert _fault(f"fn f(x, y) {{ return {expr}; }}", [x, y]) == "overflow"


@pytest.mark.parametrize("x, result", [(INT_MIN + 1, INT_MAX),
                                       (INT_MAX, INT_MIN + 1)])
def test_unary_minus_reaches_each_end_of_the_range(x, result):
    assert _run("fn f(x) { return -x; }", [x]) == result


def test_unary_minus_of_the_smallest_value_faults_overflow():
    assert _fault("fn f(x) { return -x; }", [INT_MIN]) == "overflow"
    assert _fault("fn f(x) { return -(x + 0); }", [INT_MIN]) == "overflow"


def test_the_earlier_faults_come_first():
    # the operands, then the int check, then div-zero, then overflow
    assert _fault("fn f(x, y) { return x / y; }", [INT_MIN, 0]) == "div-zero"
    assert _fault("fn f(x, y) { return x % 0; }", [INT_MIN, 0]) == "div-zero"
    assert _fault("fn f(x, y) { return x * y; }", [[1], INT_MAX]) == "type"
    assert _fault("fn f(x, y) { return (x + y) + z; }",
                  [INT_MAX, 1]) == "overflow"
    assert _fault("fn f(x, y) { return z + (x + y); }",
                  [INT_MAX, 1]) == "undefined-variable"


@pytest.mark.parametrize("update", ["x = x + x;", "x = x * 2;"])
@pytest.mark.parametrize("budget", [5000, 100_000])
def test_a_doubling_loop_faults_overflow_at_once(update, budget):
    text = f"fn f(x) {{ while (1 < 2) {{ {update} }} return 0; }}"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    assert _fault(text, [3], budget) == "overflow"
    assert time.perf_counter() - started < 1.0
    # ru_maxrss is in KiB: the 62 snapshots before the fault take little
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak < 10_000


def test_the_largest_literal_parses_and_the_smallest_value_is_a_difference():
    program = parse_program(f"fn f() {{ return {INT_MAX}; }}")
    assert program.functions[0].body[0].expr == Num(INT_MAX)
    assert _run(f"fn f() {{ return {INT_MAX}; }}", []) == INT_MAX
    assert _run(f"fn f() {{ return -{INT_MAX} - 1; }}", []) == INT_MIN


@pytest.mark.parametrize("minus", ["", "-"], ids=["plain", "negated"])
@pytest.mark.parametrize("literal", [str(INT_MAX + 1), "9" * 20, "9" * 5000],
                         ids=["2^63", "20-digits", "5000-digits"])
def test_a_literal_past_the_range_is_a_parse_error_at_its_position(literal,
                                                                   minus):
    # -2^63 too: a literal is never negative, so it would be 2^63 negated
    with pytest.raises(ParseError, match="integer literal out of range") \
            as err:
        parse_program(f"fn f() {{\n  return {minus}{literal};\n}}")
    assert (err.value.line, err.value.col) == (2, 10 + len(minus))


def test_leading_zeros_do_not_count_against_a_literal():
    assert _run(f"fn f() {{ return {'0' * 5000}; }}", []) == 0
    assert _run(f"fn f() {{ return {'0' * 5000}{INT_MAX}; }}", []) == INT_MAX


def test_suite_values_at_each_end_of_the_range_parse():
    suite = parse_suite(f"t | f | {INT_MAX}, [{INT_MIN}, 0, {INT_MAX}] "
                        f"| {INT_MIN}\n")
    (case,) = suite
    assert case.args == (INT_MAX, (INT_MIN, 0, INT_MAX))
    assert case.expected == INT_MIN
    # leading zeros do not count against a value either
    (case,) = parse_suite(f"t | f | -{'0' * 5000}7, [007] | -0", "demo")
    assert (case.args, case.expected) == ((-7, (7,)), 0)


@pytest.mark.parametrize("row", [
    f"t | f | {INT_MAX + 1} | 0",
    f"t | f | {INT_MIN - 1} | 0",
    f"t | f | [0, {INT_MAX + 1}] | 0",
    f"t | f | [{INT_MIN - 1}] | 0",
    f"t | f | 0 | {INT_MAX + 1}",
    f"t | f | 0 | {INT_MIN - 1}",
    f"t | f | {'9' * 5000} | 0",
], ids=["arg-high", "arg-low", "element-high", "element-low",
        "expected-high", "expected-low", "5000-digits"])
def test_a_suite_value_past_the_range_is_a_format_error(row):
    with pytest.raises(SuiteFormatError,
                       match="demo:1: integer outside the signed 64-bit"):
        parse_suite(row + "\n", "demo")


@pytest.mark.parametrize("text", ["1_000", "+5", "\u0663", "5 5", "-", "--5",
                                  "0x10", " - 5"],
                         ids=["underscore", "plus", "arabic-indic-three",
                              "space", "minus-only", "two-minus", "hex",
                              "spaced-minus"])
def test_a_suite_integer_is_a_minus_and_the_digits_0_to_9(text):
    for row in (f"t | f | {text} | 0", f"t | f | [{text}] | 0",
                f"t | f | 0 | {text}"):
        with pytest.raises(SuiteFormatError, match="not an integer"):
            parse_suite(row, "demo")


# int() reads all of these; the harness reads none of them
NOT_INTEGERS = ["\u0662", "1_0", "+5", "9223372036854775808",
                "-9223372036854775809"]
NOT_INTEGER_IDS = ["arabic-indic-two", "underscore", "plus", "past-max",
                   "past-min"]


@pytest.mark.parametrize("text", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
@pytest.mark.parametrize("key", ["attempts", "pop", "gens", "step_budget",
                                 "base_seed"])
def test_a_plan_integer_is_read_as_a_suite_integer(key, text):
    with pytest.raises(PlanFormatError, match=f"^line 2: {key}: "):
        parse_plan(f"config = uniform\n{key} = {text}\n")


def test_the_plan_seed_takes_each_end_of_the_range():
    for seed in (INT_MIN, INT_MAX):
        assert parse_plan(f"config = uniform\nbase_seed = {seed}\n"
                          ).base_seed == seed


@pytest.mark.parametrize("text", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
@pytest.mark.parametrize("command, flag", [
    ("run", "--pop"), ("run", "--gens"), ("run", "--attempts"),
    ("run", "--seed"), ("run", "--step-budget"),
    ("quality", "--step-budget"), ("gate", "--step-budget"),
])
def test_an_integer_flag_is_read_as_a_suite_integer(command, flag, text,
                                                    tmp_path, capsys):
    # paths that do not exist, so that a flag read wrongly fails fast too
    missing = str(tmp_path / "missing")
    paths = {"run": ["--policy", "uniform", "--out", missing],
             "quality": ["--patches", missing]}.get(command, [])
    argv = [command, *paths, "--corpus", missing, flag, text]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        f"usage error: argument {flag}: ")
    assert list(tmp_path.iterdir()) == []


def test_the_seed_flag_takes_each_end_of_the_range():
    for seed in (INT_MIN, INT_MAX):
        args = build_parser().parse_args(
            ["run", "--policy", "uniform", "--out", "x", f"--seed={seed}"])
        assert args.base_seed == seed


@pytest.mark.parametrize("text", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_repair_jobs_is_read_as_a_suite_integer(text, monkeypatch):
    monkeypatch.setenv("REPAIR_JOBS", text)
    with pytest.raises(ConfigError, match="^REPAIR_JOBS: "):
        worker_count()
