"""CLI subcommands, output files, and exit-code contract."""

import json
import shutil
from pathlib import Path

import pytest

from patchbandit import cli
from patchbandit.cli import (EXIT_CORPUS, EXIT_GATE, EXIT_OK, EXIT_USAGE,
                             main)
from patchbandit.corpus import DEFAULT_CORPUS_DIR
from patchbandit.experiment import CSV_COLUMNS, ExperimentPlan, parse_plan

# a directory and a plan that exist wherever the tests run from
TESTS_DIR = Path(__file__).resolve().parent
EXAMPLE_PLAN = TESTS_DIR.parent / "docs" / "example.plan"

RUN_ARGS = ["run", "--policy", "uniform", "--bugs", "reset-1,dupadd-1",
            "--attempts", "2", "--pop", "12", "--gens", "4", "--seed", "3"]


def test_run_writes_summary_detail_and_patches(tmp_path, capsys):
    code = main(RUN_ARGS + ["--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert (tmp_path / "out" / "summary.csv").read_text() == printed
    detail = json.loads((tmp_path / "out" / "detail.json").read_text())
    assert detail["attempts"] == 2 and detail["base_seed"] == 3
    assert list((tmp_path / "out" / "patches").glob("*.patch"))


def test_run_rerun_is_byte_identical(tmp_path):
    assert main(RUN_ARGS + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(RUN_ARGS + ["--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("summary.csv", "detail.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_bench_matches_equivalent_run(tmp_path):
    plan = tmp_path / "demo.plan"
    plan.write_text("base_seed = 3\nattempts = 2\npop = 12\ngens = 4\n"
                    "bugs = reset-1, dupadd-1\nconfig = uniform arms=3\n")
    assert main(["bench", "--plan", str(plan),
                 "--out", str(tmp_path / "bench")]) == EXIT_OK
    assert main(RUN_ARGS + ["--out", str(tmp_path / "run")]) == EXIT_OK
    assert (tmp_path / "bench" / "summary.csv").read_bytes() == \
           (tmp_path / "run" / "summary.csv").read_bytes()
    assert (tmp_path / "bench" / "detail.json").read_bytes() == \
           (tmp_path / "run" / "detail.json").read_bytes()


def _output_bytes(out):
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_every_way_to_ask_for_the_packaged_corpus_gives_the_same_bytes(
        tmp_path):
    text = ("base_seed = 3\nattempts = 2\npop = 12\ngens = 4\n"
            "bugs = reset-1, dupadd-1\nconfig = uniform arms=3\n")
    for name, corpus_line in (("unset", ""),
                              ("named", f"corpus = {DEFAULT_CORPUS_DIR}\n")):
        plan = tmp_path / f"{name}.plan"
        plan.write_text(text + corpus_line)
        assert main(["bench", "--plan", str(plan),
                     "--out", str(tmp_path / name)]) == EXIT_OK
    unset = _output_bytes(tmp_path / "unset")
    assert "detail.json" in unset and "summary.csv" in unset
    assert _output_bytes(tmp_path / "named") == unset


def test_quality_scores_saved_patches(tmp_path, capsys):
    assert main(RUN_ARGS + ["--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    code = main(["quality", "--patches", str(tmp_path / "out" / "patches")])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("aggregate quality over")
    for line in lines[:-1]:
        name, bug, ratio, score = line.split()
        passed, total = ratio.split("/")
        assert int(passed) <= int(total)
        assert 0.0 <= float(score) <= 1.0


def test_quality_rejects_unknown_bug(tmp_path, capsys):
    patch_dir = tmp_path / "patches"
    patch_dir.mkdir()
    (patch_dir / "x.patch").write_text('{"bug": "ghost-1", "edits": []}\n')
    assert main(["quality", "--patches", str(patch_dir)]) == EXIT_CORPUS
    assert "ghost-1" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['["mid3"]', '{"bug": "mid3"}', "{",
                                  '{"bug": ["mid3"], "edits": []}'])
def test_quality_rejects_malformed_patch_files(tmp_path, capsys, text):
    patch_dir = tmp_path / "patches"
    patch_dir.mkdir()
    (patch_dir / "x.patch").write_text(text + "\n")
    assert main(["quality", "--patches", str(patch_dir)]) == EXIT_CORPUS
    assert "unreadable patch file" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1.0", "true"])
def test_quality_rejects_non_int_payload(tmp_path, capsys, value):
    # applied, [1.0] would build `return 1.0;`, which does not parse back
    patch_dir = tmp_path / "patches"
    patch_dir.mkdir()
    (patch_dir / "x.patch").write_text(
        '{"bug": "mid3", "edits": [{"op": "default_return_insert", '
        f'"target": 0, "path": [], "payload": [{value}]}}]}}\n')
    assert main(["quality", "--patches", str(patch_dir)]) == EXIT_CORPUS
    err = capsys.readouterr().err
    assert err.startswith("corpus error:") and "payload" in err


@pytest.mark.parametrize("target,path", [
    ("2.7", "[]"), ("true", "[]"), ('"3"', "[]"), ("2", '[["x"], 1.5]'),
])
def test_quality_rejects_non_int_target_or_path(tmp_path, capsys, target,
                                                path):
    patch_dir = tmp_path / "patches"
    patch_dir.mkdir()
    (patch_dir / "x.patch").write_text(
        '{"bug": "mid3", "edits": [{"op": "stmt_delete", '
        f'"target": {target}, "path": {path}, "payload": []}}]}}\n')
    assert main(["quality", "--patches", str(patch_dir)]) == EXIT_CORPUS
    assert capsys.readouterr().err.startswith("corpus error:")


def test_quality_on_empty_directory(tmp_path, capsys):
    patch_dir = tmp_path / "patches"
    patch_dir.mkdir()
    assert main(["quality", "--patches", str(patch_dir)]) == EXIT_OK
    assert "no patch files" in capsys.readouterr().out
    # a missing directory is not an empty one
    missing = tmp_path / "missing"
    assert main(["quality", "--patches", str(missing)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"usage error: not a directory: {missing}\n"


def test_gate_passes_on_the_shipped_corpus(capsys):
    assert main(["gate", "--step-budget", "100000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gate: PASS (12 bugs)" in out


def test_gate_fails_on_unreachable_fix(tmp_path, capsys):
    bugdir = tmp_path / "stuck-1"
    bugdir.mkdir()
    (bugdir / "bug.toy").write_text("fn f(x) { return x; }\n")
    (bugdir / "fixed.toy").write_text("fn f(x) { return x * 37; }\n")
    (bugdir / "repair.tests").write_text(
        "t0 | f | 0 | 0\nt2 | f | 2 | 74\n")
    (bugdir / "heldout.tests").write_text("h1 | f | 1 | 37\n")
    assert main(["gate", "--corpus", str(tmp_path)]) == EXIT_GATE
    assert "gate: FAIL" in capsys.readouterr().out


def test_gate_on_a_bug_whose_mutant_squares_forever_ends(tmp_path, capsys):
    # deleting `i = i + 1` leaves a loop that squares x until the product
    # leaves the int range; the first repair test reaches it
    bugdir = tmp_path / "square-1"
    bugdir.mkdir()
    (bugdir / "bug.toy").write_text(
        "fn f(x) {\n  i = 0;\n  while (i < 2) {\n    x = x * x;\n"
        "    i = i + 1;\n  }\n  return x;\n}\n")
    (bugdir / "fixed.toy").write_text(
        (bugdir / "bug.toy").read_text().replace("i < 2", "i < 1"))
    (bugdir / "repair.tests").write_text(
        "t2 | f | 2 | 4\nt0 | f | 0 | 0\nt1 | f | 1 | 1\n")
    (bugdir / "heldout.tests").write_text("h3 | f | 3 | 9\n")
    assert main(["gate", "--corpus", str(tmp_path)]) == EXIT_OK
    assert "square-1: PASS" in capsys.readouterr().out


def test_gate_on_a_flat_chain_too_deep_to_parse_is_a_corpus_error(tmp_path,
                                                                 capsys):
    bugdir = tmp_path / "chain-1"
    shutil.copytree(DEFAULT_CORPUS_DIR / "mid3", bugdir)
    chain = " + ".join(["x"] * 1000)
    (bugdir / "bug.toy").write_text(
        f"fn f(x) {{ y = {chain}; return y; }}\n")
    assert main(["gate", "--corpus", str(tmp_path)]) == EXIT_CORPUS
    err = capsys.readouterr().err
    assert err.startswith("corpus error:") and "nesting deeper than" in err


@pytest.mark.parametrize("literal", ["\u00b2", "9" * 5000],
                         ids=["superscript-two", "5000-digits"])
def test_gate_on_a_literal_the_lexer_rejects_is_a_corpus_error(tmp_path,
                                                              capsys,
                                                              literal):
    bugdir = tmp_path / "literal-1"
    shutil.copytree(DEFAULT_CORPUS_DIR / "mid3", bugdir)
    (bugdir / "bug.toy").write_text(
        f"fn mid(x, y, z) {{ return {literal}; }}\n")
    assert main(["gate", "--corpus", str(tmp_path)]) == EXIT_CORPUS
    err = capsys.readouterr().err
    assert err.startswith("corpus error: literal-1: parse error at 1:26")


@pytest.mark.parametrize("value", ["9223372036854775808",
                                   "[-9223372036854775809]", "1_000", "+5",
                                   "\u0663"],
                         ids=["2^63", "element-below", "underscore", "plus",
                              "arabic-indic-three"])
def test_gate_on_a_suite_value_the_grammar_rejects_is_a_corpus_error(
        tmp_path, capsys, value):
    bugdir = tmp_path / "suite-1"
    shutil.copytree(DEFAULT_CORPUS_DIR / "mid3", bugdir)
    (bugdir / "repair.tests").write_text(f"t | mid | 1, 2, 3 | 2\n"
                                         f"u | mid | {value}, 2, 3 | 2\n")
    assert main(["gate", "--corpus", str(tmp_path)]) == EXIT_CORPUS
    err = capsys.readouterr().err
    assert err.startswith("corpus error: suite-1: ")
    assert "repair.tests:2: " in err


def test_quality_on_a_payload_the_lexer_rejects_scores_the_bug(tmp_path,
                                                               capsys):
    # the edit cannot apply, so the patch scores as the unpatched program
    patch_dir = tmp_path / "patches"
    patch_dir.mkdir()
    (patch_dir / "a.patch").write_text(
        '{"bug": "mid3", "edits": [{"op": "expr_replace", "target": 1, '
        '"path": ["cond"], "payload": ["\u00b2"]}]}\n')
    (patch_dir / "b.patch").write_text('{"bug": "mid3", "edits": []}\n')
    assert main(["quality", "--patches", str(patch_dir)]) == EXIT_OK
    noop, unpatched = capsys.readouterr().out.splitlines()[:2]
    assert noop.split()[1:] == unpatched.split()[1:]


@pytest.mark.parametrize("filename", ["bug.toy", "repair.tests"])
def test_non_utf8_corpus_file_is_a_corpus_error(tmp_path, capsys, filename):
    shutil.copytree(DEFAULT_CORPUS_DIR / "mid3", tmp_path / "mid3")
    with open(tmp_path / "mid3" / filename, "ab") as fh:
        fh.write(b"# \xff\n")
    assert main(["gate", "--corpus", str(tmp_path)]) == EXIT_CORPUS
    err = capsys.readouterr().err
    assert err.startswith("corpus error:")
    assert f"{filename} is not UTF-8 text" in err


def test_missing_corpus_is_a_corpus_error(tmp_path, capsys):
    code = main(["run", "--policy", "uniform",
                 "--corpus", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CORPUS
    assert "corpus error" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["gate", "--corpus", str(empty)]) == EXIT_CORPUS
    assert "no bug directories under" in capsys.readouterr().err


def test_unknown_bug_names_skip_but_flag_corpus_error(tmp_path, capsys):
    code = main(["run", "--policy", "uniform", "--bugs", "reset-1,ghost-7",
                 "--attempts", "1", "--pop", "8", "--gens", "2",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CORPUS
    captured = capsys.readouterr()
    assert "ghost-7" in captured.err
    # the healthy cell still ran and was reported
    assert (tmp_path / "out" / "summary.csv").exists()
    assert "uniform" in captured.out


@pytest.mark.parametrize("argv", [
    [],
    ["run"],
    ["run", "--policy", "warp", "--out", "x"],
    ["run", "--policy", "pm", "--out", "x", "--arms", "5"],
    ["bench", "--out", "x"],
    ["frobnicate"],
    # an empty path would name the working directory or the packaged corpus
    ["run", "--policy", "uniform", "--corpus", "", "--out", "x"],
    ["run", "--policy", "uniform", "--out", ""],
    ["bench", "--plan", str(EXAMPLE_PLAN), "--out", ""],
    ["quality", "--patches", ""],
    ["quality", "--patches", str(TESTS_DIR), "--corpus", ""],
    ["gate", "--corpus", ""],
])
def test_usage_errors_exit_one(argv, capsys, monkeypatch):
    def no_cells(plan):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_experiment", no_cells)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_cannot_be_a_directory_fails_before_any_cell(
        tmp_path, capsys, monkeypatch, command, below):
    def no_cells(plan):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_experiment", no_cells)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "sub" if below else taken
    plan = tmp_path / "demo.plan"
    plan.write_text("bugs = reset-1\nconfig = uniform arms=3\n")
    argv = (RUN_ARGS if command == "run" else ["bench", "--plan", str(plan)])
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: not a directory: {out}\n"
    assert taken.read_text() == "keep\n"


_OUT_ENTRIES = [
    ("summary.csv", "file"), ("detail.json", "file"), ("patches", "directory"),
    ("patches/c00-dupadd-1-a00.patch", "file"),
]


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("entry, kind, dangling", [
    pytest.param(entry, kind, dangling,
                 id=f"{entry}-{kind}" + "-dangling" * dangling)
    for dangling in (False, True) for entry, kind in _OUT_ENTRIES])
def test_an_out_entry_of_the_wrong_kind_fails_before_any_cell(
        tmp_path, capsys, monkeypatch, command, entry, kind, dangling):
    # write_report would fail on it only after every cell had run
    def no_cells(plan):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_experiment", no_cells)
    out = tmp_path / "out"
    out.mkdir()
    in_the_way = out / entry
    in_the_way.parent.mkdir(exist_ok=True)
    if dangling:    # a link to nothing, which Path.exists() calls absent
        in_the_way.symlink_to(tmp_path / "missing")
    elif kind == "file":
        in_the_way.mkdir()
    else:
        in_the_way.write_text("keep\n")
    plan = tmp_path / "demo.plan"
    plan.write_text("bugs = reset-1\nconfig = uniform arms=3\n")
    argv = (RUN_ARGS if command == "run" else ["bench", "--plan", str(plan)])
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"usage error: not a {kind}: {in_the_way}\n"


def test_a_rerun_into_the_same_out_overwrites_its_entries(tmp_path):
    out = str(tmp_path / "out")
    assert main(RUN_ARGS + ["--out", out]) == EXIT_OK
    first = (tmp_path / "out" / "detail.json").read_bytes()
    assert main(RUN_ARGS + ["--out", out]) == EXIT_OK
    assert (tmp_path / "out" / "detail.json").read_bytes() == first


def test_a_rerun_into_the_same_out_keeps_only_its_own_patches(tmp_path,
                                                              capsys):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    one_attempt = RUN_ARGS + ["--attempts", "1"]
    assert main(RUN_ARGS + ["--out", str(out)]) == EXIT_OK
    (out / "patches" / "notes.txt").write_text("keep\n")
    first = sorted(p.name for p in (out / "patches").glob("*.patch"))
    assert main(one_attempt + ["--out", str(out)]) == EXIT_OK
    assert main(one_attempt + ["--out", str(fresh)]) == EXIT_OK
    kept = sorted(p.name for p in (out / "patches").glob("*.patch"))
    assert kept == sorted(p.name for p in (fresh / "patches").glob("*.patch"))
    assert len(kept) < len(first)
    for name in kept:
        assert (out / "patches" / name).read_bytes() == \
            (fresh / "patches" / name).read_bytes()
    assert (out / "patches" / "notes.txt").read_text() == "keep\n"
    capsys.readouterr()
    assert main(["quality", "--patches", str(out / "patches")]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == len(kept) + 1


class _Captured(Exception):
    pass


def _plan_of_run(flags, monkeypatch, tmp_path):
    """The plan `repair run` would hand to run_experiment."""
    def capture(plan):
        raise _Captured(plan)

    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Captured) as caught:
        main(["run", *flags, "--out", str(tmp_path / "out")])
    return caught.value.args[0]


@pytest.mark.parametrize("policy", ["uniform", "ucb"])
def test_run_without_settings_is_the_plan_without_them(policy, monkeypatch,
                                                        tmp_path):
    # repair run states no default of its own: the plan's are the run's
    assert _plan_of_run(["--policy", policy], monkeypatch, tmp_path) == \
        parse_plan(f"config = {policy}\n")


def test_run_with_every_setting_is_the_plan_with_every_key(monkeypatch,
                                                            tmp_path):
    flags = ["--policy", "ucb", "--credit", "erwa", "--alpha", "0.3",
             "--reward", "relative", "--cadence", "mutation", "--arms", "18",
             "--pop", "12", "--gens", "4", "--attempts", "3", "--seed", "9",
             "--corpus", "elsewhere", "--bugs", "reset-1,mid3",
             "--step-budget", "900"]
    plan = _plan_of_run(flags, monkeypatch, tmp_path)
    assert plan == parse_plan(
        "base_seed = 9\nattempts = 3\npop = 12\ngens = 4\n"
        "step_budget = 900\ncorpus = elsewhere\nbugs = reset-1, mid3\n"
        "config = ucb credit=erwa alpha=0.3 reward=relative "
        "cadence=mutation arms=18\n")
    # no flag was dropped on the way: every setting moved off its default
    default = parse_plan("config = ucb\n")
    for name in ExperimentPlan._fields:
        assert getattr(plan, name) != getattr(default, name), name
    for name in plan.configs[0]._fields:
        if name != "policy":
            assert getattr(plan.configs[0], name) != \
                getattr(default.configs[0], name), name


def test_malformed_plan_is_a_usage_error(tmp_path, capsys):
    plan = tmp_path / "bad.plan"
    plan.write_text("config = pm tempo=fast\n")
    assert main(["bench", "--plan", str(plan),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "tempo" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("config = pm credit=erwa alpha=abc", "line 2: alpha needs a number"),
    ("step_budget = 0", "line 2: step_budget must be >= 1"),
    ("pop = 1", "line 2: pop must be >= 2"),
    ("corpus =", "line 2: empty corpus"),
])
def test_bad_plan_values_are_usage_errors_before_any_cell(tmp_path, capsys,
                                                          line, message):
    plan = tmp_path / "bad.plan"
    plan.write_text(f"config = uniform\n{line}\nbugs = reset-1\n")
    out = tmp_path / "out"
    assert main(["bench", "--plan", str(plan), "--out", str(out)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert not out.exists()


def test_non_utf8_plan_is_a_usage_error(tmp_path, capsys):
    plan = tmp_path / "bad.plan"
    plan.write_bytes(b"config = uniform\n# caf\xff\nbugs = reset-1\n")
    out = tmp_path / "out"
    assert main(["bench", "--plan", str(plan), "--out", str(out)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "not UTF-8 text" in err
    assert not out.exists()


def test_repeated_bug_in_a_plan_is_a_usage_error(tmp_path, capsys):
    plan = tmp_path / "twice.plan"
    plan.write_text("config = uniform\nbugs = reset-1, dupadd-1, reset-1\n")
    out = tmp_path / "out"
    assert main(["bench", "--plan", str(plan), "--out", str(out)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "line 2: bug 'reset-1' is listed twice" in err
    assert not out.exists()


def test_a_config_key_given_twice_is_a_usage_error(tmp_path, capsys):
    plan = tmp_path / "twice.plan"
    plan.write_text("config = pm credit=avg credit=erwa alpha=0.3 alpha=0.9\n"
                    "bugs = guard-1\n")
    out = tmp_path / "out"
    assert main(["bench", "--plan", str(plan), "--out", str(out)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "line 1: config key 'credit' is given twice" in err
    assert not out.exists()


@pytest.mark.parametrize("bugs", [",", " , ,", ""])
def test_empty_bug_list_in_run_is_a_usage_error(tmp_path, capsys, bugs):
    out = tmp_path / "out"
    assert main(["run", "--policy", "pm", "--bugs", bugs,
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "at least one bug" in err
    assert not out.exists()


def test_arms_count_and_scheme_name_give_the_same_run(tmp_path):
    base = ["--bugs", "reset-1", "--attempts", "1", "--pop", "6",
            "--gens", "2", "--seed", "5"]
    assert main(["run", "--policy", "pm", "--arms", "7", *base,
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    details = [(tmp_path / "run" / "detail.json").read_bytes()]
    for arms in ("7", "arms7"):
        plan = tmp_path / f"{arms}.plan"
        plan.write_text(f"config = pm arms={arms}\nbugs = reset-1\n"
                        "attempts = 1\npop = 6\ngens = 2\nbase_seed = 5\n")
        out = tmp_path / f"bench-{arms}"
        assert main(["bench", "--plan", str(plan), "--out", str(out)]) \
            == EXIT_OK
        details.append((out / "detail.json").read_bytes())
    assert details[0] == details[1] == details[2]
    assert json.loads(details[0])["configs"][0]["arms"] == "arms7"


def test_repeated_bug_in_run_bugs_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--policy", "uniform", "--bugs", "reset-1,reset-1",
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "listed twice" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--policy", "uniform", "--pop", "1", "--out", "x"],
    ["run", "--policy", "uniform", "--step-budget", "0", "--out", "x"],
    ["quality", "--patches", "x", "--step-budget", "0"],
    ["gate", "--step-budget", "-5"],
])
def test_out_of_range_flags_are_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")
