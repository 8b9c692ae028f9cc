"""Corpus integrity and single-edit reachability checks."""

import pytest

from patchbandit.corpus import (Bug, CorpusError, DEFAULT_CORPUS_DIR,
                                check_bug, edits_from_jsonable,
                                edits_to_jsonable, load_bug, load_corpus,
                                load_patch, run_gate)
from patchbandit.experiment import ExperimentReport, write_report
from patchbandit.toylang import interp
from patchbandit.toylang import (COARSE_OPERATORS, Edit, apply_edit,
                                 apply_edits, enumerate_edits, localize,
                                 passes_all, run_tests)
from patchbandit.toylang.syntax import Function, Num, Program, Return

EXPECTED_BUGS = ["callswap-1", "dupadd-1", "guard-1", "init-1", "mid3",
                 "negbal-1", "offbyone-1", "reset-1", "sched-1", "span-1",
                 "swap-1", "worstloss-1"]

# the gate's whole output per bug, frozen by design: the operators with a
# single-edit repair-suite fix in discovery order, the number of such
# fixes, and the number of single edits enumerated
GATE_TABLE = {
    "callswap-1": (("func_call_swap",), 1, 35),
    "dupadd-1": (("stmt_delete",), 2, 166),
    "guard-1": (("guard_insert",), 1, 28),
    "init-1": (("var_init_insert",), 1, 211),
    "mid3": (("stmt_append", "stmt_replace"), 2, 243),
    "negbal-1": (("stmt_append", "stmt_delete", "stmt_replace",
                  "stmt_swap"), 10, 160),
    "offbyone-1": (("stmt_append", "off_by_one", "const_perturb"), 4, 129),
    "reset-1": (("stmt_delete",), 1, 162),
    "sched-1": (("stmt_append", "stmt_replace", "expr_add"), 4, 107),
    "span-1": (("stmt_append",), 1, 433),
    "swap-1": (("off_by_one", "stmt_swap"), 3, 117),
    "worstloss-1": (("stmt_append",), 1, 427),
}


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def gate(corpus):
    return run_gate(corpus)


def test_corpus_ships_twelve_bugs(corpus):
    assert [bug.name for bug in corpus] == EXPECTED_BUGS


def test_every_bug_passes_the_gate(gate):
    for result in gate:
        assert result.ok, (result.name, result.errors)


def test_gate_table_matches_design(gate):
    found = {r.name: (r.fixing_operators, r.single_edit_fixes,
                      r.edits_examined) for r in gate}
    assert found == GATE_TABLE


def test_passes_all_verdict_does_not_depend_on_case_order(corpus):
    # the repair suite in file order and with the cases the buggy program
    # fails moved to the front give every single-edit variant one verdict
    for bug in corpus:
        located = localize(bug.program, bug.repair_suite)
        cases = bug.repair_suite
        failing_first = [case for ok in (False, True)
                         for case, flag in zip(cases, located.report.flags)
                         if flag == ok]
        assert sorted(failing_first, key=cases.index) == list(cases)
        for edit in enumerate_edits(bug.program, located.weights):
            variant = apply_edit(bug.program, edit)[0]
            assert passes_all(variant, cases) == \
                passes_all(variant, failing_first), (bug.name, edit)


def test_gate_runs_each_failing_variant_to_its_first_failing_test(
        monkeypatch):
    # an exact count of the test cases the gate runs: failing-first order
    # stops most failing variants at their first case (4,669 in file order)
    calls = []
    run_case = interp._run_case

    def counted(*args):
        calls.append(None)
        return run_case(*args)

    monkeypatch.setattr(interp, "_run_case", counted)
    assert all(result.ok for result in run_gate(load_corpus()))
    assert len(calls) == 2741


def test_eight_bugs_are_coarse_patchable(gate):
    coarse = {r.name for r in gate
              if set(r.fixing_operators) & set(COARSE_OPERATORS)}
    assert coarse == {"mid3", "span-1", "dupadd-1", "reset-1", "negbal-1",
                      "worstloss-1", "sched-1", "offbyone-1"}


def test_at_least_three_bugs_need_coarse_edits(gate):
    coarse_only = {r.name for r in gate
                   if set(r.fixing_operators) <= set(COARSE_OPERATORS)
                   and r.fixing_operators}
    assert coarse_only == {"mid3", "span-1", "dupadd-1", "reset-1",
                           "worstloss-1"}


def test_template_groups_all_have_unique_signal(gate):
    only = {r.name: set(r.fixing_operators) for r in gate}
    assert only["guard-1"] == {"guard_insert"}          # bounds and checks
    assert only["init-1"] == {"var_init_insert"}        # initialization
    assert only["callswap-1"] == {"func_call_swap"}     # calls/expressions
    assert "stmt_swap" in only["swap-1"]                # multi-line reorder


def test_buggy_programs_fail_and_pass_repair_tests(corpus):
    for bug in corpus:
        report = run_tests(bug.program, bug.repair_suite)
        assert False in report.flags, bug.name
        assert True in report.flags, bug.name


def test_reference_fixes_are_perfect(corpus):
    for bug in corpus:
        assert run_tests(bug.fixed, bug.repair_suite).fitness == 1.0
        assert run_tests(bug.fixed, bug.heldout_suite).fitness == 1.0


def test_overfit_patch_discriminates_suites():
    bug = load_bug(DEFAULT_CORPUS_DIR / "offbyone-1")
    name, edits = load_patch(DEFAULT_CORPUS_DIR / bug.name / "overfit.patch")
    assert name == "offbyone-1"
    variant, flags = apply_edits(bug.program, edits)
    assert all(flags)
    assert run_tests(variant, bug.repair_suite).fitness == 1.0
    held = run_tests(variant, bug.heldout_suite)
    assert held.fitness < 1.0
    assert held.flags.count(False) == 1   # exactly the boundary case


def test_patch_files_round_trip(tmp_path):
    edits = (Edit("stmt_append", 2, (), (3,)),
             Edit("const_perturb", 4, ("expr", "right"), (-1,)),
             Edit("func_call_swap", 5, ("expr", 0), ("g",)))
    metrics = dict.fromkeys(("success_rate_micro", "success_rate_macro",
                             "bugs_patched", "avg_variant", "median_variant"))
    block = {"policy": "uniform", "credit": "-", "reward": "-",
             "cadence": "-", "arms": "arms3", "alpha": None,
             "metrics": metrics,
             "bugs": {"demo": [{"patched": True, "attempt": 0,
                                "edits": edits_to_jsonable(edits)}]}}
    write_report(ExperimentReport({"configs": [block]}), tmp_path)
    name, back = load_patch(tmp_path / "patches" / "c00-demo-a00.patch")
    assert name == "demo" and back == edits
    # an Edit equals the plain tuple of its items, so check the type too
    assert all(type(edit) is Edit for edit in back)
    assert edits_from_jsonable(edits_to_jsonable(edits)) == edits


@pytest.mark.parametrize("field,value", [
    ("target", 2.7), ("target", True), ("target", "3"),
    ("path", [["x"], 1.5]), ("path", "cond"),
])
def test_targets_and_paths_must_be_ints_and_strings(field, value):
    record = {"op": "stmt_delete", "target": 2, "path": [], "payload": []}
    assert edits_from_jsonable([record]) == (Edit("stmt_delete", 2),)
    record[field] = value
    with pytest.raises(CorpusError, match=field):
        edits_from_jsonable([record])


@pytest.mark.parametrize("op,payload,good", [
    ("default_return_insert", [1.0], [1]),
    ("default_return_insert", [True], [1]),
    ("const_perturb", [0.5], [-1]),
    ("off_by_one", [False], [1]),
    ("stmt_append", [None], [3]),
    ("stmt_append", [], [3]),
    ("guard_insert", [[1]], ["x"]),
    ("expr_add", ["x", "&&"], ["x", "&&", "left"]),
])
def test_payloads_must_fit_their_operator(op, payload, good):
    record = {"op": op, "target": 0, "path": [], "payload": payload}
    with pytest.raises(CorpusError, match="does not fit"):
        edits_from_jsonable([record])
    record["payload"] = good
    assert edits_from_jsonable([record]) == (Edit(op, 0, (), tuple(good)),)


def test_unknown_operator_is_a_corpus_error():
    record = {"op": "stmt_teleport", "target": 0, "path": [], "payload": []}
    with pytest.raises(CorpusError, match="unknown operator"):
        edits_from_jsonable([record])


def test_missing_files_raise_corpus_error(tmp_path):
    bugdir = tmp_path / "broken-1"
    bugdir.mkdir()
    (bugdir / "bug.toy").write_text("fn f() { return 0; }")
    with pytest.raises(CorpusError, match="missing fixed.toy"):
        load_bug(bugdir)
    with pytest.raises(CorpusError, match="not found"):
        load_corpus(tmp_path / "nowhere")
    # Path("") is the working directory; only None names the packaged corpus
    with pytest.raises(CorpusError, match="empty corpus path"):
        load_corpus("")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CorpusError, match="no bug directories under"):
        load_corpus(empty)


def test_parse_errors_are_wrapped(tmp_path):
    bugdir = tmp_path / "bad-1"
    bugdir.mkdir()
    (bugdir / "bug.toy").write_text("fn f( {")
    (bugdir / "fixed.toy").write_text("fn f() { return 0; }")
    (bugdir / "repair.tests").write_text("t | f | | 0")
    (bugdir / "heldout.tests").write_text("t | f | | 0")
    with pytest.raises(CorpusError, match="bad-1"):
        load_bug(bugdir)


def test_gate_flags_unfixable_bug(tmp_path):
    bugdir = tmp_path / "stuck-1"
    bugdir.mkdir()
    # correct behavior requires returning x*37; nothing in the program
    # can be recombined into that
    (bugdir / "bug.toy").write_text("fn f(x) { return x; }\n")
    (bugdir / "fixed.toy").write_text("fn f(x) { return x * 37; }\n")
    (bugdir / "repair.tests").write_text(
        "t0 | f | 0 | 0\nt2 | f | 2 | 74\nt3 | f | 3 | 111\n")
    (bugdir / "heldout.tests").write_text("h1 | f | 1 | 37\n")
    result = check_bug(load_bug(bugdir))
    assert not result.ok
    assert any("no single-edit variant" in e for e in result.errors)


def test_gate_flags_a_bug_that_fails_no_repair_test(corpus):
    bug = next(bug for bug in corpus if bug.name == "mid3")
    result = check_bug(bug._replace(program=bug.fixed))
    assert result.errors == ("buggy program fails no repair test",)
    assert result.edits_examined == 0


def test_gate_flags_a_program_that_does_not_round_trip(corpus):
    bug = next(bug for bug in corpus if bug.name == "mid3")
    # a hand-built -1 prints as `-1`, which parses back as -(1)
    ret = Return(0, Num(-1))
    odd = Program((Function("mid", ("x", "y", "z"), (ret,)),), 1)
    errors = check_bug(bug._replace(program=odd)).errors
    assert "buggy program does not round-trip" in errors
    assert "fixed program does not round-trip" not in errors
    errors = check_bug(bug._replace(fixed=odd)).errors
    assert "fixed program does not round-trip" in errors
    assert "buggy program does not round-trip" not in errors


def test_gate_flags_a_reference_fix_that_fails_repair_tests(corpus):
    bug = next(bug for bug in corpus if bug.name == "mid3")
    errors = check_bug(bug._replace(fixed=bug.program)).errors
    assert any(error.startswith("reference fix fails repair tests: ")
               for error in errors), errors


def test_gate_flags_a_bug_that_passes_no_repair_test(tmp_path):
    bugdir = tmp_path / "wrong-1"
    bugdir.mkdir()
    (bugdir / "bug.toy").write_text("fn f(x) { return x + 1; }\n")
    (bugdir / "fixed.toy").write_text("fn f(x) { return x; }\n")
    (bugdir / "repair.tests").write_text("t0 | f | 0 | 0\nt2 | f | 2 | 2\n")
    (bugdir / "heldout.tests").write_text("h1 | f | 1 | 1\n")
    result = check_bug(load_bug(bugdir))
    assert "buggy program passes no repair test" in result.errors
    assert "buggy program fails no repair test" not in result.errors
