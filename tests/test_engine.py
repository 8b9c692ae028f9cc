"""GP repair loop: schemes, determinism, memoization, credit accounting."""

import math
import random

import pytest

import patchbandit.engine as engine
from patchbandit.aos import (ConfigError, Controller, UniformSelector,
                            compute_reward)
from patchbandit.corpus import load_corpus
from patchbandit.engine import (ARM_SCHEMES, ConfigSpec, RepairOutcome,
                                Variant, _draw, derive_seed, fnv1a_64,
                                run_repair, scheme_operators)
from patchbandit.toylang import (ALL_OPERATORS, COARSE_OPERATORS, Edit,
                                 InapplicableOperator, NothingToRepair,
                                 OPERATOR_GROUPS, apply_edits, run_tests)

BUDGET = 5000


@pytest.fixture(scope="module")
def bugs():
    return {bug.name: bug for bug in load_corpus()}


def repair(bug, seed, spec=ConfigSpec("uniform"), population_size=40,
           generations=10):
    """One attempt on the bug's repair suite at the experiment budget."""
    return run_repair(bug.program, bug.repair_suite, spec, seed=seed,
                      population_size=population_size,
                      generations=generations, step_budget=BUDGET)


# ------------------------------------------------------------ seed hashing

def test_fnv1a_matches_published_vectors():
    assert fnv1a_64("") == 0xCBF29CE484222325
    assert fnv1a_64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64("foobar") == 0x85944171F73967E8


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(7, "search") == derive_seed(7, "search")
    assert derive_seed(7, "search") != derive_seed(7, "aos")
    assert derive_seed(7, "aos") != derive_seed(8, "aos")


# ----------------------------------------------------------------- schemes

def test_arm_counts():
    assert [len(arms) for arms in ARM_SCHEMES.values()] == [3, 18, 7]
    with pytest.raises(ConfigError):
        ConfigSpec("uniform", arms="arms5")


def test_scheme_operator_sets():
    assert scheme_operators("arms3") == COARSE_OPERATORS
    assert scheme_operators("arms18") == ALL_OPERATORS
    assert scheme_operators("arms7") == ALL_OPERATORS


def test_each_scheme_covers_its_operators_exactly_once():
    for scheme, arms in ARM_SCHEMES.items():
        members = [op for arm in arms
                   for op in ((arm,) if isinstance(arm, str) else arm)]
        assert sorted(members) == sorted(scheme_operators(scheme))
        assert len(members) == len(set(members))


def test_coarse_arms_use_canonical_order():
    for scheme in ARM_SCHEMES:
        assert ARM_SCHEMES[scheme][:3] == COARSE_OPERATORS


def test_off_by_one_lands_on_the_checks_arm():
    assert "off_by_one" in ARM_SCHEMES["arms7"][4]


def test_arms7_group_layout():
    arms = ARM_SCHEMES["arms7"]
    assert arms[1] == "stmt_delete"
    for arm, group in ((3, "func_expr"), (4, "checks"), (5, "init_cast"),
                       (6, "multi_line")):
        assert arms[arm] == OPERATOR_GROUPS[group]
    assert "expr_replace" in arms[3] and "var_init_insert" in arms[5]
    assert arms[6] == ("stmt_swap",)


def test_arms18_round_trips_every_operator():
    rng = random.Random(0)
    for arm, op in enumerate(ALL_OPERATORS):
        assert _draw(ARM_SCHEMES["arms18"][arm], rng) == op


def test_only_group_arms_draw_from_the_rng():
    # the one-member multi_line arm still draws, so P0's arms7 stream holds
    rng, reference = random.Random(5), random.Random(5)
    for arm in range(3):
        assert _draw(ARM_SCHEMES["arms7"][arm], rng) == COARSE_OPERATORS[arm]
        assert _draw(ARM_SCHEMES["arms18"][arm], rng) == ALL_OPERATORS[arm]
    assert rng.getstate() == reference.getstate()
    assert _draw(ARM_SCHEMES["arms7"][6], rng) == "stmt_swap"
    reference.randrange(1)
    assert rng.getstate() == reference.getstate()


def test_group_arm_draws_uniformly_within_group():
    rng = random.Random(42)
    draws = [_draw(ARM_SCHEMES["arms7"][3], rng) for _ in range(8000)]
    members = ("func_call_swap", "expr_replace", "expr_add", "expr_remove")
    assert set(draws) == set(members)
    for op in members:
        assert abs(draws.count(op) / 8000 - 0.25) < 0.02


def test_template_operator_unavailable_under_arms3():
    assert "guard_insert" not in scheme_operators("arms3")


# ------------------------------------------------------------- determinism

def test_uniform_repair_is_deterministic(bugs):
    bug = bugs["mid3"]
    first = repair(bug, seed=7)
    second = repair(bug, seed=7)
    assert first.patched and second.patched
    assert first.patch.edits == second.patch.edits
    assert first.variants_evaluated_at_patch == second.variants_evaluated_at_patch
    assert first.total_evaluations == second.total_evaluations


def test_adaptive_repair_is_deterministic(bugs):
    bug = bugs["span-1"]
    spec = ConfigSpec(policy="ucb", credit="erwa", cadence="mutation")
    first = repair(bug, seed=3, spec=spec)
    second = repair(bug, seed=3, spec=spec)
    assert first == second


def test_different_seeds_diverge(bugs):
    bug = bugs["mid3"]
    outcomes = {repair(bug, seed=s).variants_evaluated_at_patch
                for s in range(6)}
    assert len(outcomes) > 1


# ---------------------------------------------------------- patch validity

def test_patches_revalidate_on_a_fresh_interpreter(bugs):
    for name in ("mid3", "span-1", "dupadd-1", "reset-1"):
        bug = bugs[name]
        out = repair(bug, seed=11)
        assert out.patched, name
        patched, _ = apply_edits(bug.program, out.patch.edits)
        assert run_tests(patched, bug.repair_suite).fitness == 1.0, name
        assert out.patch.fitness == 1.0
        assert out.variants_evaluated_at_patch == out.patch.variant_index
        assert out.variants_evaluated_at_patch <= out.total_evaluations


def test_crossover_heavy_patch_program_is_its_replayed_edit_list(
        bugs, monkeypatch):
    # every pair crosses over, so patches splice lineages; reset-1 seed 9
    # ends in a 12-edit patch with two no-op edits
    monkeypatch.setattr(engine, "CROSSOVER_RATE", 1.0)
    for name, seed in (("reset-1", 9), ("init-1", 2), ("mid3", 1)):
        bug = bugs[name]
        out = repair(bug, seed=seed, spec=ConfigSpec("uniform", arms="arms18"),
                     generations=20)
        assert out.patched, name
        assert len(out.patch.edits) > 1, name
        assert out.patch.program == \
            apply_edits(bug.program, out.patch.edits)[0], name


@pytest.mark.parametrize("scheme", ["arms3", "arms7", "arms18"])
def test_every_variant_program_is_its_replayed_edit_list(bugs, monkeypatch,
                                                         scheme):
    # every pair crosses over, so most programs are built by folding the
    # step memo over a spliced list; each build step is one apply_edits
    # call with one edit
    made, calls, spliced = [], [], 0

    class Recorded(Variant):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def one_step(program, edits):
        calls.append(len(edits))
        return apply_edits(program, edits)

    monkeypatch.setattr(engine, "Variant", Recorded)
    monkeypatch.setattr(engine, "apply_edits", one_step)
    monkeypatch.setattr(engine, "CROSSOVER_RATE", 1.0)
    for name in ("guard-1", "worstloss-1", "callswap-1"):
        bug = bugs[name]
        for seed in range(3):
            made.clear()
            repair(bug, seed=seed, spec=ConfigSpec("uniform", arms=scheme),
                   population_size=12, generations=12)
            for variant in made:
                if variant.fitness is not None:
                    assert variant.program is not None, (name, seed)
                if variant.program is not None:
                    assert variant.program == apply_edits(
                        bug.program, variant.edits)[0], (name, seed)
                    # every variant with no arm but the original is a
                    # crossover child
                    spliced += variant.born_arm is None \
                        and variant is not made[0]
    assert spliced > 500
    assert set(calls) == {1}


def test_correct_program_raises_nothing_to_repair(bugs):
    bug = bugs["mid3"]
    with pytest.raises(NothingToRepair):
        run_repair(bug.fixed, bug.repair_suite, ConfigSpec("uniform"),
                   seed=1, population_size=40, generations=10)


# ------------------------------------------------------- evaluation budget

def test_evaluation_bound_holds(bugs):
    bug = bugs["guard-1"]          # no coarse fix exists: runs to exhaustion
    out = repair(bug, seed=5, population_size=10, generations=4)
    assert not out.patched
    assert out.total_evaluations <= 10 * (4 + 1) + 10


def test_memoized_duplicates_do_not_recount(bugs, monkeypatch):
    bug = bugs["guard-1"]
    weighted = [sid for sid, w in __import__("patchbandit.toylang",
                fromlist=["localize"]).localize(
                    bug.program, bug.repair_suite).weights.items() if w > 0]
    fixed_edit = Edit("stmt_delete", weighted[0], (), ())

    def same_edit_every_time(operator, program, weights, rng):
        return fixed_edit

    monkeypatch.setattr(engine, "mint_edit", same_edit_every_time)
    monkeypatch.setattr(engine, "CROSSOVER_RATE", 0.0)
    gens = 5
    out = repair(bug, seed=2, population_size=8, generations=gens)
    # every individual shares one lineage; without crossover the distinct
    # edit lists are exactly the repeat counts 1..generations+1
    assert out.total_evaluations == gens + 1


def test_first_evaluation_claims_the_variant_index(bugs, monkeypatch):
    bug = bugs["reset-1"]
    # reset-1's unique fix is deleting its spurious accumulator reset
    from patchbandit.toylang import enumerate_edits, localize, passes_all
    loc = localize(bug.program, bug.repair_suite)
    fixing = [e for e in enumerate_edits(bug.program, loc.weights)
              if e.op == "stmt_delete"
              and passes_all(apply_edits(bug.program, [e])[0],
                             bug.repair_suite)]
    assert len(fixing) == 1

    monkeypatch.setattr(engine, "mint_edit", lambda *a: fixing[0])
    out = repair(bug, seed=9, population_size=6, generations=2)
    # forty identical winners collapse to a single evaluation
    assert out.patched
    assert out.total_evaluations == 1
    assert out.variants_evaluated_at_patch == 1


# -------------------------------------------------------- credit discipline

@pytest.fixture
def spies(monkeypatch):
    """The Controllers the search makes, each recording (arm, reward) for
    every credit it takes."""
    made = []

    class Spy(Controller):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.events = []
            made.append(self)

        def credit(self, arm, fitness, parent_fitness=None):
            reward = compute_reward(fitness, parent_fitness,
                                    self.config.reward)
            self.events.append((arm, reward))
            super().credit(arm, fitness, parent_fitness)

    monkeypatch.setattr(engine, "Controller", Spy)
    return made


@pytest.mark.parametrize("cadence", ["generation", "mutation"])
def test_one_credit_event_per_mutation_slot(bugs, spies, cadence):
    # unpatchable under arms3, so the loop runs all generations: every
    # mutation slot ends in exactly one credit (reward or inapplicable 0)
    bug = bugs["guard-1"]
    pop, gens = 8, 4
    out = repair(bug, seed=13, population_size=pop, generations=gens,
                 spec=ConfigSpec(policy="pm", credit="avg", cadence=cadence))
    assert not out.patched
    (spy,) = spies
    assert len(spy.events) == pop * (gens + 1)
    assert sum(arm["plays"] for arm in out.aos_snapshot) == len(spy.events)
    # a raw reward is the variant's fitness
    assert all(0.0 <= reward <= 1.0 for _, reward in spy.events)


def test_snapshot_reflects_all_credits(bugs, spies):
    bug = bugs["guard-1"]
    out = repair(bug, seed=4, population_size=6, generations=3,
                 spec=ConfigSpec(policy="egreedy", credit="erwa",
                                 reward="relative"))
    events = spies[0].events
    assert len(events) == 6 * 4
    assert sum(arm["plays"] for arm in out.aos_snapshot) == len(events)
    assert all(reward >= 0.0 for _, reward in events)


@pytest.mark.parametrize("spec", [
    ConfigSpec("uniform"), ConfigSpec("pm", cadence="generation"),
    ConfigSpec("ap", cadence="mutation"),
], ids=["uniform", "generation", "mutation"])
def test_the_loop_flushes_every_selector_per_generation_and_at_the_end(
        bugs, monkeypatch, spec):
    # the search makes the same calls whatever the selector or its cadence
    flushes = []

    def counting(selector_class):
        class Counted(selector_class):
            def flush_generation(self):
                flushes.append(selector_class)
                super().flush_generation()
        return Counted

    monkeypatch.setattr(engine, "Controller", counting(Controller))
    monkeypatch.setattr(engine, "UniformSelector", counting(UniformSelector))
    gens = 4
    out = repair(bugs["guard-1"], seed=13, spec=spec, population_size=8,
                 generations=gens)
    assert not out.patched
    selector = UniformSelector if spec.is_uniform else Controller
    assert flushes == [selector] * (gens + 1)


# -------------------------------------------------- uniform draw frequency

def test_uniform_baseline_draws_each_coarse_operator_evenly(bugs, monkeypatch):
    seen = []

    def refuse(operator, program, weights, rng):
        seen.append(operator)
        raise InapplicableOperator(operator)

    monkeypatch.setattr(engine, "mint_edit", refuse)
    bug = bugs["mid3"]
    out = repair(bug, seed=123, population_size=100, generations=99)
    assert not out.patched and out.total_evaluations == 0
    n = len(seen)
    assert n == 100 * 100
    sigma = math.sqrt((1 / 3) * (2 / 3) / n)
    for op in COARSE_OPERATORS:
        assert abs(seen.count(op) / n - 1 / 3) <= 3 * sigma


def test_adaptive_selection_covers_scheme_arms(bugs):
    bug = bugs["sched-1"]
    out = repair(bug, seed=21,
                 spec=ConfigSpec(policy="pm", credit="avg", arms="arms7"))
    assert len(out.aos_snapshot) == 7
    played = [arm["plays"] for arm in out.aos_snapshot]
    assert sum(played) > 0


# ------------------------------------------------------------ search shape

def test_crossover_free_run_still_patches(bugs, monkeypatch):
    bug = bugs["dupadd-1"]
    monkeypatch.setattr(engine, "CROSSOVER_RATE", 0.0)
    out = repair(bug, seed=17)
    assert out.patched


def test_outcome_shape_for_unpatched_run(bugs):
    bug = bugs["guard-1"]
    out = repair(bug, seed=1, population_size=4, generations=2)
    assert out == RepairOutcome(False, None, None, out.total_evaluations, None)
    assert out.total_evaluations > 0


def test_patch_variants_record_their_arm(bugs):
    bug = bugs["reset-1"]
    out = repair(bug, seed=29)
    assert out.patched
    # a crossover child carries no arm
    assert out.patch.born_arm in (None,) + tuple(range(len(COARSE_OPERATORS)))
    assert isinstance(out.patch, Variant)
    assert all(isinstance(e, Edit) for e in out.patch.edits)
