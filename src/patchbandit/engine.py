"""Genetic-programming repair loop with bandit-driven operator choice.

One repair attempt is a classic generational GP search over edit lists:
binary tournament selection, one-point crossover on the lists (each pair
of parents crosses over with probability CROSSOVER_RATE), then exactly
one fresh mutation per individual per generation.  run_repair is the
only entry: a selector, an aos.Controller over the scheme's arms or, for
the uniform baseline, an aos.UniformSelector over the scheme's operators,
picks the arm of every mint, is credited with the child's fitness and its
parent's, and is flushed at the end of every generation, with no branch
on which.  An arm is one operator or a group of them; _draw turns the
picked arm into the operator to mint, drawing a group's member uniformly.

ConfigSpec is the one selection config, from a plan line or the command
line to the Controller: it checks every name and fills in every default
when it is built, and nothing downstream checks them again.  run_repair
takes its other settings as they are: experiment.ExperimentPlan owns them.

Every variant is an edit list against the original program, and every
program is built one edit at a time by extend(prefix, edit), which calls
apply_edits on that one edit only when its step memo has no entry for the
pair.  A mutation child extends its parent's program by its new edit; a
crossover child folds extend over its list from the original, so each
prefix it shares with a program built in this or the last generation
costs nothing.  The memo is exact: applying a list is a left fold of
applying one edit, apply_edit reads nothing of a program but its value,
and programs never change.  An entry that goes a whole generation
unused is dropped, so none outlives two generations.
"""

import random
from operator import attrgetter
from typing import NamedTuple

from .aos import (CADENCES, CREDITS, DEFAULT_ALPHA, POLICIES, REWARDS,
                  ConfigError, Controller, UniformSelector)
from .toylang import (ALL_OPERATORS, COARSE_OPERATORS, InapplicableOperator,
                      OPERATOR_GROUPS, apply_edits, localize, mint_edit,
                      run_tests)

# scheme -> its arms, in arm order.  A coarse arm is a bare operator name;
# a group arm is a tuple of operators and draws one uniformly, even when it
# has a single member (arms7's multi_line arm), so every group pick
# advances the rng the same way.  arms7 keeps one arm per coarse operator
# and folds each template group into a single shared arm.
ARM_SCHEMES = {
    "arms3": COARSE_OPERATORS,
    "arms18": ALL_OPERATORS,
    "arms7": COARSE_OPERATORS + tuple(
        OPERATOR_GROUPS[group]
        for group in ("func_expr", "checks", "init_cast", "multi_line")),
}

# tournament selection and crossover need two individuals to choose from
MIN_POPULATION = 2

# chance that a pair of selected parents is replaced by its two crossover
# children
CROSSOVER_RATE = 0.5

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of text."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(*parts) -> int:
    """Stable child seed from printable parts, reproducible in isolation."""
    return fnv1a_64("\x1f".join(str(part) for part in parts))


# ---------------------------------------------------------------- schemes

def scheme_operators(scheme: str) -> tuple:
    """Operator set reachable under the scheme, in arm order."""
    return tuple(op for arm in ARM_SCHEMES[scheme]
                 for op in ((arm,) if isinstance(arm, str) else arm))


def _draw(members, rng) -> str:
    """The operator of a selected arm; a group arm draws one uniformly."""
    if isinstance(members, str):
        return members
    return members[rng.randrange(len(members))]


# ------------------------------------------------------------------ types

def format_value(value) -> str:
    """A config or metric value as text in keys and summary.csv."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


class CheckedRecord(tuple):
    """Base of a named tuple whose `__new__` checks and normalises its
    values.  The named tuple's own `_make`, which its `_replace` builds
    through, would skip that `__new__`; this one calls it."""

    __slots__ = ()

    @classmethod
    def _make(cls, values):
        return cls(*values)


class _ConfigFields(NamedTuple):
    policy: str                      # "uniform" or a bandit policy
    credit: str = "avg"
    reward: str = "raw"
    cadence: str = "generation"
    arms: str = "arms3"
    alpha: float | None = None


class ConfigSpec(CheckedRecord, _ConfigFields):
    """One row of the selection-config matrix, checked and normalised here.

    The uniform baseline blanks the bandit axes to "-".  avg credit has no
    learning rate; erwa fills in the policy's default.  ``arms`` may name a
    scheme by its arm count ("7") and is kept as the scheme ("arms7").
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        given = super().__new__(cls, *args, **kwargs)
        arms = given.arms if given.arms in ARM_SCHEMES else f"arms{given.arms}"
        if arms not in ARM_SCHEMES:
            raise ConfigError(f"unknown arm scheme {given.arms!r}")
        if given.is_uniform:
            # the baseline has no bandit state; blank the unused axes
            return super().__new__(cls, given.policy, "-", "-", "-", arms,
                                   None)
        for name, known in (("policy", POLICIES), ("credit", CREDITS),
                            ("reward", REWARDS), ("cadence", CADENCES)):
            if getattr(given, name) not in known:
                raise ConfigError(f"unknown {name} {getattr(given, name)!r}")
        alpha = None
        if given.credit == "erwa":
            alpha = (DEFAULT_ALPHA[given.policy] if given.alpha is None
                     else given.alpha)
            if not 0.0 < alpha <= 1.0:
                raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        return super().__new__(cls, given.policy, given.credit, given.reward,
                               given.cadence, arms, alpha)

    @property
    def is_uniform(self) -> bool:
        return self.policy == "uniform"

    def key(self) -> str:
        """Canonical text identity, part of every cell's seed."""
        return "|".join((self.policy, self.credit, self.reward, self.cadence,
                         self.arms, format_value(self.alpha)))


# what Variant equality compares: every field but the program
_RECORD = attrgetter("edits", "born_arm", "parent_fitness", "fitness",
                     "variant_index")


class Variant:
    """One point in the search: an edit list plus its evaluation record.
    Two variants are equal when all but their built programs are."""

    __slots__ = ("edits", "born_arm", "parent_fitness", "fitness",
                 "variant_index", "program")

    def __init__(self, edits, born_arm=None, parent_fitness=None,
                 fitness=None, variant_index=None, program=None):
        self.edits = edits
        self.born_arm = born_arm    # arm to credit; None credits nothing
        self.parent_fitness = parent_fitness
        self.fitness = fitness
        self.variant_index = variant_index
        self.program = program      # built on first use when None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _RECORD(self) == _RECORD(other)


class RepairOutcome(NamedTuple):
    patched: bool
    patch: Variant | None
    total_evaluations: int
    aos_snapshot: tuple | None          # None for the uniform baseline


# ----------------------------------------------------------------- search

def run_repair(program, suite, spec: ConfigSpec, *, seed: int,
               population_size: int, generations: int,
               step_budget: int) -> RepairOutcome:
    """One repair attempt under spec, the baseline or a bandit."""
    if spec.is_uniform:
        # one arm per operator: each pick is one randrange on the aos stream
        arms = scheme_operators(spec.arms)
        selector = UniformSelector(len(arms))
    else:
        arms = ARM_SCHEMES[spec.arms]
        selector = Controller(spec, len(arms))
    aos_rng = random.Random(derive_seed(seed, "aos"))
    located = localize(program, suite, step_budget=step_budget)
    weights = located.weights
    rng = random.Random(derive_seed(seed, "search"))

    base = Variant(edits=(), fitness=located.report.fitness, variant_index=0,
                   program=program)
    # the original's fitness comes from the localize run, not an evaluation
    memo = {(): (base.fitness, 0)}
    evaluated = 0

    # step memo: (id(prefix), edit) -> (prefix, prefix with the edit
    # applied).  An entry holds its prefix, so no other program can take
    # that id while the entry lives.  A hit from the last generation moves
    # to this one; the rest go at the next generation boundary.
    steps, last_steps = {}, {}

    def extend(prefix, edit):
        key = (id(prefix), edit)
        step = steps.get(key) or last_steps.get(key)
        if step is None:
            step = (prefix, apply_edits(prefix, (edit,))[0])
        steps[key] = step
        return step[1]

    def program_of(variant):
        if variant.program is None:
            built = program
            for edit in variant.edits:
                built = extend(built, edit)
            variant.program = built
        return variant.program

    def mutate(individual):
        # inapplicable operator: the arm wasted the slot, fitness 0, and the
        # individual carries forward unchanged
        arm = selector.select_arm(aos_rng)
        operator = _draw(arms[arm], aos_rng)
        parent = program_of(individual)
        try:
            edit = mint_edit(operator, parent, weights, rng)
        except InapplicableOperator:
            selector.credit(arm, 0.0)
            return individual
        return Variant(edits=individual.edits + (edit,), born_arm=arm,
                       parent_fitness=individual.fitness,
                       program=extend(parent, edit))

    def evaluate(batch):
        # first full-pass variant ends the search immediately
        nonlocal evaluated
        for variant in batch:
            if variant.fitness is not None:
                continue
            known = memo.get(variant.edits)
            if known is None:
                report = run_tests(program_of(variant), suite,
                                   step_budget=step_budget)
                evaluated += 1
                memo[variant.edits] = (report.fitness, evaluated)
                variant.fitness = report.fitness
                variant.variant_index = evaluated
            else:
                variant.fitness, variant.variant_index = known
            if variant.born_arm is not None:
                selector.credit(variant.born_arm, variant.fitness,
                                variant.parent_fitness)
            if variant.fitness == 1.0:
                return variant
        return None

    def pick_parent(population):
        # binary tournament: strictly fitter wins, ties keep the first drawn
        first = population[rng.randrange(population_size)]
        second = population[rng.randrange(population_size)]
        return second if second.fitness > first.fitness else first

    population = [mutate(base) for _ in range(population_size)]
    winner = None
    for generation in range(generations + 1):
        winner = evaluate(population)
        if winner is not None or generation == generations:
            break
        selector.flush_generation()
        steps, last_steps = {}, steps
        parents = [pick_parent(population) for _ in range(population_size)]
        for left in range(0, population_size - 1, 2):
            if rng.random() >= CROSSOVER_RATE:
                continue
            first, second = parents[left], parents[left + 1]
            cut_f = rng.randrange(len(first.edits) + 1)
            cut_s = rng.randrange(len(second.edits) + 1)
            parents[left] = Variant(
                edits=first.edits[:cut_f] + second.edits[cut_s:])
            parents[left + 1] = Variant(
                edits=second.edits[:cut_s] + first.edits[cut_f:])
        population = [mutate(individual) for individual in parents]

    selector.flush_generation()
    return RepairOutcome(winner is not None, winner, evaluated,
                         selector.snapshot())
