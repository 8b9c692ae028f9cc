"""Adaptive operator selection: credit assignment and selection policies.

A selector answers the four calls the search makes on it: select_arm(rng)
picks a mutation's arm, credit(arm, fitness, parent_fitness) reports the
child, flush_generation() ends a generation and snapshot() reports the
arms.  UniformSelector, the baseline, learns nothing.  A Controller keeps
per-arm statistics (quality, play count, selection probability) and
updates them from the rewards it makes of each credited fitness.  Four
selection policies are supported:

* ``pm``       probability matching over a floor p_min
* ``ap``       pursuit of the current best arm toward a ceiling p_max
* ``egreedy``  epsilon-uniform exploration around the argmax arm
* ``ucb``      quality plus an exploration bonus E * sqrt(ln t) / n

and two credit assigners: ``avg`` (arithmetic mean of all rewards seen) and
``erwa`` (exponential recency-weighted average, Q += alpha * (r - Q)).

Rewards are the ``raw`` fitness or that ``relative`` to the parent's, and
apply either at once (``mutation`` cadence; flush_generation does nothing)
or as a batch at flush_generation (``generation`` cadence).

A Controller reads its policy, credit, reward, cadence and alpha from an
engine.ConfigSpec, which checks every name when it is built.  The rest is
fixed: p_min = 1 / (2N) and p_max = 1 - (N - 1) p_min for N arms, and the
module constants BETA, EPSILON and EXPLORE (E).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, NamedTuple

CREDITS = ("avg", "erwa")
REWARDS = ("raw", "relative")
CADENCES = ("generation", "mutation")

# fixed policy constants: pursuit step, exploration rate, UCB bonus weight
BETA = 0.8
EPSILON = 0.2
EXPLORE = 10.0

# every finite float is a whole number of 2**-1074, so an int sum of rewards
# in these units is exact, and int / int rounds it correctly, as fsum does
_UNITS = 1 << 1074


class ConfigError(ValueError):
    """A selection or search configuration field is out of range or unknown."""


def compute_reward(raw_fitness: float, parent_fitness: float | None,
                   reward_type: str) -> float:
    """Scalar reward for one credit event.

    ``relative`` divides the fitness by the parent's, falling back to the
    raw value when the parent scored zero or is unknown; any other type
    (``raw``) passes the fitness through.  Rewards are clamped below at zero
    and uncapped above.
    """
    raw_fitness = max(0.0, raw_fitness)
    if reward_type == "relative" and parent_fitness:
        return raw_fitness / parent_fitness
    return raw_fitness


class ArmStats:
    __slots__ = ("quality", "plays", "probability", "reward_sum")

    def __init__(self, probability: float):
        self.quality = 1.0          # optimistic start
        self.plays = 0              # rewards credited, not selections
        self.probability = probability
        self.reward_sum = 0         # exact, in units of 2**-1074 (_UNITS)


class Controller:
    """Per-arm statistics plus one selection policy.

    select_arm never mutates state; plays advance when rewards are credited.
    Under generation cadence rewards accumulate in a pending buffer and take
    effect, in arrival order, at flush_generation; under mutation cadence
    they take effect at once and flush_generation does nothing.
    """

    def __init__(self, config, n_arms: int):
        # config: an engine.ConfigSpec, validated and normalised on its own
        self.config = config
        self.n_arms = n_arms
        self.p_min = 1.0 / (2 * n_arms)
        self.p_max = 1.0 - (n_arms - 1) * self.p_min
        self.arms = [ArmStats(1.0 / n_arms) for _ in range(n_arms)]
        self._pending: list[tuple[int, float]] = []

    # ------------------------------------------------------------ state

    def snapshot(self) -> tuple:
        return tuple({"arm": i, "quality": a.quality, "plays": a.plays,
                      "probability": a.probability}
                     for i, a in enumerate(self.arms))

    # ----------------------------------------------------------- credit

    def credit(self, arm: int, fitness: float,
               parent_fitness: float | None = None) -> None:
        if not 0 <= arm < self.n_arms:
            raise IndexError(f"arm {arm} out of range 0..{self.n_arms - 1}")
        reward = compute_reward(fitness, parent_fitness, self.config.reward)
        if self.config.cadence == "generation":
            self._pending.append((arm, reward))
            return
        self._apply(arm, reward)
        self.recompute_probabilities()

    def flush_generation(self) -> None:
        if self.config.cadence != "generation":
            return                  # mutation cadence applied each credit
        for arm, reward in self._pending:
            self._apply(arm, reward)
        self._pending.clear()
        self.recompute_probabilities()

    def _apply(self, arm: int, reward: float) -> None:
        stats = self.arms[arm]
        stats.plays += 1
        if self.config.credit == "avg":
            numerator, denominator = reward.as_integer_ratio()
            stats.reward_sum += numerator * (_UNITS // denominator)
            stats.quality = stats.reward_sum / _UNITS / stats.plays
        else:  # erwa
            stats.quality += self.config.alpha * (reward - stats.quality)

    # ------------------------------------------- policies (see _POLICIES)

    def select_arm(self, rng) -> int:
        return _POLICIES[self.config.policy].select(self, rng)

    def recompute_probabilities(self) -> None:
        _POLICIES[self.config.policy].recompute(self)

    def _argmax_quality(self) -> int:
        best, best_q = 0, self.arms[0].quality
        for i in range(1, self.n_arms):
            if self.arms[i].quality > best_q:
                best, best_q = i, self.arms[i].quality
        return best

    def _select_by_probability(self, rng) -> int:
        # the first arm whose running sum exceeds the draw; the last if none
        sums = list(accumulate(a.probability for a in self.arms))
        return min(bisect_right(sums, rng.random()), self.n_arms - 1)

    def _select_egreedy(self, rng) -> int:
        if rng.random() < EPSILON:
            return rng.randrange(self.n_arms)
        return self._argmax_quality()

    def _select_ucb(self, rng) -> int:
        # play every arm once, then maximise quality + bonus
        for i, a in enumerate(self.arms):
            if a.plays == 0:
                return i
        total = sum(a.plays for a in self.arms)
        log_total = math.log(total)
        best, best_score = 0, -math.inf
        for i, a in enumerate(self.arms):
            score = a.quality + EXPLORE * math.sqrt(log_total) / a.plays
            if score > best_score:
                best, best_score = i, score
        return best

    def _match_probabilities(self) -> None:
        total = math.fsum(a.quality for a in self.arms)
        if total <= 0.0:
            for a in self.arms:
                a.probability = 1.0 / self.n_arms
            return
        span = 1.0 - self.n_arms * self.p_min
        for a in self.arms:
            a.probability = self.p_min + span * (a.quality / total)

    def _pursue_best(self) -> None:
        best = self._argmax_quality()
        for i, a in enumerate(self.arms):
            target = self.p_max if i == best else self.p_min
            a.probability += BETA * (target - a.probability)

    def _no_table(self) -> None:
        """egreedy and ucb keep no probability table."""


class _Policy(NamedTuple):
    select: Callable        # picks an arm; changes no state
    recompute: Callable     # refreshes the probability table after credits
    alpha: float            # default learning rate (hyperparameter sweep)


_POLICIES = {
    "pm": _Policy(Controller._select_by_probability,
                  Controller._match_probabilities, 0.8),
    "ap": _Policy(Controller._select_by_probability,
                  Controller._pursue_best, 0.2),
    "egreedy": _Policy(Controller._select_egreedy, Controller._no_table, 0.4),
    "ucb": _Policy(Controller._select_ucb, Controller._no_table, 0.8),
}

POLICIES = tuple(_POLICIES)
DEFAULT_ALPHA = {name: policy.alpha for name, policy in _POLICIES.items()}


class UniformSelector:
    """The baseline: answers a Controller's four calls and learns nothing."""

    def __init__(self, n_arms: int):
        self.n_arms = n_arms

    def select_arm(self, rng) -> int:
        return rng.randrange(self.n_arms)

    def credit(self, arm: int, fitness: float,
               parent_fitness: float | None = None) -> None:
        pass

    def flush_generation(self) -> None:
        pass

    def snapshot(self) -> None:
        return None
