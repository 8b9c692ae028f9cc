"""Unit oracles for the operator-selection controller.

Expected values are computed independently in each test (literal fractions,
closed forms, or manual replays) rather than read back from the module under
test.
"""

import inspect
import math
import random

import pytest

import patchbandit.aos as aos
from patchbandit.aos import (
    ConfigError,
    Controller,
    UniformSelector,
    compute_reward,
)
from patchbandit.engine import ConfigSpec

from bandit_env import plays, probabilities, qualities


def make(policy, n_arms, **kw):
    return Controller(ConfigSpec(policy=policy, **kw), n_arms)


# ---------------------------------------------------------------- config


def test_default_alpha_is_policy_specific():
    assert make("pm", 3, credit="erwa").config.alpha == 0.8
    assert make("ucb", 3, credit="erwa").config.alpha == 0.8
    assert make("ap", 3, credit="erwa").config.alpha == 0.2
    assert make("egreedy", 3, credit="erwa").config.alpha == 0.4


def test_default_floor_and_ceiling_follow_arm_count():
    c = make("pm", 4)
    assert c.p_min == pytest.approx(1 / 8, abs=1e-15)
    assert c.p_max == pytest.approx(1 - 3 / 8, abs=1e-15)
    c = make("ap", 2)
    assert c.p_min == pytest.approx(1 / 4, abs=1e-15)
    assert c.p_max == pytest.approx(3 / 4, abs=1e-15)


def test_config_validation_names_offending_field():
    with pytest.raises(ConfigError, match="policy"):
        Controller(ConfigSpec(policy="softmax"), 3)
    with pytest.raises(ConfigError, match="alpha"):
        Controller(ConfigSpec(policy="pm", credit="erwa", alpha=0.0), 3)
    with pytest.raises(ConfigError, match="alpha"):
        Controller(ConfigSpec(policy="pm", credit="erwa", alpha=1.5), 3)
    with pytest.raises(ConfigError, match="credit"):
        Controller(ConfigSpec(policy="pm", credit="window"), 3)
    with pytest.raises(ConfigError, match="cadence"):
        Controller(ConfigSpec(policy="pm", cadence="hourly"), 3)
    with pytest.raises(ConfigError, match="reward"):
        Controller(ConfigSpec(policy="pm", reward="ranked"), 3)


def test_initial_state_is_optimistic_and_uniform():
    c = make("pm", 4)
    assert qualities(c) == [1.0, 1.0, 1.0, 1.0]
    assert plays(c) == [0, 0, 0, 0]
    assert probabilities(c) == [0.25, 0.25, 0.25, 0.25]


# ---------------------------------------------------------------- rewards


def test_reward_raw_passthrough_and_clamp():
    assert compute_reward(0.8, 0.5, "raw") == 0.8
    assert compute_reward(0.0, None, "raw") == 0.0
    assert compute_reward(-0.25, None, "raw") == 0.0  # clamped at zero


def test_reward_relative_is_child_over_parent():
    assert compute_reward(0.8, 0.5, "relative") == pytest.approx(1.6, abs=1e-12)
    assert compute_reward(0.3, 0.6, "relative") == pytest.approx(0.5, abs=1e-12)


def test_reward_relative_falls_back_on_zero_or_absent_parent():
    assert compute_reward(0.7, 0.0, "relative") == 0.7
    assert compute_reward(0.7, None, "relative") == 0.7


def test_reward_relative_is_uncapped_above_one():
    assert compute_reward(1.0, 0.1, "relative") == pytest.approx(10.0, abs=1e-12)


# ---------------------------------------------------------------- credit


def test_average_quality_is_arithmetic_mean():
    c = make("pm", 2, credit="avg", cadence="mutation")
    rewards = [0.25, 0.5, 1.0, 0.0]
    for r in rewards:
        c.credit(0, r)
    assert qualities(c)[0] == pytest.approx(sum(rewards) / len(rewards), abs=1e-12)
    assert qualities(c)[1] == 1.0  # untouched arm keeps optimistic start
    assert plays(c) == [4, 0]


def test_erwa_quality_matches_closed_form():
    alpha = 0.3
    c = make("pm", 2, credit="erwa", alpha=alpha, cadence="mutation")
    rewards = [0.5, 0.25, 1.0, 0.75, 0.0]
    q = 1.0  # optimistic start
    for r in rewards:
        c.credit(0, r)
        q = q + alpha * (r - q)
    assert qualities(c)[0] == pytest.approx(q, abs=1e-9)


def test_generation_cadence_buffers_until_flush():
    c = make("pm", 3, credit="avg", cadence="generation")
    c.credit(0, 1.0)
    c.credit(1, 0.5)
    assert qualities(c) == [1.0, 1.0, 1.0]
    assert plays(c) == [0, 0, 0]
    assert probabilities(c) == pytest.approx([1 / 3] * 3)
    c.flush_generation()
    assert qualities(c)[0] == 1.0  # mean([1.0])
    assert qualities(c)[1] == 0.5
    assert plays(c) == [1, 1, 0]


def test_flush_equals_manual_replay():
    seq = [(0, 0.2), (2, 0.9), (0, 0.7), (1, 0.4), (2, 0.9)]
    batched = make("pm", 3, credit="erwa", alpha=0.5, cadence="generation")
    for arm, r in seq:
        batched.credit(arm, r)
    batched.flush_generation()

    replay = make("pm", 3, credit="erwa", alpha=0.5, cadence="mutation")
    for arm, r in seq:
        replay.credit(arm, r)

    assert qualities(batched) == pytest.approx(qualities(replay), abs=1e-12)
    assert probabilities(batched) == pytest.approx(probabilities(replay), abs=1e-12)
    assert plays(batched) == plays(replay)


@pytest.mark.parametrize("policy", ["pm", "ap"])
def test_mutation_cadence_applies_immediately_and_ignores_flush(policy):
    # the search flushes every selector at each generation boundary; under
    # mutation cadence that changes nothing, not even ap's pursuit step
    c = make(policy, 2, credit="avg", cadence="mutation")
    c.credit(0, 0.0)
    assert qualities(c)[0] == 0.0
    assert probabilities(c)[0] != 0.5  # recomputed on the spot
    before = c.snapshot()
    c.flush_generation()
    c.flush_generation()
    assert c.snapshot() == before


def test_relative_credit_divides_by_the_parent_fitness():
    c = make("pm", 2, credit="avg", reward="relative", cadence="mutation")
    c.credit(0, 0.8, 0.5)
    assert qualities(c)[0] == pytest.approx(1.6, abs=1e-12)


@pytest.mark.parametrize("reward", ["raw", "relative"])
def test_a_credit_without_parent_is_the_clamped_fitness(reward):
    c = make("pm", 3, credit="avg", reward=reward, cadence="mutation")
    c.credit(0, 0.7)
    c.credit(1, -0.25)
    c.credit(2, 0.7, 0.0)  # a parent that scored zero counts as none
    assert qualities(c) == [0.7, 0.0, 0.7]


def test_credit_rejects_unknown_arm():
    c = make("pm", 3, cadence="mutation")
    with pytest.raises(IndexError):
        c.credit(3, 1.0)
    with pytest.raises(IndexError):
        c.credit(-1, 1.0)


def test_plays_increment_on_credit_not_select():
    c = make("pm", 3, cadence="mutation")
    rng = random.Random(7)
    for _ in range(10):
        c.select_arm(rng)
    assert plays(c) == [0, 0, 0]


# --------------------------------------------------- probability matching


def test_pm_probabilities_match_hand_fractions():
    # qualities (1.0, 0.5, 0.5) with floor 1/6:
    #   P_0 = 1/6 + (1 - 3/6) * (1.0 / 2.0) = 5/12
    #   P_1 = P_2 = 1/6 + (1/2) * (0.25)    = 7/24
    c = make("pm", 3, credit="avg", cadence="generation")
    c.credit(0, 1.0)
    c.credit(1, 0.5)
    c.credit(2, 0.5)
    c.flush_generation()
    assert probabilities(c)[0] == pytest.approx(5 / 12, abs=1e-12)
    assert probabilities(c)[1] == pytest.approx(7 / 24, abs=1e-12)
    assert probabilities(c)[2] == pytest.approx(7 / 24, abs=1e-12)
    assert sum(probabilities(c)) == pytest.approx(1.0, abs=1e-9)


def test_pm_zero_mass_falls_back_to_uniform():
    c = make("pm", 4, credit="avg", cadence="generation")
    for arm in range(4):
        c.credit(arm, 0.0)
    c.flush_generation()
    assert probabilities(c) == pytest.approx([0.25] * 4, abs=1e-12)


# -------------------------------------------------------- adaptive pursuit


def test_ap_single_step_pursues_the_max_arm():
    # N=3: floor 1/6, ceiling 2/3, beta 0.8, start uniform (1/3 each).
    # Arm 1 becomes the unique max:
    #   P_1 = 1/3 + 0.8 * (2/3 - 1/3) = 0.6
    #   P_0 = P_2 = 1/3 + 0.8 * (1/6 - 1/3) = 0.2
    c = make("ap", 3, credit="avg", cadence="mutation")
    c.credit(1, 2.0)
    assert probabilities(c)[1] == pytest.approx(0.6, abs=1e-12)
    assert probabilities(c)[0] == pytest.approx(0.2, abs=1e-12)
    assert probabilities(c)[2] == pytest.approx(0.2, abs=1e-12)


def test_ap_tie_pursues_lowest_index():
    c = make("ap", 3, credit="avg", cadence="mutation")
    c.credit(2, 1.0)  # qualities all 1.0: tie -> arm 0 pursued
    assert probabilities(c)[0] > probabilities(c)[1]
    assert probabilities(c)[1] == probabilities(c)[2]


def test_ap_converges_geometrically_to_ceiling():
    c = make("ap", 2, credit="avg", cadence="mutation")
    for _ in range(50):
        c.credit(0, 1.0)
        c.credit(1, 0.0)
    # gap shrinks by (1 - beta) per recompute: far below 1e-3 after 100
    assert abs(probabilities(c)[0] - c.p_max) < 1e-3
    assert abs(probabilities(c)[1] - c.p_min) < 1e-3
    assert sum(probabilities(c)) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ selection


def manual_cumsum_pick(probs, u):
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def test_pm_selection_is_cumulative_sum_inversion():
    c = make("pm", 3, credit="avg", cadence="generation")
    c.credit(0, 1.0)
    c.credit(1, 0.5)
    c.credit(2, 0.5)
    c.flush_generation()
    rng = random.Random(42)
    twin = random.Random(42)
    for _ in range(200):
        arm = c.select_arm(rng)
        assert arm == manual_cumsum_pick(probabilities(c), twin.random())


def test_egreedy_exploits_argmax_and_explores_uniformly():
    c = make("egreedy", 5, credit="avg", cadence="mutation")
    # make arm 2 the unique best
    for arm, r in [(0, 0.1), (1, 0.2), (2, 0.9), (3, 0.3), (4, 0.1)]:
        c.credit(arm, r)
    rng = random.Random(11)
    n = 20000
    counts = [0] * 5
    for _ in range(n):
        counts[c.select_arm(rng)] += 1
    # expected best rate = 1 - eps + eps/5 = 0.84
    assert counts[2] / n == pytest.approx(0.84, abs=0.02)
    for arm in (0, 1, 3, 4):
        assert counts[arm] / n == pytest.approx(0.04, abs=0.01)


def test_egreedy_greedy_tie_breaks_to_lowest_index(monkeypatch):
    monkeypatch.setattr(aos, "EPSILON", 0.0)
    c = make("egreedy", 3, credit="avg", cadence="mutation")
    rng = random.Random(1)
    assert all(c.select_arm(rng) == 0 for _ in range(20))


def test_ucb_plays_every_arm_once_before_scoring():
    c = make("ucb", 4, credit="avg", cadence="mutation")
    rng = random.Random(3)
    seen = []
    for _ in range(4):
        arm = c.select_arm(rng)
        seen.append(arm)
        c.credit(arm, 0.5)
    assert seen == [0, 1, 2, 3]


def test_ucb_score_matches_hand_formula():
    # qualities: arm0 0.5 with 1 play, arm1 0.1 with 3 plays, total 4.
    #   score_0 = 0.5 + 10 * sqrt(ln 4) / 1
    #   score_1 = 0.1 + 10 * sqrt(ln 4) / 3
    c = make("ucb", 2, credit="avg", cadence="mutation")
    c.credit(0, 0.5)
    for _ in range(3):
        c.credit(1, 0.1)
    s0 = 0.5 + 10.0 * math.sqrt(math.log(4)) / 1
    s1 = 0.1 + 10.0 * math.sqrt(math.log(4)) / 3
    assert s0 > s1
    rng = random.Random(9)
    assert c.select_arm(rng) == 0
    # the division by play count sits outside the square root: with the
    # conventional sqrt(ln t / n) form arm order would be much closer
    assert s0 == pytest.approx(12.274100225154747, abs=1e-9)


def test_snapshot_exposes_quality_plays_probability():
    c = make("pm", 2, credit="avg", cadence="mutation")
    c.credit(0, 0.5)
    snap = c.snapshot()
    assert len(snap) == 2
    assert snap[0]["arm"] == 0
    assert snap[0]["quality"] == 0.5
    assert snap[0]["plays"] == 1
    assert snap[0]["probability"] == pytest.approx(probabilities(c)[0])
    assert set(snap[1]) == {"arm", "quality", "plays", "probability"}


def test_uniform_selector_is_one_randrange_per_pick_and_learns_nothing():
    # the baseline's bytes rest on this stream: one draw per pick, no other
    selector = UniformSelector(5)
    rng, reference = random.Random(3), random.Random(3)
    for arm in range(5):
        selector.credit(arm, 1.0, 0.5)
        selector.flush_generation()
        assert selector.select_arm(rng) == reference.randrange(5)
    assert rng.getstate() == reference.getstate()
    assert selector.snapshot() is None


def test_both_selectors_answer_the_same_four_calls():
    # the search makes these calls on every selector, with no branch
    for name in ("select_arm", "credit", "flush_generation", "snapshot"):
        assert inspect.signature(getattr(UniformSelector, name)).parameters \
            == inspect.signature(getattr(Controller, name)).parameters, name
