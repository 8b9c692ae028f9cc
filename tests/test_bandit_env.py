"""Tests for the synthetic bandit environment."""

import random

import pytest

from patchbandit.aos import Controller
from patchbandit.engine import ConfigSpec

from bandit_env import BanditSpec, plays, probabilities, run_episode


def test_mean_at_applies_drift_with_clamping():
    spec = BanditSpec(arm_means=[0.5, 0.2], drift=[0.01, -0.01])
    assert spec.mean_at(0, 0) == 0.5
    assert spec.mean_at(0, 10) == pytest.approx(0.6)
    assert spec.mean_at(0, 100) == 1.0  # clamped above
    assert spec.mean_at(1, 100) == 0.0  # clamped below


def test_mean_at_swaps_best_arm_at_step():
    spec = BanditSpec(arm_means=[0.9, 0.1], swap_at=100)
    assert spec.mean_at(0, 99) == 0.9
    assert spec.mean_at(0, 100) == 0.1
    assert spec.mean_at(1, 100) == 0.9


def test_bernoulli_pull_is_binary_with_matching_rate():
    spec = BanditSpec(arm_means=[0.7])
    rng = random.Random(5)
    pulls = [spec.pull(0, step, rng) for step in range(20000)]
    assert set(pulls) <= {0.0, 1.0}
    assert sum(pulls) / len(pulls) == pytest.approx(0.7, abs=0.02)


def test_jitter_pull_stays_inside_half_width_band():
    spec = BanditSpec(arm_means=[0.5], noise="jitter", width=0.2)
    rng = random.Random(5)
    pulls = [spec.pull(0, step, rng) for step in range(2000)]
    assert all(0.4 <= r <= 0.6 for r in pulls)
    assert sum(pulls) / len(pulls) == pytest.approx(0.5, abs=0.01)


def test_spec_validation():
    with pytest.raises(ValueError, match="arm_means"):
        BanditSpec(arm_means=[])
    with pytest.raises(ValueError, match="arm_means"):
        BanditSpec(arm_means=[1.5])
    with pytest.raises(ValueError, match="noise"):
        BanditSpec(arm_means=[0.5], noise="gauss")
    with pytest.raises(ValueError, match="drift"):
        BanditSpec(arm_means=[0.5, 0.5], drift=[0.1])


def test_episode_is_deterministic_given_seed():
    spec = BanditSpec(arm_means=[0.2, 0.8])
    def run():
        c = Controller(ConfigSpec(policy="pm", cadence="mutation"), 2)
        return run_episode(spec, c, steps=300, rng=random.Random(17))
    a, b = run(), run()
    assert a.selections == b.selections
    assert a.rewards == b.rewards
    assert a.greedy_arms == b.greedy_arms


def test_episode_requires_per_pull_crediting():
    spec = BanditSpec(arm_means=[0.2, 0.8])
    c = Controller(ConfigSpec(policy="pm", cadence="generation"), 2)
    with pytest.raises(ValueError, match="mutation cadence"):
        run_episode(spec, c, steps=10, rng=random.Random(0))


def test_episode_credits_every_step():
    spec = BanditSpec(arm_means=[0.2, 0.8])
    c = Controller(ConfigSpec(policy="egreedy", cadence="mutation"), 2)
    out = run_episode(spec, c, steps=250, rng=random.Random(3))
    assert sum(plays(c)) == 250
    assert len(out.selections) == len(out.rewards) == len(out.greedy_arms) == 250


def test_pursuit_probability_reaches_ceiling_on_easy_instance():
    spec = BanditSpec(arm_means=[0.1, 0.9])
    c = Controller(ConfigSpec(policy="ap", cadence="mutation"), 2)
    run_episode(spec, c, steps=500, rng=random.Random(23))
    assert abs(probabilities(c)[1] - c.p_max) <= 1e-3
