"""Property tests for the selection controller's distribution invariants."""

import math
import random

from hypothesis import given, settings, strategies as st

from patchbandit.aos import Controller
from patchbandit.engine import ConfigSpec

from bandit_env import plays, probabilities, qualities

rewards_st = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.floats(min_value=0.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60,
)


def run_sequence(policy, credit, seq, cadence="mutation", flush_every=7):
    c = Controller(ConfigSpec(policy=policy, credit=credit, cadence=cadence), 4)
    for i, (arm, r) in enumerate(seq):
        c.credit(arm, r)
        if cadence == "generation" and (i + 1) % flush_every == 0:
            c.flush_generation()
    if cadence == "generation":
        c.flush_generation()
    return c


@settings(max_examples=150, deadline=None)
@given(rewards_st, st.sampled_from(["pm", "ap"]), st.sampled_from(["avg", "erwa"]))
def test_probability_table_sums_to_one_with_floor(seq, policy, credit):
    c = run_sequence(policy, credit, seq)
    assert abs(sum(probabilities(c)) - 1.0) < 1e-9
    for p in probabilities(c):
        assert p >= c.p_min - 1e-12
        assert p <= c.p_max + 1e-12


@settings(max_examples=150, deadline=None)
@given(rewards_st, st.sampled_from(["pm", "ap"]))
def test_generation_cadence_ends_at_same_invariants(seq, policy):
    c = run_sequence(policy, "avg", seq, cadence="generation")
    assert abs(sum(probabilities(c)) - 1.0) < 1e-9
    assert all(p >= c.p_min - 1e-12 for p in probabilities(c))


@settings(max_examples=150, deadline=None)
@given(rewards_st)
def test_average_credit_is_brute_force_mean(seq):
    c = run_sequence("pm", "avg", seq)
    per_arm = {a: [] for a in range(4)}
    for arm, r in seq:
        per_arm[arm].append(r)
    for arm in range(4):
        expect = (math.fsum(per_arm[arm]) / len(per_arm[arm])
                  if per_arm[arm] else 1.0)
        assert abs(qualities(c)[arm] - expect) < 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
                          allow_infinity=False), min_size=1, max_size=80))
def test_average_credit_is_bit_identical_to_fsum_of_history(rewards):
    # the running sum is exact, so every prefix mean rounds like fsum's
    c = Controller(ConfigSpec(policy="pm", credit="avg", cadence="mutation"), 1)
    for n, reward in enumerate(rewards, start=1):
        c.credit(0, reward)
        assert qualities(c)[0] == math.fsum(rewards[:n]) / n


@settings(max_examples=150, deadline=None)
@given(rewards_st, st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
def test_erwa_credit_matches_closed_form(seq, alpha):
    c = Controller(
        ConfigSpec(policy="pm", credit="erwa", alpha=alpha, cadence="mutation"), 4)
    for arm, r in seq:
        c.credit(arm, r)
    for arm in range(4):
        q = 1.0
        for a, r in seq:
            if a == arm:
                q += alpha * (r - q)
        assert abs(qualities(c)[arm] - q) < 1e-9


@settings(max_examples=100, deadline=None)
@given(rewards_st, st.sampled_from([0.5, 2.0, 10.0]))
def test_pm_probabilities_invariant_under_reward_scaling(seq, scale):
    # scaling is meaningful only once every arm has shed its optimistic start
    seq = [(arm, r) for arm, r in seq] + [(a, 0.5) for a in range(4)]
    base = run_sequence("pm", "avg", seq)
    scaled = run_sequence("pm", "avg", [(a, r * scale) for a, r in seq])
    for p, q in zip(probabilities(base), probabilities(scaled)):
        assert abs(p - q) < 1e-9


@settings(max_examples=60, deadline=None)
@given(rewards_st, st.integers(min_value=0, max_value=2 ** 31), st.sampled_from(["pm", "ap", "egreedy", "ucb"]))
def test_selection_is_deterministic_given_seed(seq, seed, policy):
    a = run_sequence(policy, "avg", seq)
    b = run_sequence(policy, "avg", seq)
    ra, rb = random.Random(seed), random.Random(seed)
    assert [a.select_arm(ra) for _ in range(25)] == [b.select_arm(rb) for _ in range(25)]


@settings(max_examples=100, deadline=None)
@given(rewards_st)
def test_plays_count_credited_rewards_exactly(seq):
    c = run_sequence("pm", "avg", seq, cadence="generation")
    per_arm = [0, 0, 0, 0]
    for arm, _ in seq:
        per_arm[arm] += 1
    assert plays(c) == per_arm
