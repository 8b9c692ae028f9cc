"""The two roulette draws against the loops they replaced.

A PM/AP Controller draws an arm from its probability table, and mint_edit
draws a target with probability proportional to its suspiciousness
weight.  Both now take the first running sum above the draw by bisection;
the reference loops below are the ones they replaced, kept as written,
with the total that mint_edit took from the builtin `sum` added left to
right, as Python 3.11's `sum` adds floats.
"""

from hypothesis import given, settings, strategies as st

from patchbandit.aos import Controller
from patchbandit.engine import ConfigSpec
from patchbandit.toylang.mutate import mint_edit
from patchbandit.toylang.syntax import parse_program, program_statements


class FixedDraw:
    """An rng whose random() returns one value; randrange always 0."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def randrange(self, n):
        return 0


def reference_select_by_probability(probabilities, u):
    acc = 0.0
    for i, p in enumerate(probabilities):
        acc += p
        if u < acc:
            return i
    return len(probabilities) - 1


def reference_target(weights, u):
    total = 0.0
    for w in weights:
        total += w
    pick = u * total
    acc = 0.0
    chosen = len(weights) - 1
    for i, w in enumerate(weights):
        acc += w
        if pick < acc:
            chosen = i
            break
    return chosen


# random() lies in [0, 1); 1.0 stands for a scaled draw that rounds up to
# the total, which both draws must map to the last index
draws = st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                  st.just(1.0))
probability_tables = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=18)
weight_lists = st.lists(
    st.one_of(st.sampled_from([1.0, 0.1]),
              st.floats(min_value=0.0, max_value=1e300, exclude_min=True)),
    min_size=1, max_size=12)


def _controller(table):
    controller = Controller(ConfigSpec("pm"), len(table))
    for arm, probability in zip(controller.arms, table):
        arm.probability = probability
    return controller


@settings(max_examples=500, deadline=None)
@given(probability_tables, draws)
def test_arm_draw_matches_the_loop_it_replaced(table, u):
    controller = _controller(table)
    assert controller.select_arm(FixedDraw(u)) == \
        reference_select_by_probability(table, u)


@settings(max_examples=300, deadline=None)
@given(weight_lists, draws)
def test_target_draw_matches_the_loop_it_replaced(weights, u):
    # stmt_delete has one site on every statement, so the target is the
    # whole draw
    program = parse_program(
        "fn f(x) {\n" + "x = 0;\n" * len(weights) + "}")
    sids = [stmt.sid for _, stmt in program_statements(program)]
    edit = mint_edit("stmt_delete", program, dict(zip(sids, weights)),
                     FixedDraw(u))
    assert edit.target == sids[reference_target(weights, u)]


def test_a_draw_at_the_total_takes_the_last_index():
    assert _controller([0.5, 0.25, 0.0]).select_arm(FixedDraw(0.9)) == 2
    assert _controller([0.5, 0.5]).select_arm(FixedDraw(1.0)) == 1
    program = parse_program("fn f(x) {\nx = 0;\nx = 0;\n}")
    sids = [stmt.sid for _, stmt in program_statements(program)]
    edit = mint_edit("stmt_delete", program, {sids[0]: 0.1, sids[1]: 0.2},
                     FixedDraw(1.0))
    assert edit.target == sids[1]
