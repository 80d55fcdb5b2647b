"""Monte Carlo driver: determinism, agreement with exact evaluation,
and honest cost accounting on the realized-payoff path."""
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from jss import (
    Belief,
    Instance,
    Journal,
    SearchOrder,
    empirical_survival,
    estimate_value,
    evaluate,
    example_pair,
    simulate_batch,
)
from jss.generators import sample_unconstrained
from jss.sim import EPISODE_LIMIT


@pytest.fixture
def pair():
    return example_pair("1/2")


ORDER = SearchOrder((0, 1))


def test_same_seed_is_bit_identical(pair):
    a = estimate_value(pair, ORDER, 5000, seed=7)
    b = estimate_value(pair, ORDER, 5000, seed=7)
    assert a == b
    sa = empirical_survival(pair, ORDER, 5000, seed=7)
    sb = empirical_survival(pair, ORDER, 5000, seed=7)
    assert np.array_equal(sa, sb)


@pytest.mark.parametrize("size", range(1, 9))
def test_one_batch_matches_the_separate_estimates(size):
    rng = random.Random(size)
    inst = sample_unconstrained(rng, size)
    # a sure acceptance (a = 1) and a journal without feedback (q = 0)
    js = list(inst.journals)
    js[0] = replace(js[0], a=F(1))
    js[-1] = replace(js[-1], q=F(0))
    inst = Instance(tuple(js), inst.prior, inst.outside_option)
    perm = list(range(size))
    rng.shuffle(perm)
    order = SearchOrder(tuple(perm))
    for n in (1, 2, 5000):
        seed = rng.randrange(2 ** 32)
        mean, se, freqs = simulate_batch(inst, order, n, seed)
        assert (mean, se) == estimate_value(inst, order, n, seed)
        assert np.array_equal(freqs, empirical_survival(inst, order, n, seed))
        assert (se is None) == (n == 1)


def test_different_seeds_differ(pair):
    a, _ = estimate_value(pair, ORDER, 5000, seed=7)
    b, _ = estimate_value(pair, ORDER, 5000, seed=8)
    assert a != b


def test_mean_tracks_exact_value(pair):
    exact = float(evaluate(pair, ORDER).total)
    mean, se = estimate_value(pair, ORDER, 100000, seed=11)
    assert se is not None and se > 0
    assert abs(mean - exact) < 4 * se


def test_survival_tracks_reach(pair):
    n = 100000
    freqs = empirical_survival(pair, ORDER, n, seed=12)
    reach = [float(r) for r in evaluate(pair, ORDER).reach]
    assert freqs[0] == 1.0
    for f, r in zip(freqs, reach):
        sigma = math.sqrt(max(r * (1 - r), 1e-12) / n)
        assert abs(f - r) < 4 * sigma + 1e-9


def test_single_episode_has_no_stderr(pair):
    mean, se = estimate_value(pair, ORDER, 1, seed=0)
    assert se is None
    assert isinstance(mean, float)


def test_zero_episodes_rejected(pair):
    with pytest.raises(ValueError):
        estimate_value(pair, ORDER, 0)


def test_episodes_past_the_cap_are_refused_before_drawing(pair):
    with pytest.raises(ValueError, match=f"at most {EPISODE_LIMIT} episodes"):
        simulate_batch(pair, ORDER, EPISODE_LIMIT + 1)


def test_certain_acceptance_path():
    inst = Instance(
        (Journal("NOW", 3, 1, 0, c=F(1, 4)), Journal("B", 1, F(1, 2), 0)),
        Belief(F(1)),
    )
    mean, se = estimate_value(inst, SearchOrder((0, 1)), 500, seed=1)
    assert mean == pytest.approx(float(F(3) - F(1, 4)))
    assert se == 0.0


def test_never_accepted_takes_outside_option_net_of_costs():
    inst = Instance(
        (Journal("A", 3, F(1, 2), 0, c=F(1, 8)), Journal("B", 1, F(1, 4), 0, c=F(1, 8))),
        Belief(F(0)),  # certainly low, no feedback: never accepted
        outside_option=F(2),
    )
    mean, se = estimate_value(inst, SearchOrder((0, 1)), 200, seed=3)
    assert mean == pytest.approx(float(F(2) - F(1, 4)))
    assert se == 0.0
