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
    conditional_acceptance,
    empirical_survival,
    estimate_value,
    evaluate,
    example_pair,
    simulate_batch,
    simulate_episode,
)
from jss.generators import sample_unconstrained


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


class _Script:
    """Deterministic draw sequence standing in for an rng."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_episode_feedback_repair_path(pair):
    # L paper, no acceptance at J1, feedback flips quality, J2 accepts
    rng = _Script([0.9, 0.5, 0.05, 0.1])
    out = simulate_episode(pair, ORDER, rng)
    assert out.accepted_period == 2
    assert out.accepting_journal == "J2"
    assert out.quality_path == ("L", "H")
    assert out.realized_payoff == F(1)


def test_episode_immediate_acceptance(pair):
    rng = _Script([0.1, 0.15])  # H paper, J1 accepts on the first draw
    out = simulate_episode(pair, ORDER, rng)
    assert out.accepted_period == 1
    assert out.accepting_journal == "J1"
    assert out.realized_payoff == F(5)
    assert out.quality_path == ("H",)


def test_episode_exhaustion(pair):
    rng = _Script([0.9, 0.5, 0.9, 0.5, 0.9])  # L throughout, never repaired
    out = simulate_episode(pair, ORDER, rng)
    assert out.accepted_period is None
    assert out.accepting_journal is None
    assert out.realized_payoff == pair.outside_option
    assert out.quality_path == ("L", "L")


def test_episode_seeded_rng_determinism(pair):
    import random

    a = simulate_episode(pair, ORDER, random.Random(99))
    b = simulate_episode(pair, ORDER, random.Random(99))
    assert a == b


def test_conditional_acceptance_accounting(pair):
    n = 20000
    rows = conditional_acceptance(pair, ORDER, n, seed=5)
    assert len(rows) == 2
    assert rows[0][0] == n  # everyone reaches the first period
    taken_total = sum(t for _, t in rows)
    surv = empirical_survival(pair, ORDER, n, seed=5)
    assert taken_total == n - round(surv[-1] * n)
    # conditional acceptance frequency at period 1 approximates a * mu
    reached, taken = rows[0]
    assert taken / reached == pytest.approx(0.1, abs=0.01)
