"""Monte Carlo simulation of submission runs.

The vectorized driver uses a counter-based Philox generator keyed by the
seed and a fixed draw layout: one length-n block of quality draws up
front, then two length-n blocks per period (acceptance draws, feedback
draws), with episode i always at lane i.  Blocks are drawn whether or
not an episode is still alive, so results for a given (instance, order,
n_episodes, seed) are bit-for-bit reproducible and independent of how
other episodes resolved.

simulate_batch runs one batch and reads the sample mean, its standard
error and the survival frequencies off the same draws; estimate_value
and empirical_survival each run their own batch and apply the same
reduction, so for one (instance, order, n_episodes, seed) all three
agree bit for bit.

numpy is imported inside the functions that use it, so importing jss
does not load it.
"""
from __future__ import annotations

from fractions import Fraction
from math import sqrt
from typing import Optional

from .model import Instance, SearchOrder, check_order

# A batch holds about 40 bytes per episode at once: some 400 MB at the cap.
EPISODE_LIMIT = 10 ** 7


def _run_batch(inst: Instance, order: SearchOrder, n_episodes: int, seed: int):
    """accepted_at array (0 = outside option, else 1-based period)."""
    check_order(inst, order)
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    if n_episodes > EPISODE_LIMIT:
        raise ValueError(f"at most {EPISODE_LIMIT} episodes per batch, got {n_episodes}")
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = int(n_episodes)
    high = rng.random(n) < float(inst.prior.mu_h)
    alive = np.ones(n, dtype=bool)
    accepted_at = np.zeros(n, dtype=np.int64)
    for t, idx in enumerate(order.perm):
        j = inst.journals[idx]
        accept_draw = rng.random(n)
        feedback_draw = rng.random(n)
        accepted = alive & high & (accept_draw < float(j.a))
        accepted_at[accepted] = t + 1
        alive &= ~accepted
        flipped = alive & ~high & (feedback_draw < float(j.q))
        high |= flipped
    return accepted_at


def _payoff_table(inst: Instance, order: SearchOrder) -> np.ndarray:
    """payoff_table[k] = realized payoff when accepted at period k (0 = never)."""
    import numpy as np
    paid = Fraction(0)
    payoffs = [None] * (len(order.perm) + 1)
    for t, idx in enumerate(order.perm):
        j = inst.journals[idx]
        paid += j.c
        payoffs[t + 1] = float(j.u - paid)
    payoffs[0] = float(inst.outside_option - paid)
    return np.array(payoffs, dtype=np.float64)


def _mean_stderr(inst: Instance, order: SearchOrder,
                 accepted_at: np.ndarray) -> tuple[float, Optional[float]]:
    payoffs = _payoff_table(inst, order)[accepted_at]
    mean = float(payoffs.mean())
    if len(accepted_at) < 2:
        return mean, None
    return mean, float(payoffs.std(ddof=1) / sqrt(len(accepted_at)))


def _survival(periods: int, accepted_at: np.ndarray) -> np.ndarray:
    """Entry t: the share of episodes not accepted in periods 1..t."""
    import numpy as np
    counts = np.bincount(accepted_at, minlength=periods + 1)
    counts[0] = 0
    return (len(accepted_at) - np.cumsum(counts)) / len(accepted_at)


def simulate_batch(inst: Instance, order: SearchOrder, n_episodes: int,
                   seed: int = 0) -> tuple[float, Optional[float], np.ndarray]:
    """(mean, stderr, survival) from one batch of episodes.

    Equal bit for bit to estimate_value's pair and empirical_survival's
    array at the same arguments, at the cost of one batch instead of two.
    """
    accepted_at = _run_batch(inst, order, n_episodes, seed)
    mean, se = _mean_stderr(inst, order, accepted_at)
    return mean, se, _survival(len(order.perm), accepted_at)


def estimate_value(inst: Instance, order: SearchOrder, n_episodes: int,
                   seed: int = 0) -> tuple[float, Optional[float]]:
    """Sample mean of the realized payoff and its standard error.

    The standard error uses the ddof=1 sample variance; with a single
    episode it is None.
    """
    return _mean_stderr(inst, order, _run_batch(inst, order, n_episodes, seed))


def empirical_survival(inst: Instance, order: SearchOrder, n_episodes: int,
                       seed: int = 0) -> np.ndarray:
    """Fraction of episodes reaching each period unaccepted (length I+1).

    Entry 0 is always 1; entry I is the never-accepted frequency.  Mirrors
    the reach column of evaluate()'s trace.
    """
    return _survival(len(order.perm), _run_batch(inst, order, n_episodes, seed))
