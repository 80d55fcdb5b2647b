"""Seeded random instance families for the verification suites.

All primitives are drawn from small rational grids so downstream checks
run in exact arithmetic at full speed.  Each family's sampler constructs
the defining property directly and gen_random_instance re-validates it
through the conditions module before returning, so generated instances
provably satisfy their family's constraints.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .conditions import (
    check_globally_bounded_weak_feedback,
    check_order_independence,
    check_regularity,
    feedback_threshold,
)
from .model import Belief, Instance, Journal, ModelError

FAMILIES = (
    "no_feedback",
    "order_independent",
    "regular_2box",
    "exp_regular_gbwf",
    "unconstrained",
)

PRIOR_DEN = 1024  # resolution of feasible-prior bisection


class GenerationError(ModelError):
    """A sampler produced an instance violating its own family contract."""


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    size_range: tuple[int, int] = (2, 6)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GenerationError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        lo, hi = self.size_range
        if not (1 <= lo <= hi):
            raise GenerationError(f"bad size range {self.size_range}")


def gen_random_instance(spec: GeneratorSpec) -> Instance:
    """One instance from the family, deterministic in the seed."""
    rng = random.Random(spec.seed)
    lo, hi = spec.size_range
    n = rng.randint(lo, hi)
    inst = SAMPLERS[spec.family](rng, n)
    _validate(spec.family, inst)
    return inst


def _validate(family: str, inst: Instance) -> None:
    if family == "no_feedback":
        if any(j.q != 0 for j in inst.journals):
            raise GenerationError("no_feedback sampler produced feedback")
    elif family == "order_independent":
        if not check_order_independence(inst).passed:
            raise GenerationError("order_independent sampler broke product symmetry")
    elif family == "regular_2box":
        if not check_regularity(inst, strict=True).passed:
            raise GenerationError("regular_2box sampler not strictly regular")
    elif family == "exp_regular_gbwf":
        if not check_regularity(inst, strict=True, exponential=True).passed:
            raise GenerationError("exp_regular_gbwf sampler not exponentially regular")
        if not check_globally_bounded_weak_feedback(inst).passed:
            raise GenerationError("exp_regular_gbwf sampler broke the belief floor")


def _frac(rng: random.Random, lo, hi, den: int) -> Fraction:
    """Uniform Fraction k/den inside [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    a = -(-lo.numerator * den // lo.denominator)
    b = (hi.numerator * den) // hi.denominator
    if a > b:
        raise GenerationError(f"empty grid [{lo}, {hi}] at denominator {den}")
    return Fraction(rng.randint(a, b), den)


def _distinct_payoffs(rng: random.Random, n: int) -> list[Fraction]:
    ticks = rng.sample(range(1, 30 * n + 1), n)
    ticks.sort(reverse=True)
    return [Fraction(t, 4) for t in ticks]


def sample_no_feedback(rng: random.Random, n: int) -> Instance:
    """q = 0 everywhere; payoffs distinct; costs unrestricted in [0, 2]."""
    payoffs = _distinct_payoffs(rng, n)
    journals = tuple(
        Journal(
            name=f"J{k + 1}",
            u=payoffs[k],
            a=_frac(rng, "0.05", 1, 20),
            q=0,
            c=_frac(rng, 0, 2, 8),
        )
        for k in range(n)
    )
    return Instance(journals, Belief(_frac(rng, 0, 1, 64)), 0)


def sample_order_independent(rng: random.Random, n: int) -> Instance:
    """Feedback proportional to acceptance: q_i = kappa * a_i.

    That makes a_i q_j = a_j q_i for every pair, so belief updates
    commute.  Costs are drawn proportional to acceptance rates
    (c_i = gamma * a_i), which keeps the cost-adjusted ranking equal to
    the raw payoff ranking and gives every pair the same flip threshold.
    The prior is drawn from [kappa/(1+kappa), 1]: below that shared
    floor the payoff-sorted order is provably suboptimal whenever
    kappa > 0, above it provably optimal.  Roughly a fifth of draws set
    kappa = 0 (the feedback-free sub-case, any prior).
    """
    den = 24
    kappa = Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(1, den - 1), den)
    if rng.random() < 0.25:
        # two-tuple sub-family: journals share one of two (a, q) pairs
        base = [_frac(rng, "0.05", 1, 20) for _ in range(2)]
        avals = [rng.choice(base) for _ in range(n)]
    else:
        avals = [_frac(rng, "0.05", 1, 20) for _ in range(n)]
    gamma = Fraction(0) if rng.random() < 0.3 else _frac(rng, 0, 1, 8)
    payoffs = _distinct_payoffs(rng, n)
    journals = tuple(
        Journal(f"J{k + 1}", payoffs[k], avals[k], kappa * avals[k], gamma * avals[k])
        for k in range(n)
    )
    floor = kappa / (1 + kappa)
    prior = floor + (1 - floor) * _frac(rng, 0, 1, 64)
    return Instance(journals, Belief(prior), 0)


def sample_regular_2box(rng: random.Random, n: int = 2) -> Instance:
    """Strictly regular pair with prior at or above the second box's
    feedback threshold q2/(a2+q2)."""
    den = 40
    while True:
        a_pair = sorted({_frac(rng, "0.05", "0.95", den) for _ in range(2)})
        if len(a_pair) == 2:
            break
    while True:
        q_pair = sorted({_frac(rng, "0.025", "0.95", den) for _ in range(2)}, reverse=True)
        if len(q_pair) == 2:
            break
    u_hi = _frac(rng, 1, 8, 4)
    u_lo = u_hi * _frac(rng, "0.1", "0.9", 10)
    journals = (
        Journal("J1", u_hi, a_pair[0], q_pair[0]),
        Journal("J2", u_lo, a_pair[1], q_pair[1]),
    )
    floor = feedback_threshold(journals[1])
    prior = floor + (1 - floor) * _frac(rng, 0, 1, 64)
    return Instance(journals, Belief(prior), 0)


def sample_exp_regular_gbwf(rng: random.Random, n: int) -> Instance:
    """Exponentially regular journals with a prior from the region where
    every reachable belief stays above max_i q_i/(a_i+q_i).

    Reachable beliefs increase with the prior (the update is monotone),
    so the feasible priors form an upper interval; its left edge is found
    by bisection on a 1/1024 grid and the prior is drawn uniformly from
    the feasible grid points.
    """
    den = 60
    while True:
        avals = sorted({_frac(rng, "0.05", 1, den) for _ in range(n)})
        if len(avals) == n:
            break
    while True:
        qvals = sorted({_frac(rng, Fraction(1, den), "0.95", den) for _ in range(n)},
                       reverse=True)
        if len(qvals) == n:
            break
    u = _frac(rng, "0.5", 2, 4)
    payoffs = [u]
    for _ in range(n - 1):
        payoffs.append(payoffs[-1] * (2 + Fraction(rng.randint(1, 4), 4)))
    payoffs.reverse()
    journals = tuple(
        Journal(f"J{k + 1}", payoffs[k], avals[k], qvals[k]) for k in range(n)
    )

    def feasible(k: int) -> bool:
        inst = Instance(journals, Belief(Fraction(k, PRIOR_DEN)), 0)
        return check_globally_bounded_weak_feedback(inst).passed

    # prior 1 is always feasible (beliefs stay at 1), so k_min <= PRIOR_DEN
    k_min = bisect_left(range(PRIOR_DEN + 1), True, key=feasible)
    prior = Fraction(rng.randint(k_min, PRIOR_DEN), PRIOR_DEN)
    return Instance(journals, Belief(prior), 0)


def sample_unconstrained(rng: random.Random, n: int) -> Instance:
    """Anything goes: used by normalization and serialization checks."""
    journals = tuple(
        Journal(
            name=f"J{k + 1}",
            u=_frac(rng, 0, 10, 8),
            a=_frac(rng, "0.05", 1, 20),
            q=_frac(rng, 0, "0.95", 20),
            c=_frac(rng, 0, 2, 8),
        )
        for k in range(n)
    )
    outside = _frac(rng, 0, 2, 8) if rng.random() < 0.5 else Fraction(0)
    return Instance(journals, Belief(_frac(rng, 0, 1, 64)), outside)


SAMPLERS = {
    "no_feedback": sample_no_feedback,
    "order_independent": sample_order_independent,
    "regular_2box": sample_regular_2box,
    "exp_regular_gbwf": sample_exp_regular_gbwf,
    "unconstrained": sample_unconstrained,
}
