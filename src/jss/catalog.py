"""Named two-box study cases with exactly known prior thresholds.

Each case stores its journals plus the exact prior where the two
submission orders tie, and (where a particular evaluation prior is
commonly quoted for it) that prior and the behaviour actually found
there.  The verification suite recomputes everything and reports any
mismatch between the quoted behaviour and the exact arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import Belief, Instance, Journal


@dataclass(frozen=True)
class CatalogCase:
    name: str
    description: str
    journals: tuple[Journal, Journal]
    flip_boundary: Fraction           # exact prior where both orders tie
    quoted_prior: Optional[Fraction]  # commonly quoted evaluation prior
    quoted_behavior: Optional[str]    # "nonmonotone" or "monotone" as quoted

    def instance(self, prior) -> Instance:
        return Instance(self.journals, Belief(Fraction(prior)), Fraction(0))


CASES = (
    CatalogCase(
        name="strong_feedback_showcase",
        description=(
            "High payoff with weak screening vs low payoff with strong "
            "feedback; below 17/29 the low journal goes first, and inside "
            "(4/7, 17/29) that happens even though every reachable belief "
            "stays above all q/(q+a) floors"
        ),
        journals=(
            Journal("J1", 5, Fraction(1, 5), Fraction(1, 5)),
            Journal("J2", 1, Fraction(3, 10), Fraction(2, 5)),
        ),
        flip_boundary=Fraction(17, 29),
        quoted_prior=None,
        quoted_behavior=None,
    ),
    CatalogCase(
        name="acceptance_rate_inverted",
        description=(
            "Best-paying journal also accepts most (acceptance rates "
            "decrease with payoff), breaking regularity"
        ),
        journals=(
            Journal("J1", 2, Fraction(4, 5), Fraction(2, 5)),
            Journal("J2", 1, Fraction(1, 5), Fraction(3, 20)),
        ),
        flip_boundary=Fraction(1, 2),
        quoted_prior=Fraction(9, 10),
        quoted_behavior="nonmonotone",
    ),
    CatalogCase(
        name="worthless_feedback_box",
        description=(
            "A zero-payoff journal whose only use is feedback; payoff "
            "sorting is optimal only at high priors"
        ),
        journals=(
            Journal("J1", 1, Fraction(3, 10), Fraction(1, 5)),
            Journal("J2", 0, Fraction(1, 5), Fraction(3, 10)),
        ),
        flip_boundary=Fraction(3, 5),
        quoted_prior=Fraction(7, 10),
        quoted_behavior="nonmonotone",
    ),
    CatalogCase(
        name="weak_feedback_floor",
        description=(
            "Regular-looking pair whose belief floor max q/(q+a) = 3/8 is "
            "what separates the monotone regime from the flip at 1/16"
        ),
        journals=(
            Journal("J1", 2, Fraction(1, 2), Fraction(3, 10)),
            Journal("J2", 1, Fraction(3, 5), Fraction(1, 5)),
        ),
        flip_boundary=Fraction(1, 16),
        quoted_prior=Fraction(1, 20),
        quoted_behavior="nonmonotone",
    ),
)

BY_NAME = {case.name: case for case in CASES}


def example_pair(prior="1/2") -> Instance:
    """The strong-feedback showcase pair at a chosen prior."""
    return BY_NAME["strong_feedback_showcase"].instance(Fraction(prior))
