"""Hypothesis checks on instances: regularity, order independence,
globally bounded weak feedback, and the strong-feedback region.

Every check returns a ConditionReport with exact rational margins and
concrete witnesses, so a failed hypothesis always comes with the pair or
prefix that breaks it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import _engine
from .model import Belief, Instance, Journal, ModelError, format_number, plain, update_belief

GBWF_POLICIES = ("box1", "max_over_journals", "per_remaining")
GBWF_MAX_SIZE = 8


class ConditionError(ModelError):
    """Check asked for something it cannot do (bad policy, too large)."""


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one hypothesis check.

    margin is the smallest slack over all inequalities the check looked
    at (negative means violated); for equality-style checks it is the
    largest absolute deviation, so 0 means pass.  witnesses carry the
    binding or violating cases as plain dicts.
    """

    condition: str
    passed: bool
    margin: Fraction | None = None
    witnesses: tuple = ()
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        state = "holds" if self.passed else "fails"
        msg = f"{self.condition}: {state}"
        if self.margin is not None:
            msg += f" (margin {format_number(self.margin)})"
        if not self.passed and self.witnesses:
            w = plain(self.witnesses[0])
            if isinstance(w, dict):
                w = ", ".join(f"{k}={v}" for k, v in w.items())
            msg += f"; witness: {w}"
        return msg

    def to_dict(self) -> dict:
        return plain({
            "condition": self.condition,
            "passed": self.passed,
            "margin": self.margin,
            "witnesses": list(self.witnesses),
            "details": self.details,
        })


def check_regularity(inst: Instance, strict: bool = False,
                     exponential: bool = False) -> ConditionReport:
    """Payoffs and feedback rates non-increasing, acceptance rates
    non-decreasing down the payoff-sorted list; `strict` demands strict
    inequalities, `exponential` additionally wants each payoff at least
    twice the next one.  passed reflects the requested variant, and holds
    exactly when there is no witness; details report all four variants
    at once.
    """
    js = inst.journals
    adjacent = list(zip(js, js[1:]))
    u_slacks = [hi.u - lo.u for hi, lo in adjacent]
    q_slacks = [hi.q - lo.q for hi, lo in adjacent]
    a_slacks = [lo.a - hi.a for hi, lo in adjacent]
    exp_slacks = [hi.u - 2 * lo.u for hi, lo in adjacent]

    weak = all(s >= 0 for s in u_slacks + q_slacks + a_slacks)
    strictly = all(s > 0 for s in u_slacks + q_slacks + a_slacks)
    expo = weak and all(s >= 0 for s in exp_slacks)
    strict_expo = strictly and all(s > 0 for s in exp_slacks)

    slacks = u_slacks + q_slacks + a_slacks + (exp_slacks if exponential else [])
    margin = min(slacks, default=None)
    checked = [("u", "u", u_slacks), ("q", "q", q_slacks), ("a", "a", a_slacks)]
    if exponential:
        checked.append(("u_ratio", "u", exp_slacks))
    witnesses = tuple(
        {"pair": (hi.name, lo.name), "field": kind,
         "values": (getattr(hi, attr), getattr(lo, attr))}
        for k, (hi, lo) in enumerate(adjacent)
        for kind, attr, field_slacks in checked
        if field_slacks[k] < 0 or (strict and field_slacks[k] == 0))
    return ConditionReport(
        condition="regularity",
        passed=not witnesses,
        margin=margin,
        witnesses=witnesses,
        details={
            "regular": weak,
            "strict_regular": strictly,
            "exponential_regular": expo,
            "strict_exponential_regular": strict_expo,
        },
    )


def _index_key(j: Journal):
    if j.a == 0:
        return None
    return j.u - j.c / j.a


def check_order_independence(inst: Instance) -> ConditionReport:
    """Belief updates commute: a_i q_j = a_j q_i for every pair.

    When the check passes, posterior beliefs (and survival probabilities)
    depend only on the set of rejections, not their order, which is what
    makes subset dynamic programming sound.  margin is the largest
    absolute deviation |a_i q_j - a_j q_i|, so 0 means pass.

    details.small_costs reports whether cost-adjusted payoffs u - c/a
    rank journals the same way raw payoffs do (the small-cost hypothesis
    of the index result); journals with a = 0 leave it False unless they
    are costless.
    """
    js = inst.journals
    deviations = []
    witnesses = []
    worst = Fraction(0)
    for i in range(len(js)):
        for j in range(i + 1, len(js)):
            d = js[i].a * js[j].q - js[j].a * js[i].q
            deviations.append({"pair": (js[i].name, js[j].name), "deviation": d})
            if d != 0:
                witnesses.append({"pair": (js[i].name, js[j].name),
                                  "a_i*q_j": js[i].a * js[j].q,
                                  "a_j*q_i": js[j].a * js[i].q})
            worst = max(worst, abs(d))
    passed = worst == 0

    keys = [_index_key(j) for j in js]
    small_costs = True
    for i in range(len(js)):
        for j in range(i + 1, len(js)):
            if js[i].u == js[j].u:
                continue
            ki, kj = keys[i], keys[j]
            if ki is None or kj is None:
                # a = 0 with a positive cost has no finite index
                if (ki is None and js[i].c > 0) or (kj is None and js[j].c > 0):
                    small_costs = False
                continue
            if (js[i].u > js[j].u) != (ki > kj):
                small_costs = False

    return ConditionReport(
        condition="order_independence",
        passed=passed,
        margin=worst,
        witnesses=tuple(witnesses),
        details={
            "deviations": deviations,
            "small_costs": small_costs,
            "index_keys": {j.name: k for j, k in zip(js, keys)},
        },
    )


def feedback_threshold(j: Journal) -> Fraction:
    """q/(q+a): the belief floor under which j's feedback outweighs its
    screening in unnormalized mass terms.  0 when the journal gives no
    feedback; 1 when it only gives feedback (a = 0, q > 0)."""
    if j.q == 0:
        return Fraction(0)
    return Fraction(j.q, j.a + j.q)


def check_globally_bounded_weak_feedback(
    inst: Instance,
    policy: str = "max_over_journals",
) -> ConditionReport:
    """Every belief reachable while boxes remain stays above a floor.

    Beliefs entering each period are enumerated along all ordered
    prefixes (lengths 0..I-1; the belief after the final rejection is
    irrelevant because no submission uses it).  The floor depends on
    `policy`:

      box1               q/(q+a) of the best-paying journal
      max_over_journals  max of q/(q+a) over all journals (default)
      per_remaining      at each prefix, max over journals not yet tried

    The per_remaining floor is equivalent to requiring
    mu >= (1 - a_j mu) f_j(mu) for every remaining journal j, i.e. no
    remaining journal's rejection raises the unnormalized H-mass.
    """
    if policy not in GBWF_POLICIES:
        raise ConditionError(f"unknown policy {policy!r}; choose from {GBWF_POLICIES}")
    n = inst.size
    if n > GBWF_MAX_SIZE:
        raise ConditionError(
            f"{n} journals means sum(n!/(n-k)!) prefixes; cap is {GBWF_MAX_SIZE}"
        )
    boxes, (h0, l0), _ = _engine.prepare(inst)
    thresholds = [feedback_threshold(j) for j in inst.journals]
    names = inst.journal_names()
    global_floor = (thresholds[0] if policy == "box1"
                    else max(thresholds) if policy == "max_over_journals"
                    else None)

    # Each prefix's margin belief - floor is kept as the integer pair
    # (bh fd - fn bs, bs fd), with belief bh/bs = H/(H + L) and floor
    # fn/fd; margins compare by cross-multiplication and Fractions are
    # built only for what the report shows.
    floors = {}         # used mask -> (floor, fn, fd)
    best = None         # (num, den, bh, bs, floor, prefix) of the first minimum
    violations = []     # (prefix, bh, bs, floor) of the first five negatives
    prefix: list = []

    def walk(used, h, l):
        nonlocal best
        if used not in floors:
            f = global_floor
            if f is None:
                f = max(th for i, th in enumerate(thresholds) if not used >> i & 1)
            floors[used] = f, f.numerator, f.denominator
        floor, fn, fd = floors[used]
        # behind a sure acceptance the mass is zero; its belief reads as 1
        bh, bs = (h, h + l) if h + l else (1, 1)
        num, den = bh * fd - fn * bs, bs * fd
        if best is None or num * best[1] < best[0] * den:
            best = num, den, bh, bs, floor, tuple(prefix)
        if num < 0 and len(violations) < 5:
            violations.append((tuple(prefix), bh, bs, floor))
        if len(prefix) == n - 1:
            return
        for i in range(n):
            if used >> i & 1:
                continue
            nh, nl, _ = _engine.step(boxes[i], h, l, 0)
            prefix.append(i)
            walk(used | (1 << i), nh, nl)
            prefix.pop()

    walk(0, h0, l0)
    num, den, bh, bs, floor, at = best
    return ConditionReport(
        condition="globally_bounded_weak_feedback",
        passed=num >= 0,
        margin=Fraction(num, den),
        witnesses=tuple({"prefix": tuple(names[i] for i in p),
                         "belief": Fraction(h, s), "floor": f}
                        for p, h, s, f in violations),
        details={
            "policy": policy,
            "thresholds": {nm: th for nm, th in zip(names, thresholds)},
            "min_belief": Fraction(bh, bs),
            "min_belief_prefix": tuple(names[i] for i in at),
            "floor_at_min": floor,
        },
    )


def check_strong_feedback(journal: Journal, belief: Belief) -> ConditionReport:
    """Is rejection at `journal` good news at this belief (f(mu) >= mu)?

    The posterior rises exactly when mu <= q/a, so the region boundary is
    min(q/a, 1).  With a = 0 rejection never lowers the belief and the
    whole interval qualifies; with q = 0 only the endpoints do.
    """
    post = update_belief(journal, belief)
    margin = post.mu_h - belief.mu_h
    if journal.a == 0:
        boundary = Fraction(1)
    else:
        boundary = min(Fraction(journal.q, journal.a), Fraction(1))
    return ConditionReport(
        condition="strong_feedback",
        passed=margin >= 0,
        margin=margin,
        witnesses=() if margin >= 0 else (
            {"journal": journal.name, "belief": belief.mu_h, "posterior": post.mu_h},),
        details={"boundary": boundary, "posterior": post.mu_h},
    )
