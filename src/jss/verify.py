"""Randomized verification suites for the optimality claims.

Each suite draws seeded instances from the matching generator family,
tests one claim trial by trial against an independent oracle (exhaustive
search, a closed form, or the linear mass recursion), and returns a
VerificationReport.  Trial k always uses random.Random(seed + k) and
stops at its first failed check, so a suite records at most one failure
per trial.  A failing trial records the serialized instance, its trial
number and the seed seed + k; rerunning with seed - trial as the seed
and trial + 1 trials replays it exactly.  Fixed probes are recorded as
trial -1 or -2 at the base seed.  `run_suite` raises KeyError for an
unknown suite name; `jss verify --suite` makes it a usage error (exit 1).

Every suite takes `trials` and `seed`, except `reproduce_counterexamples`,
which replays the fixed catalog and takes neither.  `verify_mc_consistency`
also takes `episodes`; its trials are Monte Carlo runs.  Each run compares
its mean and its I + 1 survival frequencies with exact evaluation, all M
comparisons of a call at the Bonferroni bound
z* = NormalDist().inv_cdf(1 - 0.01 / (2 M)); a run that trips is retried
once on a fresh seed, so a correct simulator is falsified with
probability at most 1e-4 per call.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from statistics import NormalDist

from . import _engine
from .catalog import BY_NAME, CASES
from .conditions import (
    check_globally_bounded_weak_feedback,
    check_regularity,
    check_strong_feedback,
    feedback_threshold,
)
from .generators import (
    _distinct_payoffs,
    _frac,
    sample_exp_regular_gbwf,
    sample_no_feedback,
    sample_order_independent,
    sample_regular_2box,
    sample_unconstrained,
)
from .model import (
    Belief,
    Instance,
    Journal,
    SearchOrder,
    dump_instance,
    evaluate,
    format_number,
    monotone_order,
    normalize,
    plain,
    update_belief,
)
from .sim import simulate_batch
from .solver import (
    brute_force_optimal,
    index_order_no_feedback,
    prior_threshold_2box,
    subset_dp_optimal,
)


# Family-wise false-alarm rate of one mc_consistency call's first attempts.
MC_ALPHA = 0.01


@dataclass
class VerificationReport:
    claim: str
    trials: int
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def status(self) -> str:
        return "verified" if not self.failures else "falsified"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "trials": self.trials,
            "status": self.status,
            "failures": self.failures,
            "notes": self.notes,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }

    def text(self) -> str:
        lines = [f"{self.status.upper()}: {self.claim} "
                 f"({self.trials} trials, {self.elapsed_seconds:.1f}s)"]
        for f in self.failures[:5]:
            lines.append(f"  failure at trial {f.get('trial')}: {f.get('message')}")
        if len(self.failures) > 5:
            lines.append(f"  ... {len(self.failures) - 5} more failures")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


class _Trials:
    """One suite run: its report and clock, and its seeded trials.

    `each(body)` calls body(k, random.Random(seed + k)) for k < trials; a
    body ends a failed trial with `return t.fail(...)`.  `fail` records the
    current trial and the seed that replays it; a fixed probe passes
    trial=-1 or -2 and is recorded at the base seed.
    """

    def __init__(self, claim: str, trials: int, seed: int):
        self.report = VerificationReport(claim=claim, trials=trials)
        self.seed = seed
        self.trial = None
        self._t0 = time.perf_counter()

    def seed_of(self, k: int) -> int:
        return self.seed + k if k >= 0 else self.seed

    def rng(self, k: int) -> random.Random:
        return random.Random(self.seed_of(k))

    def each(self, body) -> None:
        for k in range(self.report.trials):
            self.trial = k
            body(k, self.rng(k))
        self.trial = None

    def fail(self, inst, message, *, trial=None, **data):
        trial = self.trial if trial is None else trial
        entry = {"trial": trial, "seed": self.seed_of(trial), "message": message}
        if inst is not None:
            entry["instance"] = dump_instance(inst)
        entry.update(plain(data))
        self.report.failures.append(entry)

    def note(self, text: str) -> None:
        self.report.notes.append(text)

    def done(self) -> VerificationReport:
        self.report.elapsed_seconds = time.perf_counter() - self._t0
        return self.report


# ---------------------------------------------------------------------------

def verify_no_feedback_index(trials: int = 1000, seed: int = 101) -> VerificationReport:
    """Without feedback, sorting by the cost-adjusted index u - c/a is
    exhaustively optimal for any prior and any costs; with zero costs
    that is plain payoff sorting."""
    t = _Trials(
        claim="q = 0 everywhere: the u - c/a index order matches the "
              "exhaustive optimum exactly", trials=trials, seed=seed)

    def trial(k, rng):
        n = rng.randint(2, 7)
        inst = sample_no_feedback(rng, n)
        if k % 4 == 0:
            inst = Instance(tuple(replace(j, c=0) for j in inst.journals),
                            inst.prior, 0)
        res = brute_force_optimal(inst)
        ranked = index_order_no_feedback(inst)
        if evaluate(inst, ranked.best_order).total != res.best_value:
            return t.fail(inst, "index order value below optimum",
                          index_value=evaluate(inst, ranked.best_order).total,
                          optimum=res.best_value)
        if ranked.best_order.perm not in res.argmax_set:
            return t.fail(inst, "index order missing from argmax set")
        if k % 4 == 0 and evaluate(inst, monotone_order(inst)).total != res.best_value:
            t.fail(inst, "zero costs: payoff-sorted order not optimal")
    t.each(trial)
    twin = Instance((Journal("A", 3, Fraction(1, 2), 0, Fraction(1, 4)),
                     Journal("B", 3, Fraction(1, 2), 0, Fraction(1, 4))),
                    Belief(Fraction(2, 3)))
    if len(brute_force_optimal(twin).argmax_set) == 2:
        t.note("identical journals tie: both orders in the argmax set")
    else:
        t.fail(twin, "identical journals should tie", trial=-1)
    mixed = Instance((Journal("IDX8", 10, Fraction(1, 2), 0, 1),
                      Journal("IDX89", 9, Fraction(9, 10), 0, Fraction(9, 100))),
                     Belief(Fraction(1)))
    if brute_force_optimal(mixed).best_order.perm != (1, 0):
        t.fail(mixed, "cost-adjusted index should beat raw payoff sorting here",
               trial=-2)
    else:
        t.note(
            "costs can reverse raw payoff order: u=9 box with index 8.91 "
            "goes before u=10 box with index 8")
    return t.done()


def verify_order_independent_indexing(trials: int = 500,
                                      seed: int = 102) -> VerificationReport:
    """Commuting belief updates with proportional costs: payoff sorting is
    optimal whenever the prior sits at or above the shared floor
    q/(q+a); subset DP equals brute force; exit probabilities over a pair
    are order-invariant."""
    t = _Trials(
        claim="order-independent instances (prior above the shared floor): "
              "payoff-sorted in argmax, subset DP = brute force, exit "
              "probabilities order-invariant", trials=trials, seed=seed)

    def trial(k, rng):
        n = rng.randint(2, 6)
        inst = sample_order_independent(rng, n)
        res = brute_force_optimal(inst)
        mono = monotone_order(inst)
        if evaluate(inst, mono).total != res.best_value:
            return t.fail(inst, "payoff-sorted order suboptimal",
                          monotone_value=evaluate(inst, mono).total,
                          optimum=res.best_value)
        dp = subset_dp_optimal(inst)
        if dp.best_value != res.best_value:
            return t.fail(inst, "subset DP disagrees with brute force",
                          dp_value=dp.best_value, optimum=res.best_value)
        if dp.argmax_set != res.argmax_set:
            return t.fail(inst, "subset DP argmax set differs")
        mu0 = inst.prior
        probes = [mu0] + [update_belief(j, mu0) for j in inst.journals[:2]]
        for i, jj in itertools.combinations(range(n), 2):
            ji, jjj = inst.journals[i], inst.journals[jj]
            for b in probes:
                lhs = (1 - ji.a * b.mu_h) * (1 - jjj.a * update_belief(ji, b).mu_h)
                rhs = (1 - jjj.a * b.mu_h) * (1 - ji.a * update_belief(jjj, b).mu_h)
                if lhs != rhs:
                    return t.fail(inst, "exit probability depends on pair order",
                                  pair=(ji.name, jjj.name))
                if update_belief(jjj, update_belief(ji, b)) != \
                        update_belief(ji, update_belief(jjj, b)):
                    return t.fail(inst, "belief updates fail to commute")
    t.each(trial)
    # Below the shared floor the payoff-sorted order genuinely loses; show one.
    probe = Instance(
        (Journal("J1", 3, Fraction(1, 5), Fraction(1, 10)),
         Journal("J2", 1, Fraction(2, 5), Fraction(1, 5))),
        Belief(Fraction(3, 10)))
    pres = brute_force_optimal(probe)
    if pres.best_order.perm == (1, 0):
        t.note(
            "below the shared floor q/(q+a) = 1/3 the payoff-sorted order is "
            "strictly suboptimal (prior 3/10: 0.304 < 0.312), so the claim "
            "needs the prior bound; the generator samples the valid region")
    else:
        t.fail(probe, "expected payoff-sorted to lose below the floor", trial=-1)
    return t.done()


def verify_two_box_base_case(trials: int = 1000, seed: int = 103) -> VerificationReport:
    """Strictly regular pair with the prior at or above the low box's
    floor q2/(a2+q2): payoff-sorted is uniquely optimal (weak regularity
    keeps it weakly optimal)."""
    t = _Trials(
        claim="strictly regular two-box instances above the floor: "
              "payoff-sorted order uniquely optimal", trials=trials, seed=seed)

    def trial(k, rng):
        inst = sample_regular_2box(rng, 2)
        if k % 5 == 4:
            j1, j2 = inst.journals
            tie = rng.choice(("a", "q", "u"))
            j2 = replace(j2, **{tie: getattr(j1, tie)})
            floor = feedback_threshold(j2)
            prior = floor + (1 - floor) * _frac(rng, 0, 1, 64)
            inst = Instance((j1, j2), Belief(prior), 0)
            if (0, 1) not in brute_force_optimal(inst).argmax_set:
                t.fail(inst, "weakly regular tie: payoff-sorted missing from argmax")
            return
        res = brute_force_optimal(inst)
        if res.argmax_set != ((0, 1),):
            t.fail(inst,
                   "strict regularity: argmax should be exactly the sorted order",
                   argmax=res.argmax_set)
    t.each(trial)
    case = BY_NAME["strong_feedback_showcase"]
    inside = case.instance(Fraction(167, 290))  # between 4/7 and 17/29
    res = brute_force_optimal(inside)
    gb = check_globally_bounded_weak_feedback(inside)
    if res.best_order.perm == (1, 0) and gb.passed:
        t.note(
            "belief floor alone is not enough: at prior 167/290 every "
            "reachable belief clears max q/(q+a) = 4/7 yet the low-payoff "
            "box goes first (this pair is not regular: q rises with a)")
    else:
        t.fail(inside, "expected nonmonotone optimum inside the band", trial=-1)
    return t.done()


def verify_weak_feedback_monotonicity(trials: int = 500,
                                      seed: int = 104) -> VerificationReport:
    """Exponentially regular instances whose reachable beliefs stay above
    the floor: payoff-sorted is the unique exhaustive optimum."""
    t = _Trials(
        claim="exponential regularity + belief floor: payoff-sorted order "
              "uniquely optimal", trials=trials, seed=seed)

    def trial(k, rng):
        n = rng.randint(2, 6)
        inst = sample_exp_regular_gbwf(rng, n)
        if k % 6 == 5 and n >= 3:
            # weak variant: collapse one adjacent a or q pair to a tie
            js = list(inst.journals)
            i = rng.randrange(n - 1)
            if rng.random() < 0.5:
                js[i] = replace(js[i], a=js[i + 1].a)
            else:
                js[i + 1] = replace(js[i + 1], q=js[i].q)
            weak = Instance(tuple(js), inst.prior, 0)
            if (check_regularity(weak).passed
                    and check_globally_bounded_weak_feedback(weak).passed
                    and tuple(range(n)) not in brute_force_optimal(weak).argmax_set):
                t.fail(weak, "weak regularity: payoff-sorted missing from argmax")
            return
        res = brute_force_optimal(inst)
        if res.argmax_set != (tuple(range(n)),):
            t.fail(inst, "payoff-sorted order not the unique optimum",
                   argmax=res.argmax_set)
    t.each(trial)
    return t.done()


def _composition_sign(boxes, h, l) -> int:
    """Sign of the belief after rejections at boxes 0 then 1 minus the
    belief after 1 then 0, starting from mass (h, l).  Compares H12*T21
    with H21*T12, where T = H + L, so no belief is divided out; at prior 1
    both compositions carry the same mass and compare equal."""
    h12, l12, _ = _engine.step(boxes[1], *_engine.step(boxes[0], h, l, 0))
    h21, l21, _ = _engine.step(boxes[0], *_engine.step(boxes[1], h, l, 0))
    diff = h12 * (h21 + l21) - h21 * (h12 + l12)
    return (diff > 0) - (diff < 0)


def verify_commutation_sign(trials: int = 10000, seed: int = 105) -> VerificationReport:
    """Submitting to box 1 then box 2 leaves a higher belief than the
    reverse exactly when a1 q2 > a2 q1 (equal products commute), at every
    interior prior; at prior 1 both compositions return 1."""
    t = _Trials(
        claim="two-rejection posterior difference carries the sign of "
              "a1*q2 - a2*q1 on the whole interior grid", trials=trials, seed=seed)
    grid = [(num, 22) for num in range(1, 22)]

    def trial(k, rng):
        den = 48
        a1 = Fraction(rng.randint(1, den), den)
        q1 = Fraction(rng.randint(0, den - 1), den)
        a2 = Fraction(rng.randint(1, den), den)
        if k % 10 == 9:
            q2 = a2 * q1 / a1
            if q2 >= 1:
                q2 = q1 * Fraction(1, 2)
                a2 = a1 * Fraction(1, 2)
            # products now equal: a1*q2 == a2*q1
        else:
            q2 = Fraction(rng.randint(0, den - 1), den)
        # equal payoffs keep the input order: boxes[0] is B1, boxes[1] is B2
        boxes, _, _ = _engine.prepare(Instance(
            (Journal("B1", 1, a1, q1), Journal("B2", 1, a2, q2)), Belief(0), 0))
        want = a1 * q2 - a2 * q1
        want_sign = 0 if want == 0 else (1 if want > 0 else -1)
        for num, d in grid:
            got = _composition_sign(boxes, num, d - num)
            if got != want_sign:
                return t.fail(None, "sign law violated",
                              a1=a1, q1=q1, a2=a2, q2=q2, mu=Fraction(num, d),
                              expected=want_sign, got=got)
        if _composition_sign(boxes, 1, 0) != 0:
            t.fail(None, "compositions differ at prior 1")
    t.each(trial)
    t.note(
        "at prior 0 the compositions genuinely differ (they agree only when "
        "a1*q2 = a2*q1); the zero-difference boundary is the prior-1 end")
    return t.done()


def verify_ratio_bound(trials: int = 500, seed: int = 106) -> VerificationReport:
    """For a regular pair, the high box's posterior stays above the low
    box's by at least the survival ratio: f1/f2 >= (1-a2 mu)/(1-a1 mu),
    equivalently mu(1-a1) + q1(1-mu) >= mu(1-a2) + q2(1-mu); dropping
    regularity breaks it at small priors."""
    t = _Trials(
        claim="regular pairs keep the posterior ratio above the survival "
              "ratio on the interior grid", trials=trials, seed=seed)

    def trial(k, rng):
        den = 40
        lo_ai = rng.randint(1, den - 1)
        hi_ai = rng.randint(lo_ai, den)
        hi_qi = rng.randint(0, den - 1)
        lo_qi = rng.randint(0, hi_qi)
        j1 = Journal("B1", 2, Fraction(lo_ai, den), Fraction(hi_qi, den))
        j2 = Journal("B2", 1, Fraction(hi_ai, den), Fraction(lo_qi, den))
        for num in range(1, 22):
            mu = Fraction(num, 22)
            g1 = mu * (1 - j1.a) + j1.q * (1 - mu)
            g2 = mu * (1 - j2.a) + j2.q * (1 - mu)
            if g1 < g2:
                return t.fail(None, "mass comparison failed",
                              a1=j1.a, q1=j1.q, a2=j2.a, q2=j2.q, mu=mu)
            if num % 7 == 0:
                b = Belief(mu)
                f1 = update_belief(j1, b).mu_h
                f2 = update_belief(j2, b).mu_h
                if f2 > 0 and Fraction(f1, f2) < Fraction(1 - j2.a * mu, 1 - j1.a * mu):
                    return t.fail(None, "ratio form failed",
                                  a1=j1.a, q1=j1.q, a2=j2.a, q2=j2.q, mu=mu)
        if k % 8 == 7:
            # converse: violate regularity (q2 > q1), find a crossing prior
            q1i = rng.randint(0, den - 2)
            q2i = rng.randint(q1i + 1, den - 1)
            a1i = rng.randint(1, den)
            a2i = rng.randint(a1i, den)
            q1, q2 = Fraction(q1i, den), Fraction(q2i, den)
            a1, a2 = Fraction(a1i, den), Fraction(a2i, den)
            gap = (q2 - q1) + (a2 - a1)
            mu_w = (q2 - q1) / gap / 2
            g1 = mu_w * (1 - a1) + q1 * (1 - mu_w)
            g2 = mu_w * (1 - a2) + q2 * (1 - mu_w)
            if not g1 < g2:
                t.fail(None,
                       "expected a violation witness for the irregular pair",
                       a1=a1, q1=q1, a2=a2, q2=q2, mu=mu_w)
    t.each(trial)
    return t.done()


def _sample_regular(rng: random.Random, n: int) -> Instance:
    """Weakly regular costless instance, unconstrained prior."""
    den = 40
    avals = sorted(Fraction(rng.randint(2, den), den) for _ in range(n))
    qvals = sorted((Fraction(rng.randint(1, den - 2), den) for _ in range(n)),
                   reverse=True)
    payoffs = _distinct_payoffs(rng, n)
    js = tuple(Journal(f"J{k + 1}", payoffs[k], avals[k], qvals[k]) for k in range(n))
    return Instance(js, Belief(_frac(rng, Fraction(1, 64), Fraction(63, 64), 64)), 0)


def verify_single_crossing(trials: int = 500, seed: int = 107) -> VerificationReport:
    """Swap the first two submissions and track d_s, the difference in
    reach*belief mass entering each later period.  The unnormalized
    (H-mass, L-mass) state evolves linearly, so d_s has the closed form
    (a_k q_1 - a_1 q_k)(1 - prior) * prod of (1-a) over the common tail:
    single-signed, hence at most one sign change; under regularity it is
    never negative (no crossing), and the survival difference never grows
    past its first value."""
    t = _Trials(
        claim="first-two-swap mass differences are single-signed with the "
              "linear-recursion closed form; survival gaps never grow",
        trials=trials, seed=seed)

    def trial(k, rng):
        n = rng.randint(3, 6)
        inst = _sample_regular(rng, n)
        regular = True
        twin = False
        if k % 11 == 10:
            # scrambled feedback rates: usually irregular, crossing allowed
            js = list(inst.journals)
            qs = [j.q for j in js]
            rng.shuffle(qs)
            inst = Instance(tuple(replace(j, q=q) for j, q in zip(js, qs)),
                            inst.prior, 0)
            regular = check_regularity(inst).passed
        elif k % 7 == 6:
            # identical twin of box 0 at sorted position 1: all differences 0
            js = list(inst.journals)
            js[1] = replace(js[0], name=js[1].name)
            inst = Instance(tuple(js), inst.prior, 0)
            twin = True
        kk = 1 if twin else rng.randint(1, n - 1)
        tail = [i for i in range(1, n) if i != kk]
        sigma1 = SearchOrder(tuple([kk, 0] + tail))
        sigma2 = SearchOrder(tuple([0, kk] + tail))
        tr1 = evaluate(inst, sigma1)
        tr2 = evaluate(inst, sigma2)
        mu = inst.prior.mu_h
        j0, jk = inst.journals[0], inst.journals[kk]
        w = jk.a * j0.q - j0.a * jk.q

        ds = []
        prod = Fraction(1)
        for s in range(2, n + 1):  # trace index: belief entering period s+1
            d = tr1.reach[s] * tr1.beliefs[s] - tr2.reach[s] * tr2.beliefs[s]
            ds.append(d)
            if d != w * (1 - mu) * prod:
                return t.fail(inst, "closed form mismatch",
                              s=s + 1, got=d, expected=w * (1 - mu) * prod)
            rdiff = tr1.reach[s] - tr2.reach[s]
            if rdiff != d:
                return t.fail(inst, "survival difference should equal the mass difference")
            prod *= 1 - inst.journals[tail[s - 2]].a if s - 2 < len(tail) else 1
        seen_neg = False
        crossing = n + 2
        for s, d in zip(range(3, n + 2), ds):
            # zeros after a negative run are fine (a=1 in the tail kills prod)
            if seen_neg and d > 0:
                return t.fail(inst, "mass difference recovered after turning negative")
            if d < 0 and not seen_neg:
                seen_neg = True
                crossing = s
        if regular and crossing != n + 2:
            return t.fail(inst, "regular instance should never cross", crossing=crossing)
        d3 = ds[0]
        if any(abs(d) > abs(d3) for d in ds):
            return t.fail(inst, "survival gap exceeded its first value")
        if twin and any(d != 0 for d in ds):
            t.fail(inst, "identical first two boxes should give zero differences")
    t.each(trial)
    t.note(
        "the sign is constant (not just single-crossing): the linear mass "
        "recursion scales d_3 by nonnegative survival factors, so a "
        "crossing index past the horizon is the generic regular outcome")
    return t.done()


def verify_normalization_shift(trials: int = 200,
                               seed: int = 108) -> VerificationReport:
    """Shifting every payoff and the outside option by K shifts every
    order's value by exactly -K and leaves argmax sets untouched."""
    t = _Trials(
        claim="payoff/outside shifts move all order values by exactly the "
              "shift and preserve argmax sets", trials=trials, seed=seed)

    def trial(k, rng):
        n = rng.randint(2, 5)
        inst = sample_unconstrained(rng, n)
        boxes0, prior0, out0 = _engine.prepare(inst)
        values0 = [(perm, _engine.order_value(boxes0, perm, prior0, out0))
                   for perm in itertools.permutations(range(n))]
        mono = monotone_order(inst)
        mono_value = evaluate(inst, mono).total
        a0 = brute_force_optimal(inst).argmax_set
        for K in (-3, 1, 10):
            shifted = normalize(inst, K)
            boxes1, prior1, out1 = _engine.prepare(shifted)
            for perm, v0 in values0:
                v1 = _engine.order_value(boxes1, perm, prior1, out1)
                if v1 != v0 - K:
                    return t.fail(inst, "shift identity failed",
                                  shift=Fraction(K), order=perm, base=v0, shifted=v1)
            if evaluate(shifted, mono).total != mono_value - K:
                return t.fail(inst, "trace-path shift identity failed", shift=Fraction(K))
            if brute_force_optimal(shifted).argmax_set != a0:
                return t.fail(inst, "argmax set changed under shift", shift=Fraction(K))
            if k % 10 == 0:
                f0, f1 = (_engine.order_value(b, mono.perm, p, o) for b, p, o in
                          map(_engine.prepare_float, (inst, shifted)))
                if abs(f1 - (f0 - float(K))) > 1e-9:
                    return t.fail(inst, "float-mode shift drifted")
    t.each(trial)
    return t.done()


def reproduce_counterexamples() -> VerificationReport:
    """Replay the catalog: exact flip boundaries, behaviour at the
    commonly quoted priors, floor diagnostics, and the band where the
    belief floor holds yet payoff sorting loses."""
    t = _Trials(
        claim="catalog thresholds exact; quoted evaluation points replayed",
        trials=len(CASES), seed=0)
    eps = Fraction(1, 1000)

    def trial(idx, _rng):
        case = CASES[idx]
        thr = prior_threshold_2box(case.journals[0], case.journals[1])
        inst0 = case.instance(case.flip_boundary)
        if thr.kind != "threshold" or thr.mu_star != case.flip_boundary:
            return t.fail(inst0, f"{case.name}: boundary mismatch",
                          expected=case.flip_boundary,
                          got=thr.mu_star if thr.mu_star is not None else thr.kind)
        if thr.direction != "above":
            return t.fail(inst0, f"{case.name}: unexpected direction")
        at = brute_force_optimal(inst0)
        if len(at.argmax_set) != 2:
            return t.fail(inst0, f"{case.name}: no tie at the boundary")
        above = brute_force_optimal(case.instance(case.flip_boundary + eps))
        below = brute_force_optimal(case.instance(case.flip_boundary - eps))
        if above.argmax_set != ((0, 1),) or below.argmax_set != ((1, 0),):
            return t.fail(inst0, f"{case.name}: wrong side preference")
        if case.quoted_prior is not None:
            res = brute_force_optimal(case.instance(case.quoted_prior))
            actual = "monotone" if res.best_order.perm == (0, 1) else "nonmonotone"
            q = format_number(case.quoted_prior)
            b = format_number(case.flip_boundary)
            if actual == case.quoted_behavior:
                t.note(
                    f"{case.name}: quoted prior {q} is {actual} as quoted "
                    f"(boundary {b})")
            else:
                t.note(
                    f"{case.name}: DISCREPANCY - commonly quoted as "
                    f"{case.quoted_behavior} at prior {q}, but exact evaluation "
                    f"gives {actual}; the flip boundary is {b}")
    t.each(trial)
    case = BY_NAME["weak_feedback_floor"]
    low = check_globally_bounded_weak_feedback(case.instance(Fraction(1, 20)))
    high = check_globally_bounded_weak_feedback(case.instance(Fraction(9, 10)))
    if low.passed or not high.passed:
        t.fail(case.instance(Fraction(1, 20)),
               "floor check should fail at 1/20 and pass at 9/10", trial=-1)
    elif (high.details["min_belief"] != Fraction(19, 23)
          or high.details["min_belief_prefix"] != ("J2",)
          or max(high.details["thresholds"].values()) != Fraction(3, 8)):
        t.fail(case.instance(Fraction(9, 10)), "floor diagnostics off",
               trial=-1, min_belief=high.details["min_belief"])
    else:
        t.note(
            "weak_feedback_floor: floor 3/8, prior 9/10 passes with minimum "
            "reachable belief 19/23 after one rejection at the low box; "
            "prior 1/20 fails the floor and is below the flip boundary 1/16")
    case = BY_NAME["strong_feedback_showcase"]
    mid = case.instance(Fraction(29, 50))
    gb = check_globally_bounded_weak_feedback(mid)
    res = brute_force_optimal(mid)
    sf = check_strong_feedback(case.journals[1], Belief(Fraction(29, 50)))
    if gb.passed and res.best_order.perm == (1, 0) and sf.passed:
        t.note(
            "strong_feedback_showcase: inside (4/7, 17/29) the floor holds, "
            "the low box's rejection raises the belief (boundary q/a), and "
            "the low box still goes first: no prior-free payoff index exists")
    else:
        t.fail(mid, "band behaviour changed", trial=-2)
    return t.done()


def verify_mc_consistency(trials: int = 20, seed: int = 109,
                          episodes: int = 10 ** 6) -> VerificationReport:
    """Monte Carlo means and per-period survival frequencies agree with
    exact evaluation.

    A run over I journals makes I + 2 comparisons: its mean against the
    exact value in standard errors, and each of its I + 1 survival
    frequencies against the exact reach in binomial sigmas.  With M
    comparisons over all runs of the call, each must stay within

        z* = NormalDist().inv_cdf(1 - MC_ALPHA / (2 M)),   MC_ALPHA = 0.01,

    so by the union bound a correct simulator trips some comparison on
    the call's first attempts with probability at most 0.01 (z* is about
    3.9 at the default 20 runs, 4.05 at 40).  A run that trips is retried
    once on a fresh seed and is falsified only if both attempts trip, so
    a call falsifies a correct simulator with probability at most
    0.01**2 = 1e-4.  A comparison with zero sigma must match exactly; a
    note gives z* and M."""
    t = _Trials(
        claim="simulation agrees with exact evaluation within a z bound "
              f"with family-wise false-alarm rate {MC_ALPHA}",
        trials=trials, seed=seed)
    runs = []
    showcase = BY_NAME["strong_feedback_showcase"]
    for mu in (Fraction(1, 2), Fraction(17, 29), Fraction(3, 4)):
        inst = showcase.instance(mu)
        runs.append((inst, SearchOrder((0, 1))))
        runs.append((inst, SearchOrder((1, 0))))
    k = 0
    while len(runs) < trials:
        rng = t.rng(500 + k)
        inst = sample_unconstrained(rng, rng.randint(2, 4))
        perm = list(range(inst.size))
        rng.shuffle(perm)
        runs.append((inst, SearchOrder(tuple(perm))))
        k += 1
    comparisons = max(1, sum(inst.size + 2 for inst, _ in runs[:trials]))
    z_star = NormalDist().inv_cdf(1 - MC_ALPHA / (2 * comparisons))
    t.note(f"bound: {z_star:.2f} sigma over {comparisons} comparisons")

    def within(inst, order, run_seed):
        trace = evaluate(inst, order)
        target = float(trace.total)
        mean, se, freqs = simulate_batch(inst, order, episodes, run_seed)
        if se is None or se == 0:
            if abs(mean - target) > 1e-12:
                return f"degenerate payoff mismatch: {mean} vs {target}"
        elif abs(mean - target) > z_star * se:
            return (f"mean {mean:.6f} vs exact {target:.6f} "
                    f"(|z| = {abs(mean - target) / se:.2f})")
        for period, (freq, r) in enumerate(zip(freqs, trace.reach)):
            p = float(r)
            sigma = (p * (1 - p) / episodes) ** 0.5
            if sigma == 0:
                if freq != p:
                    return f"survival at period {period + 1}: {freq} vs certain {p}"
            elif abs(freq - p) > z_star * sigma:
                return (f"survival at period {period + 1}: {freq:.6f} vs {p:.6f} "
                        f"(|z| = {abs(freq - p) / sigma:.2f})")
        return None

    def trial(i, _rng):
        inst, order = runs[i]
        msg = within(inst, order, t.seed_of(i))
        if msg is not None:
            retry = within(inst, order, t.seed_of(i) + 7777)
            if retry is None:
                t.note(
                    f"run {i} tripped the {z_star:.2f}-sigma bound ({msg}) and "
                    "passed on a fresh seed; kept")
            else:
                t.fail(inst, f"simulation off twice: {retry}", order=list(order.perm))
    t.each(trial)
    return t.done()


SUITES = {
    "no_feedback_index": verify_no_feedback_index,
    "order_independent_indexing": verify_order_independent_indexing,
    "two_box_base_case": verify_two_box_base_case,
    "weak_feedback_monotonicity": verify_weak_feedback_monotonicity,
    "commutation_sign": verify_commutation_sign,
    "ratio_bound": verify_ratio_bound,
    "single_crossing": verify_single_crossing,
    "normalization_shift": verify_normalization_shift,
    "counterexamples": reproduce_counterexamples,
    "mc_consistency": verify_mc_consistency,
}


def run_suite(name: str, **overrides) -> VerificationReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**overrides)


def run_all(**per_suite_overrides) -> dict:
    """Run every suite; per_suite_overrides maps suite name -> kwargs."""
    return {name: run_suite(name, **per_suite_overrides.get(name, {}))
            for name in SUITES}
