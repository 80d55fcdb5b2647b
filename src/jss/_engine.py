"""Division-free (H, L) mass kernel for every order walk (internal).

A submission order acts on the unnormalized mass (h, l) = P(reach and
high), P(reach and low).  A rejection at a journal maps it linearly,

    h' = (1 - a) h + q l,    l' = (1 - q) l,

and the period before it pays u a h - c (h + l).  An order's value is the
sum of those gains plus outside * (h + l) after its last journal.  Beliefs
h / (h + l) never appear, so there is no zero-denominator rule: a state
behind a sure acceptance simply carries zero mass.

Exact mode runs on Python ints.  Each journal's rates share the
denominator d = lcm(den a, den q), so a = A/d and q = Q/d, and payoffs,
costs and the outside option share one denominator E.  One step is

    H' = (d - A) H + Q L,   L' = (d - Q) L,   V' = d V + U A H - C d (H + L).

Every complete order multiplies by each journal's d exactly once, so all
leaf totals V + O (H + L) share one denominator, E * den(prior) * prod(d),
and compare as plain ints: exact ties are int equality.  Float mode runs
the same step with d = 1 and float coefficients.

model.evaluate stays the readable Bayes-form reference; tests pin
order_value and both walkers against it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import lcm

# Float values within this much (relative to max(1, |best|)) of the best
# tie with it; see tie_slack.
FLOAT_TIE_TOL = 1e-12

# A box is the tuple (d, d - A, Q, d - Q, U A, C d) that step() reads;
# d = 1 in float mode.

def prepare(inst):
    """Exact kernel inputs (boxes, prior mass, outside) for the instance's
    sorted journals.  outside is (O, finish): finish turns a complete
    order's total V + O (H + L) into its Fraction value."""
    js = inst.journals
    outside = inst.outside_option
    e = lcm(outside.denominator, *(x.denominator for j in js for x in (j.u, j.c)))
    prior = Fraction(inst.prior.mu_h)
    scale = e * prior.denominator
    boxes = []
    for j in js:
        d = lcm(j.a.denominator, j.q.denominator)
        A, Q = int(j.a * d), int(j.q * d)
        boxes.append((d, d - A, Q, d - Q, int(j.u * e) * A, int(j.c * e) * d))
        scale *= d
    mass = (prior.numerator, prior.denominator - prior.numerator)
    return boxes, mass, (int(outside * e), partial(Fraction, denominator=scale))


def prepare_float(inst):
    """Float twin of prepare(): d = 1 and float coefficients."""
    boxes = []
    for j in inst.journals:
        u, a, q, c = float(j.u), float(j.a), float(j.q), float(j.c)
        boxes.append((1, 1 - a, q, 1 - q, u * a, c))
    mu = float(inst.prior.mu_h)
    return boxes, (mu, 1 - mu), (float(inst.outside_option), float)


def step(box, h, l, v):
    """Mass rejected at `box` and running value with its period's gain."""
    d, da, q, dq, ua, cd = box
    return da * h + q * l, dq * l, d * v + ua * h - cd * (h + l)


def order_value(boxes, perm, prior, outside):
    """Expected payoff of one complete order: a Fraction with the inputs
    of prepare(), a float with those of prepare_float()."""
    h, l = prior
    v = 0
    for i in perm:
        h, l, v = step(boxes[i], h, l, v)
    o, finish = outside
    return finish(v + o * (h + l))


def tie_slack(best, tol):
    """How far below `best` a value may fall and still tie with it:
    tol relative to max(1, |best|), and 0 (exact equality) when tol is 0."""
    return tol * max(1.0, abs(best)) if tol else 0


def best_orders(inst, first: int | None = None):
    """Exhaustive exact optimum over the canonical orders (see _walk).

    Returns (best value as Fraction, canonical argmax perms in
    lexicographic order, classes); expand(perms, classes) lists the whole
    argmax set.  `first` pins the first submission, which is how the
    parallel driver slices the tree; pin only the first member of a class.
    """
    return _walk(prepare(inst), first, 0)


def best_orders_float(inst, first: int | None = None, tol: float = FLOAT_TIE_TOL):
    """Float twin of best_orders; ties are values within tie_slack of the best."""
    return _walk(prepare_float(inst), first, tol)


def classes(boxes):
    """Journal i's class of interchangeable journals, named by its first
    member: journals with equal boxes give the same arithmetic in either
    order."""
    first = {}
    return tuple(first.setdefault(box, i) for i, box in enumerate(boxes))


def expand(perms, cls):
    """Every order that relabels a canonical perm within its classes, in
    lexicographic order."""
    n = len(cls)
    members: dict = {}
    for i, r in enumerate(cls):
        members.setdefault(r, []).append(i)
    groups = [g for g in members.values() if len(g) > 1]
    if not groups or not perms:
        return list(perms)
    if len(groups[0]) == n:     # one class: the identity is its only canonical order
        return list(permutations(range(n)))
    relabels = []
    for choice in product(*(permutations(g) for g in groups)):
        to = list(range(n))
        for g, image in zip(groups, choice):
            for i, j in zip(g, image):
                to[i] = j
        relabels.append(to.__getitem__)
    return sorted(tuple(map(to, p)) for p in perms for to in relabels)


def _walk(kernel, first, tol):
    """Walk every canonical order once per shared prefix (about e * I!
    steps for distinct journals) and keep the totals that tie with the best.

    An order is canonical when each class's members appear in index
    order: journal i is free only once the previous member of its class
    is used.  A canonical order is the lexicographically first of its
    relabellings, whose totals are equal, so the relabellings the walk
    skips would never have moved the best or its tie slack.
    """
    boxes, (h0, l0), (o, finish) = kernel
    n = len(boxes)
    full = (1 << n) - 1
    cls = classes(boxes)
    last = {}
    after = []      # bit of the previous member of journal i's class, or 0
    for i, r in enumerate(cls):
        after.append(last.get(r, 0))
        last[r] = 1 << i
    free = [[i for i in range(n) if used & (1 << i | after[i]) == after[i]]
            for used in range(full + 1)]
    top = [None, 0]     # best total so far and its tie slack
    found: list = []    # (perm, total) pairs within the slack of the best
    perm: list = []

    def leaf(total):
        best, slack = top
        if best is None or total > best + slack:
            top[:] = total, tie_slack(total, tol)
            found[:] = [(p, t) for p, t in found if t >= total - top[1]]
            found.append((tuple(perm), total))
        elif total >= best - slack:
            found.append((tuple(perm), total))

    def walk(used, h, l, v):
        if used == full:
            leaf(v + o * (h + l))
            return
        for i in free[used]:
            perm.append(i)
            walk(used | 1 << i, *step(boxes[i], h, l, v))
            perm.pop()

    if first is None:
        walk(0, h0, l0, 0)
    else:
        perm.append(first)
        walk(1 << first, *step(boxes[first], h0, l0, 0))
    best, slack = top
    return finish(best), sorted(p for p, t in found if t >= best - slack), cls
