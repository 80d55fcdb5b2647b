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

The walk prunes with a payoff bound that keeps every tie; see _walk.

model.evaluate stays the readable Bayes-form reference; tests pin
order_value, order_line and both walkers against it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import lcm

# Float values within this much (relative to max(1, |best|)) of the best
# tie with it; see tie_slack.
FLOAT_TIE_TOL = 1e-12

# A float walk prunes a subtree only when its bound falls below the tie
# floor by more than this share of the largest magnitude a value or a
# bound can reach (see _walk); the rounding of ten float steps is under
# 1e-12 of it.
FLOAT_BOUND_ALLOWANCE = 1e-9

# The walk tests its bound only on subtrees with at least this many
# journals still free; smaller ones are too cheap to repay the test.
BOUND_MIN_FREE = 3

# A box is the tuple (d, d - A, Q, d - Q, U A, C d) that step() reads;
# d = 1 in float mode.

def prepare(inst):
    """Exact kernel inputs (boxes, prior mass, outside) for the instance's
    sorted journals.  outside is (O, finish, uc): finish turns a complete
    order's total V + O (H + L) into its Fraction value, and uc holds each
    journal's payoff and cost (U, C), on the scale E of O."""
    js = inst.journals
    outside = inst.outside_option
    e = lcm(outside.denominator, *(x.denominator for j in js for x in (j.u, j.c)))
    prior = Fraction(inst.prior.mu_h)
    scale = e * prior.denominator
    boxes, uc = [], []
    for j in js:
        d = lcm(j.a.denominator, j.q.denominator)
        A, Q, U, C = int(j.a * d), int(j.q * d), int(j.u * e), int(j.c * e)
        boxes.append((d, d - A, Q, d - Q, U * A, C * d))
        uc.append((U, C))
        scale *= d
    mass = (prior.numerator, prior.denominator - prior.numerator)
    return boxes, mass, (int(outside * e), partial(Fraction, denominator=scale), uc)


def prepare_float(inst):
    """Float twin of prepare(): d = 1 and float coefficients."""
    boxes, uc = [], []
    for j in inst.journals:
        u, a, q, c = float(j.u), float(j.a), float(j.q), float(j.c)
        boxes.append((1, 1 - a, q, 1 - q, u * a, c))
        uc.append((u, c))
    mu = float(inst.prior.mu_h)
    return boxes, (mu, 1 - mu), (float(inst.outside_option), float, uc)


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
    o, finish, _ = outside
    return finish(v + o * (h + l))


def order_line(kernel, perm):
    """An order's values (vH, vL) at priors 1 and 0, from a kernel of
    prepare() or prepare_float() at any prior.  The walk is linear in the
    mass (h, l), so at prior mu the order is worth mu vH + (1 - mu) vL.

    Exact finish divides by E m prod(d), where m = H0 + L0 is the prior's
    denominator, and the walk from (m, 0) totals m times the walk from
    (1, 0), so (m, 0) and (0, m) give the endpoints.  Float finish has no
    prior scale, so the float endpoints are (1, 0) and (0, 1); there
    H0 + L0 = fl(mu + fl(1 - mu)) = 1 for every double mu in [0, 1].
    """
    boxes, (h0, l0), outside = kernel
    return (order_value(boxes, perm, (h0 + l0, 0), outside),
            order_value(boxes, perm, (0, h0 + l0), outside))


def tie_slack(best, tol):
    """How far below `best` a value may fall and still tie with it:
    tol relative to max(1, |best|), and 0 (exact equality) when tol is 0."""
    return tol * max(1.0, abs(best)) if tol else 0


def ties(values, tol):
    """The best of `values` and the indices of the values that tie with
    it (within its tie_slack), in increasing order."""
    best = max(values)
    floor = best - tie_slack(best, tol)
    return best, [k for k, v in enumerate(values) if v >= floor]


def best_orders(inst, first: int | None = None):
    """Exact optimum over the canonical orders (see _walk).

    Returns (best value as Fraction, canonical argmax perms in
    lexicographic order, classes, pruned subtrees); expand(perms, classes)
    lists the whole argmax set.  `first` pins the first submission, which
    is how the parallel driver slices the tree; pin only the first member
    of a class.
    """
    return _walk(prepare(inst), first, 0, 0)


def best_orders_float(inst, first: int | None = None, tol: float = FLOAT_TIE_TOL):
    """Float twin of best_orders; ties are values within tie_slack of the best."""
    return _walk(prepare_float(inst), first, tol, FLOAT_BOUND_ALLOWANCE)


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


def _walk(kernel, first, tol, rounding):
    """Walk every canonical order once per shared prefix (about e * I!
    steps for distinct journals), skipping subtrees the payoff bound rules
    out, and keep the totals that tie with the best.

    An order is canonical when each class's members appear in index
    order: journal i is free only once the previous member of its class
    is used.  A canonical order is the lexicographically first of its
    relabellings, whose totals are equal, so the relabellings the walk
    skips would never have moved the best or its tie slack.

    The bound.  From a node with mass (h, l) and value v, the mass left
    after the free journals is at least m = h Pa + l Pq, where Pa and Pq
    are the products of 1 - a and 1 - q over them: h loses at most a
    share a at each, l exactly a share q.  So at most h + l - m is
    accepted, at a payoff of at most U, the lowest free index's (journals
    are sorted by decreasing u), and each later cost c >= 0 is paid on at
    least m: no completion beats
        v + o (h + l) + max(U - o, 0) (h + l - m) - m * sum(free c).
    In kernel units, with rest the product of the free journals' d (1 in
    float mode), that is rest * V + bh * H + bl * L, with bh and bl
    tabled per set of used journals.

    A subtree is cut only when its bound is below the floor: the best
    total so far, minus its tie slack, minus `rounding` times
    S = (H0 + L0) (|O| + max |U| + sum C), which bounds every value and
    bound the walk meets (0 in exact mode, FLOAT_BOUND_ALLOWANCE in float
    mode, far above the float rounding of a bound or a total).  The floor
    only rises, so a cut total would never have entered the argmax set or
    moved the best: ties survive, and the result is the unpruned walk's.
    The walk reaches the payoff-sorted order first, a strong incumbent.
    Only nodes whose children keep BOUND_MIN_FREE or more free journals
    test the bound; the rest run the bare loop.
    """
    boxes, (h0, l0), (o, finish, uc) = kernel
    n = len(boxes)
    full = (1 << n) - 1
    cls = classes(boxes)
    last = {}
    after = []      # bit of the previous member of journal i's class, or 0
    for i, r in enumerate(cls):
        after.append(last.get(r, 0))
        last[r] = 1 << i
    # free[used]: the journals free at `used`, in index order.  Built by
    # doubling over the journals: a set without journal i gains i when it
    # holds i's predecessor, and a set with i shares the list of the set
    # without it.
    free = [[]]
    for i, p in enumerate(after):
        free = [f + [i] if used & p == p else f for used, f in enumerate(free)] + free
    # rest[used] * v + bh[used] * h + bl[used] * l bounds every completion.
    # Over the set F of free journals, bh = rest * w - pa * z and
    # bl = rest * w - pq * z: rest, pa and pq are the products of d, d - A
    # and d - Q over F, w = O + gain and z = gain + sum(C), where gain is
    # max(U - O, 0) for F's lowest index.  Each table is built by doubling,
    # so F's highest bit is the journal joined last; reversed, a table is
    # indexed by the used set, full - F.
    rest, pa, pq, w, z = [1], [1], [1], [o], [0]
    for (d, da, _, dq, _, _), (u, c) in zip(boxes, uc):
        g = max(u - o, 0)
        rest += [x * d for x in rest]
        pa += [x * da for x in pa]
        pq += [x * dq for x in pq]
        w += [o + g, *w[1:]]
        z += [g + c, *[x + c for x in z[1:]]]
    rw = [r * x for r, x in zip(rest, w)]
    bh = [x - a * y for x, a, y in zip(rw, pa, z)][::-1]
    bl = [x - q * y for x, q, y in zip(rw, pq, z)][::-1]
    rest.reverse()
    allowance = rounding and rounding * (h0 + l0) * (
        abs(o) + max(abs(u) for u, _ in uc) + sum(c for _, c in uc))
    top = [None, 0]     # best total so far and its tie slack
    floor = float("-inf")   # a subtree bounded below this cannot tie
    pruned = 0
    found: list = []    # (perm, total) pairs within the slack of the best
    perm: list = []

    def leaf(total):
        nonlocal floor
        best, slack = top
        if best is None or total > best + slack:
            top[:] = total, tie_slack(total, tol)
            floor = total - top[1] - allowance
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

    def bounded(used, h, l, v):
        nonlocal pruned
        deeper = visit[len(perm) + 1]
        for i in free[used]:
            below = used | 1 << i
            h2, l2, v2 = step(boxes[i], h, l, v)
            if rest[below] * v2 + bh[below] * h2 + bl[below] * l2 < floor:
                pruned += 1
                continue
            perm.append(i)
            deeper(below, h2, l2, v2)
            perm.pop()

    # visit[k] walks a node k journals deep: bounded while its children
    # have BOUND_MIN_FREE or more journals free
    visit = [bounded if n - k - 1 >= BOUND_MIN_FREE else walk for k in range(n + 1)]
    if first is None:
        visit[0](0, h0, l0, 0)
    else:
        perm.append(first)
        visit[1](1 << first, *step(boxes[first], h0, l0, 0))
    best, slack = top
    return (finish(best), sorted(p for p, t in found if t >= best - slack), cls,
            pruned)
