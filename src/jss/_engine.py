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

The walk prunes with a value-to-go bound that keeps every tie; see _walk.

model.evaluate stays the readable Bayes-form reference; tests pin
order_value, order_line and both walkers against it.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import factorial, lcm, prod

# Float values within this much (relative to max(1, |best|)) of the best
# tie with it; see tie_slack.
FLOAT_TIE_TOL = 1e-12

# A float walk cuts a subtree only when its bound falls below the tie floor
# by more than this share of S, the most a value or a bound reaches (_walk).
FLOAT_BOUND_ALLOWANCE = 1e-9

ARGMAX_LIMIT = factorial(9)     # most orders a solver lists as its argmax set

# A box is the tuple (d, d - A, Q, d - Q, U A, C d) that step() reads;
# d = 1 in float mode.

def prepare(inst):
    """Exact kernel inputs (boxes, prior mass, outside) for the instance's
    sorted journals.  outside is (O, finish, allowance): finish turns a
    complete order's total V + O (H + L) into its Fraction value, and the
    bound's rounding allowance is 0 (see _walk)."""
    js = inst.journals
    outside = inst.outside_option
    e = lcm(outside.denominator, *(x.denominator for j in js for x in (j.u, j.c)))
    prior = Fraction(inst.prior.mu_h)
    scale = e * prior.denominator
    boxes = []
    for j in js:
        d = lcm(j.a.denominator, j.q.denominator)
        A, Q, U, C = int(j.a * d), int(j.q * d), int(j.u * e), int(j.c * e)
        boxes.append((d, d - A, Q, d - Q, U * A, C * d))
        scale *= d
    mass = (prior.numerator, prior.denominator - prior.numerator)
    return boxes, mass, (int(outside * e), partial(Fraction, denominator=scale), 0)


def prepare_float(inst):
    """Float twin of prepare(): d = 1, float coefficients, and the bound's
    allowance FLOAT_BOUND_ALLOWANCE (|O| + max |u| + sum c) (see _walk)."""
    boxes = []
    for j in inst.journals:
        u, a, q, c = float(j.u), float(j.a), float(j.q), float(j.c)
        boxes.append((1, 1 - a, q, 1 - q, u * a, c))
    mu = float(inst.prior.mu_h)
    o = float(inst.outside_option)
    size = abs(o) + max(abs(float(j.u)) for j in inst.journals) + sum(box[5] for box in boxes)
    return boxes, (mu, 1 - mu), (o, float, FLOAT_BOUND_ALLOWANCE * size)


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


def tie_slack(best):
    """How far below `best` a value may fall and still tie with it:
    FLOAT_TIE_TOL relative to max(1, |best|) for a float, else 0."""
    return FLOAT_TIE_TOL * max(1.0, abs(best)) if isinstance(best, float) else 0


def ties(values):
    """The best of `values` and the indices of the values that tie with
    it (within its tie_slack), in increasing order."""
    best = max(values)
    floor = best - tie_slack(best)
    return best, [k for k, v in enumerate(values) if v >= floor]


def best_orders(inst, first: int | None = None):
    """Exact optimum over the canonical orders (see _walk).

    Returns (best value as Fraction, canonical argmax perms in
    lexicographic order, classes, pruned subtrees); expand(perms, classes)
    lists the whole argmax set.  `first` pins the first submission, which
    is how the parallel driver slices the tree; pin only the first member
    of a class.  Raises TieLimit once the argmax set is known to hold more
    than ARGMAX_LIMIT orders.
    """
    return _walk(prepare(inst), first)


def best_orders_float(inst, first: int | None = None):
    """Float twin of best_orders; ties and the stop as _walk sets them."""
    return _walk(prepare_float(inst), first)


class TieLimit(Exception):
    """A walk stopped: the argmax set has at least args[0] orders, more
    than ARGMAX_LIMIT."""


def rest_table(boxes):
    """rest[used]: the product of d over the journals not in `used` (1 in
    float mode), the factor a gain made on the way to `used` still lacks
    for the denominator all complete orders share."""
    full = (1 << len(boxes)) - 1
    rest = [1] * (full + 1)
    for t in range(full - 1, -1, -1):
        j = (~t & (t + 1)).bit_length() - 1     # the lowest journal not in t
        rest[t] = rest[t | 1 << j] * boxes[j][0]
    return rest


def classes(boxes):
    """Journal i's class of interchangeable journals, named by its first
    member: journals with equal boxes give the same arithmetic in either
    order."""
    first = {}
    return tuple(first.setdefault(box, i) for i, box in enumerate(boxes))


def relabellings(cls):
    """How many orders each canonical order stands for: the product of
    the factorials of the class sizes."""
    return prod(map(factorial, Counter(cls).values()))


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


def tables(boxes, cls, o):
    """The walk's tables, indexed by the set of used journals (see _walk):
    free[used], the journals free at `used` in index order, and rest, bh
    and bl of the bound, whose bh and bl hold on the canonical sets."""
    full = (1 << len(boxes)) - 1
    last = {}
    after = []      # bit of the previous member of journal i's class, or 0
    for i, r in enumerate(cls):
        after.append(last.get(r, 0))
        last[r] = 1 << i
    # free[used]: the journals free at `used`, in index order.  Built by
    # doubling over the journals: a set without journal i gains i when it
    # holds i's predecessor, and a set with i shares the list of the set
    # without it.  Every set short of the full one has a free journal.
    # The canonical sets, which the walk reaches, grow the same way.
    free = [[]]
    reached = [0]
    for i, p in enumerate(after):
        free = [f + [i] if used & p == p else f for used, f in enumerate(free)] + free
        reached += [used | 1 << i for used in reached if used & p == p]
    rest = rest_table(boxes)
    # bh and bl from the full set down; a canonical set's free moves lead
    # to canonical sets
    bh = [o] * (full + 1)
    bl = [o] * (full + 1)
    moves = [(1 << i, da, q, dq, cd, ua - cd) for i, (_, da, q, dq, ua, cd) in enumerate(boxes)]
    for used in sorted(reached, reverse=True)[1:]:
        h = l = float("-inf")
        for i in free[used]:
            bit, da, q, dq, cd, gain = moves[i]
            t = used | bit
            r, x = rest[t], bh[t]
            y = r * gain + da * x
            if y > h:
                h = y
            y = q * x - r * cd + dq * bl[t]
            if y > l:
                l = y
        bh[used], bl[used] = h, l
    return free, rest, bh, bl


def _walk(kernel, first):
    """Walk every canonical order once per shared prefix (about e * I!
    steps for distinct journals), skipping subtrees the value-to-go bound
    rules out, and keep the totals that tie with the best.

    An order is canonical when each class's members appear in index
    order: journal i is free only once the previous member of its class
    is used.  A canonical order is the lexicographically first of its
    relabellings, whose totals are equal, so the relabellings the walk
    skips would never have moved the best or its tie slack.

    The bound.  A completion of a node at used set S with mass (H, L) and
    value V totals rest[S] V + alpha H + beta L, where rest[S] is the
    product of d over the journals not in S (see rest_table) and (alpha,
    beta) depends on the completion alone.  Joining journal i first, with
    T = S | {i} and (alpha', beta') the rest of the completion at T, gives

        alpha = rest[T] (U A - C d) + (d - A) alpha',
        beta  = -rest[T] C d + Q alpha' + (d - Q) beta',

    and alpha = beta = O at the full set.  H, L >= 0, so no completion
    beats rest[S] V + bh[S] H + bl[S] L, where one backward pass over the
    used sets tables

        bh[S] = max over free i of rest[T] (U A - C d) + (d - A) bh[T],
        bl[S] = max over free i of Q bh[T] - rest[T] C d + (d - Q) bl[T].

    bh[S] is the largest alpha, the exact value to go at mass (1, 0), and
    bl[S] is at least the largest beta, as d - A, Q and d - Q are >= 0.
    Taking the max over the free journals alone loses nothing: a
    relabelling of a completion has the same (alpha, beta).

    A subtree is cut only when its bound is below the floor: the best
    total so far, minus its tie slack, minus the kernel's allowance, 0 in
    exact mode and FLOAT_BOUND_ALLOWANCE times S = (H0 + L0) (|O| +
    max |U| + sum C) in float mode, where S bounds every value and bound
    the walk meets (H0 + L0 = 1 there; see order_line).  The floor only
    rises, so a cut total would never have entered the argmax set or
    moved the best: ties survive, and the result is the unpruned walk's.
    The walk reaches the payoff-sorted order first, a strong incumbent.
    Every child tests the bound.  At a leaf rest = 1 and bh = bl = O, so
    the bound is the order's total.

    Float rounding.  In float mode d = 1, and 1 - a, q and 1 - q lie in
    [0, 1].  So an entry of bh or bl mixes its child's entries with
    weights in [0, 1] that sum to at most 1, adds u a at most |u| a with
    the rest of the weight, and subtracts c: by induction each entry is
    at most M = max(|O|, max |U|) + sum C in magnitude, and a bound is at
    most S, as the mass accepted so far and the mass left share H0 + L0.
    An entry adds at most four roundings of terms below 2M to its child's
    error, which those weights do not grow, so after at most ten levels a
    table is within 80 * 2^-53 M < 1e-14 M of its real value, and a
    computed bound is within 1e-13 S of the real bound of the node's
    float state.  A computed total is as close to that state's real
    completion.  Both errors sit far below the allowance 1e-9 S.

    The limit.  No real total exceeds the real root bound, so no computed
    total exceeds the computed R = bh[0] H0 + bl[0] L0 by more than a
    margin: 0 in exact mode, and in float mode 4e-13 S, twice the sum of
    the two 1e-13 S errors above, which also covers rounding R + margin
    and best + slack.  So once best + slack reaches R + margin (best == R in
    exact mode), no later total displaces the best or evicts a tie.  From
    then on, once the canonical ties stand for more than ARGMAX_LIMIT
    orders (each for relabellings(cls) of them), the walk raises TieLimit
    with their count, a lower bound on the set's size.  A float walk
    whose slack stays below R + margin - best, as where S is large
    against |best|, never stops.
    """
    boxes, (h0, l0), (o, finish, allowance) = kernel
    full = (1 << len(boxes)) - 1
    cls = classes(boxes)
    free, rest, bh, bl = tables(boxes, cls, o)
    top = [None, 0]     # best total so far and its tie slack
    floor = float("-inf")   # a subtree bounded below this cannot tie
    pruned = 0
    found: list = []    # (perm, total) pairs within the slack of the best
    margin = allowance and allowance * (4e-13 / FLOAT_BOUND_ALLOWANCE)  # 4e-13 S
    ceiling = bh[0] * h0 + bl[0] * l0 + margin  # no total passes it; see The limit
    per = relabellings(cls)
    perm: list = []

    def leaf(total):
        nonlocal floor
        best, slack = top
        if best is None or total > best + slack:
            top[:] = total, tie_slack(total)
            floor = total - top[1] - allowance
            found[:] = [(p, t) for p, t in found if t >= total - top[1]]
            found.append((tuple(perm), total))
        elif total >= best - slack:
            found.append((tuple(perm), total))
            if len(found) * per > ARGMAX_LIMIT and best + slack >= ceiling:
                raise TieLimit(len(found) * per)

    def walk(used, h, l, v):
        nonlocal pruned
        if used == full:
            leaf(v + o * (h + l))
            return
        for i in free[used]:
            below = used | 1 << i
            h2, l2, v2 = step(boxes[i], h, l, v)
            if rest[below] * v2 + bh[below] * h2 + bl[below] * l2 < floor:
                pruned += 1
                continue
            perm.append(i)
            walk(below, h2, l2, v2)
            perm.pop()

    if first is None:
        walk(0, h0, l0, 0)
    else:
        perm.append(first)
        walk(1 << first, *step(boxes[first], h0, l0, 0))
    best, slack = top
    return (finish(best), sorted(p for p, t in found if t >= best - slack), cls,
            pruned)
