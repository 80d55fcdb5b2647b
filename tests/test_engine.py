"""The (H, L) mass kernel against the Bayes-form reference model.evaluate.

Random instances up to five journals cover sure acceptance (a = 1), no
feedback (q = 0), priors 0 and 1, negative payoffs, costs and a nonzero
outside option.  Every order's kernel value must equal evaluate()'s
exactly (within 1e-12 in float mode), and both walkers must return
evaluate()'s maximisers.

Instances with interchangeable journals (equal kernel boxes) pin the
class walk, which visits one canonical order per relabelling and expands
the argmax set afterwards, against a full walk over every order.  The
same reference pins the pruned walk: every `first=` slice, in both
modes, must give the unpruned walk's best and canonical argmax perms,
exact ties and float near ties included.  The bound's tables are pinned
on their own against the best completion of every canonical prefix.
"""
import itertools
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jss import Belief, Instance, Journal, SearchOrder, evaluate, example_pair
from jss import _engine

FLOAT_RTOL = 1e-12


def _fractions(lo, hi, den=12):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=den)


unit = st.one_of(st.sampled_from([F(0), F(1)]), _fractions(0, 1))
FIELDS = {
    "u": _fractions(-3, 10),
    "a": unit,
    "q": st.one_of(st.just(F(0)), _fractions(0, F(11, 12))),
    "c": st.one_of(st.just(F(0)), _fractions(0, 2)),
}
journal = st.builds(Journal, name=st.just("J"), **FIELDS)
instances = st.builds(
    lambda js, prior, outside: Instance(
        tuple(Journal(f"J{k}", j.u, j.a, j.q, j.c) for k, j in enumerate(js)),
        Belief(prior), outside),
    st.lists(journal, min_size=1, max_size=5),
    unit,
    st.one_of(st.just(F(0)), _fractions(-3, 3)),
)


def _expanded(result):
    best, canonical, cls, _ = result
    return best, _engine.expand(canonical, cls)


def _values(inst):
    return {p: evaluate(inst, SearchOrder(p)).total
            for p in itertools.permutations(range(inst.size))}


@settings(max_examples=120, deadline=None)
@given(inst=instances)
def test_order_value_matches_evaluate(inst):
    exact = _engine.prepare(inst)
    floats = _engine.prepare_float(inst)
    for perm, want in _values(inst).items():
        assert _engine.order_value(exact[0], perm, *exact[1:]) == want
        got = _engine.order_value(floats[0], perm, *floats[1:])
        assert isinstance(got, float)
        assert got == pytest.approx(float(want), rel=FLOAT_RTOL, abs=FLOAT_RTOL)


costly = st.builds(
    lambda js, prior, outside: Instance(
        tuple(Journal(f"J{k}", j.u, j.a, j.q, c) for k, (j, c) in enumerate(js)),
        Belief(prior), outside),
    st.lists(st.tuples(journal, _fractions(F(1, 12), 2)), min_size=1, max_size=4),
    unit,
    _fractions(-3, 3).filter(bool),
)


@settings(max_examples=120, deadline=None)
@given(inst=costly, priors=st.lists(unit, min_size=1, max_size=3))
def test_order_line_matches_evaluate(inst, priors):
    # the kernel is prepared at the instance's own prior, whose denominator
    # is already in the exact finish; the line must not depend on it
    exact = _engine.prepare(inst)
    floats = _engine.prepare_float(inst)
    for perm in itertools.permutations(range(inst.size)):
        vh, vl = _engine.order_line(exact, perm)
        fh, fl = _engine.order_line(floats, perm)
        for mu in priors:
            want = evaluate(inst.with_prior(mu), SearchOrder(perm)).total
            assert mu * vh + (1 - mu) * vl == want
            got = float(mu) * fh + (1 - float(mu)) * fl
            assert got == pytest.approx(float(want), rel=FLOAT_RTOL, abs=FLOAT_RTOL)


@settings(max_examples=120, deadline=None)
@given(inst=instances)
def test_walkers_return_the_maximisers_of_evaluate(inst):
    values = _values(inst)
    best = max(values.values())
    maximisers = sorted(p for p, v in values.items() if v == best)
    assert _expanded(_engine.best_orders(inst)) == (best, maximisers)

    fbest, fargmax = _expanded(_engine.best_orders_float(inst))
    assert fbest == pytest.approx(float(best), rel=FLOAT_RTOL, abs=FLOAT_RTOL)
    # float ties may only admit orders whose exact value is within the
    # tolerance of the best; every exact maximiser must be among them
    assert set(maximisers) <= set(fargmax)
    slack = 2 * FLOAT_RTOL * max(1, abs(best))
    assert all(values[p] >= best - slack for p in fargmax)



def _full_walk(kernel, tol, first=None):
    """Reference walk over every order (or every order that starts with
    `first`), without the class restriction or the bound."""
    boxes, (h0, l0), (o, finish, _) = kernel
    n = len(boxes)
    full = (1 << n) - 1
    free = [[i for i in range(n) if not used >> i & 1] for used in range(full + 1)]
    top = [None, 0]
    found: list = []
    perm: list = []

    def leaf(total):
        best, slack = top
        if best is None or total > best + slack:
            top[:] = total, _engine.tie_slack(total, tol)
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
            walk(used | 1 << i, *_engine.step(boxes[i], h, l, v))
            perm.pop()

    if first is None:
        walk(0, h0, l0, 0)
    else:
        perm.append(first)
        walk(1 << first, *_engine.step(boxes[first], h0, l0, 0))
    best, slack = top
    return finish(best), sorted(p for p, t in found if t >= best - slack)


# A rate this far from another is a different Fraction but the same float.
TINY = F(1, 10 ** 30)


@st.composite
def duplicated(draw):
    """Up to seven journals copied from up to three templates.  A copy may
    redraw one field, so it differs from its template in that field alone
    (a copy of a journal with a = 0 that redraws u keeps an equal box), or
    move a by TINY (equal float boxes, different exact ones)."""
    templates = draw(st.lists(journal, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=7))
    js = []
    for k, t in enumerate(picks):
        fields = {f: getattr(templates[t], f) for f in FIELDS}
        change = draw(st.sampled_from(["", "", "tiny", *FIELDS]))
        if change == "tiny" and 0 < fields["a"] < 1:
            fields["a"] += TINY
        elif change in FIELDS:
            fields[change] = draw(FIELDS[change])
        js.append(Journal(f"J{k}", **fields))
    prior = draw(unit)
    outside = draw(st.one_of(st.just(F(0)), _fractions(-3, 3)))
    return Instance(tuple(js), Belief(prior), outside)


def _copies(n, u, a, q, c=0, prior=F(1, 2), outside=0, us=None):
    us = us or [u] * n
    return Instance(tuple(Journal(f"J{k}", us[k], a, q, c) for k in range(n)),
                    Belief(prior), outside)


@settings(max_examples=150, deadline=None)
@given(inst=duplicated())
@example(inst=_copies(5, 0, 0, F(1, 3), c=F(1, 4), us=[5, 4, 3, 2, 1]))    # a = 0
@example(inst=_copies(6, 3, 1, 0, c=F(1, 2)))                               # a = 1, q = 0
@example(inst=_copies(6, 2, F(1, 3), F(1, 5), prior=0, outside=F(1, 2)))
@example(inst=_copies(6, 2, F(1, 3), F(1, 5), prior=1, outside=-1))
@example(inst=Instance(tuple(Journal(f"J{k}", 2, F(1, 3) + TINY * (k % 2), F(1, 5))
                             for k in range(6)), Belief(F(2, 3))))
def test_class_walk_matches_the_full_walk(inst):
    for prepare, walker, tol in ((_engine.prepare, _engine.best_orders, 0),
                                 (_engine.prepare_float, _engine.best_orders_float,
                                  _engine.FLOAT_TIE_TOL)):
        assert _expanded(walker(inst)) == _full_walk(prepare(inst), tol)


def test_classes_follow_equal_boxes():
    inst = Instance((Journal("A", 3, F(1, 3) + TINY, F(1, 5)), Journal("B", 3, F(1, 3), F(1, 5)),
                     Journal("C", 1, 0, F(1, 5)), Journal("D", 0, 0, F(1, 5))),
                    Belief(F(1, 2)))
    assert _engine.classes(_engine.prepare(inst)[0]) == (0, 1, 2, 2)
    assert _engine.classes(_engine.prepare_float(inst)[0]) == (0, 0, 2, 2)
    assert _engine.expand([(0, 2, 1, 3)], (0, 0, 2, 2)) == [
        (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2)]


def _canonical(perm, cls):
    """Each class's members appear in index order."""
    last = {}
    for i in perm:
        if last.get(cls[i], -1) > i:
            return False
        last[cls[i]] = i
    return True


# exact, float, and float ties by == (where the bound's rounding allowance,
# not the tie slack, keeps last-bit near ties)
MODES = ((_engine.prepare, _engine.best_orders, 0),
         (_engine.prepare_float, _engine.best_orders_float, _engine.FLOAT_TIE_TOL),
         (_engine.prepare_float, partial(_engine.best_orders_float, tol=0), 0))

pruning = st.builds(
    lambda js, prior, outside: Instance(
        tuple(Journal(f"J{k}", j.u, j.a, j.q, j.c) for k, j in enumerate(js)),
        Belief(prior), outside),
    st.lists(journal, min_size=4, max_size=6),
    unit,
    st.one_of(st.just(F(0)), _fractions(-3, 3), _fractions(8, 12)),
)


def _journals(rows, prior=F(1, 2), outside=0):
    return Instance(tuple(Journal(f"J{k}", *row) for k, row in enumerate(rows)),
                    Belief(prior), outside)


@settings(max_examples=80, deadline=None)
@given(inst=st.one_of(pruning, duplicated()))
@example(inst=_journals([(k, F(1, k + 1), F(1, 5), F(1, 8)) for k in range(5)],
                        outside=7))                                 # outside above every u
@example(inst=_journals([(-k, F(1, 3), F(1, 4), F(1, 8)) for k in range(1, 6)],
                        outside=-1))                                # all-negative u
@example(inst=_journals([(2, 1, F(1, k + 2), 0) for k in range(5)],
                        prior=1))                                   # equal totals, at the bound
@example(inst=_journals([(0, 0, 0, F(k, 5)) for k in range(1, 6)]))  # equal totals, costs only
@example(inst=_journals([(5, 1, 0, F(1, 2)), (4, F(1, 3), F(1, 4), 0), (3, 1, 0, 0),
                         (2, F(2, 3), 0, F(1, 4)), (1, 1, F(1, 2), F(1, 8))]))  # a = 1, q = 0
@example(inst=_journals([(3 - k, F(1, 2), F(1, 3), F(1, 4)) for k in range(5)], prior=0))
@example(inst=_journals([(3 - k, F(1, 2), F(1, 3), F(1, 4)) for k in range(5)], prior=1))
@example(inst=_journals([(0, 0, 0, F(k, 10)) for k in (1, 2, 3, 7, 9)]))  # float ulp tie
def test_pruned_walk_matches_the_full_walk(inst):
    for prepare, walker, tol in MODES:
        kernel = prepare(inst)
        cls = _engine.classes(kernel[0])
        for first in (None, *sorted(set(cls))):
            best, perms = _full_walk(kernel, tol, first)
            canonical = [p for p in perms if _canonical(p, cls)]
            assert walker(inst, first=first)[:3] == (best, canonical, cls)


def test_ulp_example_is_a_float_near_tie():
    """The last example above: all 120 orders are worth the same exactly,
    and their float totals differ in the last bits."""
    inst = _journals([(0, 0, 0, F(k, 10)) for k in (1, 2, 3, 7, 9)])
    boxes, prior, outside = _engine.prepare_float(inst)
    totals = {_engine.order_value(boxes, p, prior, outside)
              for p in itertools.permutations(range(5))}
    assert len(totals) > 1
    assert len(_engine.best_orders(inst)[1]) == len(_engine.best_orders_float(inst)[1]) == 120


def test_bound_prunes_a_random_eight_journal_instance():
    from jss.generators import GeneratorSpec, gen_random_instance
    from jss.solver import brute_force_optimal

    inst = gen_random_instance(GeneratorSpec("unconstrained", (8, 8), seed=3))
    for mode in ("exact", "float"):
        res = brute_force_optimal(inst, mode=mode)
        assert res.details["pruned"] > 0
        assert res.details["orders_considered"] == 109600


def test_bound_cuts_an_order_at_its_last_step():
    """Two journals: the bound is tested down to the leaves, so the worse
    of the two orders is cut at its last journal."""
    from jss.solver import brute_force_optimal

    for mode in ("exact", "float"):
        assert brute_force_optimal(example_pair("9/10"), mode=mode).details["pruned"] == 1


def _best_completion(boxes, o, used, h, l, v=0):
    """The best total over every order of the journals not in `used`,
    classes ignored, from mass (h, l) and value v."""
    if used == (1 << len(boxes)) - 1:
        return v + o * (h + l)
    return max(_best_completion(boxes, o, used | 1 << i, *_engine.step(boxes[i], h, l, v))
               for i in range(len(boxes)) if not used >> i & 1)


@settings(max_examples=40, deadline=None)
@given(inst=st.one_of(instances, duplicated().filter(lambda inst: inst.size <= 6)))
@example(inst=_journals([(3, 1, 0, 0), (2, 1, F(1, 2), 0), (1, F(1, 2), F(1, 3), F(1, 4))],
                        prior=1))                                   # a = 1: zero mass
@example(inst=_journals([(3, 1, F(1, 2), 0), (2, F(1, 4), 0, F(1, 2)), (1, 1, 0, F(1, 3))],
                        prior=0, outside=-1))
@example(inst=_copies(6, 2, F(1, 3), F(1, 5), prior=0, outside=F(1, 2)))
@example(inst=_copies(6, 3, 1, 0, c=F(1, 2), prior=1))
def test_tables_bound_every_completion(inst):
    """At every node of a canonical prefix the bound is at least the best
    completion (the value so far enters both as rest * v, so it is left
    at 0), and bh is the value to go at mass (1, 0)."""
    js = inst.journals
    scale = float(abs(inst.outside_option) + max(abs(j.u) for j in js) + sum(j.c for j in js))
    for prepare, slack in ((_engine.prepare, 0), (_engine.prepare_float, 1e-12 * scale)):
        boxes, (h0, l0), (o, _, _) = prepare(inst)
        free, _, bh, bl = _engine.tables(boxes, _engine.classes(boxes), o)
        reached = set()

        def check(used, h, l):
            reached.add(used)
            assert bh[used] * h + bl[used] * l >= _best_completion(boxes, o, used, h, l) - slack
            for i in free[used]:
                check(used | 1 << i, *_engine.step(boxes[i], h, l, 0)[:2])

        check(0, h0, l0)
        for used in reached:
            best = _best_completion(boxes, o, used, 1, 0)
            assert abs(bh[used] - best) <= slack, (used, bh[used], best)


@settings(max_examples=60, deadline=None)
@given(inst=duplicated(), limit=st.integers(1, 40))
def test_a_walk_stops_only_over_its_limit(inst, limit):
    best, canonical, cls, pruned = _engine.best_orders(inst)
    size = len(canonical) * _engine.relabellings(cls)
    try:
        got = _engine._walk(_engine.prepare(inst), None, 0, 0, limit)
    except _engine.TieLimit as stop:
        assert limit < stop.args[0] <= size
    else:
        assert got == (best, canonical, cls, pruned)


def test_a_walk_at_the_root_bound_stops_past_its_limit():
    """All 5! orders are worth 0 and no journal is interchangeable: every
    leaf meets the root's bound, so the walk stops at the first tie past
    the limit."""
    inst = _journals([(1, 0, F(k, 10), 0) for k in range(1, 6)])
    kernel = _engine.prepare(inst)
    assert len(_engine._walk(kernel, None, 0, 0, 120)[1]) == 120
    with pytest.raises(_engine.TieLimit) as stop:
        _engine._walk(kernel, None, 0, 0, 50)
    assert stop.value.args == (51,)
