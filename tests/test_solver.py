"""Solvers: brute force, index rule, subset DP, local search, thresholds,
prior sweeps.  Dual-route checks pit each fast path against genuine
enumeration on the same instance."""
import io
import itertools
import random
from fractions import Fraction as F

import pytest

from jss import (
    Belief,
    Instance,
    Journal,
    SearchOrder,
    SolverError,
    belief_grid,
    brute_force_optimal,
    dump_instance,
    evaluate,
    example_pair,
    index_order_no_feedback,
    monotone_order,
    pairwise_swap_local_search,
    payoff_sweep,
    prior_threshold_2box,
    subset_dp_optimal,
)
from jss import _engine
from jss._engine import FLOAT_TIE_TOL
from jss.catalog import BY_NAME
from jss.solver import GRID_LIMIT, first_optimal
from jss.generators import sample_order_independent


@pytest.fixture
def pair():
    return example_pair("1/2")


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_two_box_sides(pair):
    below = brute_force_optimal(pair.with_prior(F(17, 29) - F(1, 10 ** 6)))
    above = brute_force_optimal(pair.with_prior(F(17, 29) + F(1, 10 ** 6)))
    assert below.best_order.perm == (1, 0)
    assert above.best_order.perm == (0, 1)
    assert len(below.argmax_set) == len(above.argmax_set) == 1


def test_brute_force_tie_at_boundary(pair):
    res = brute_force_optimal(pair.with_prior(F(17, 29)))
    assert res.best_value == F(109, 145)
    assert res.argmax_set == ((0, 1), (1, 0))


def test_brute_force_agrees_with_plain_evaluation():
    # small random-ish instance, value checked against direct enumeration
    js = (
        Journal("A", 4, F(1, 3), F(1, 4)),
        Journal("B", 3, F(2, 5), F(1, 8), c=F(1, 10)),
        Journal("C", 1, F(3, 4), F(1, 2)),
    )
    inst = Instance(js, Belief(F(3, 7)), outside_option=F(1, 5))
    res = brute_force_optimal(inst)
    by_hand = {
        perm: evaluate(inst, SearchOrder(perm)).total
        for perm in itertools.permutations(range(3))
    }
    best = max(by_hand.values())
    assert res.best_value == best
    assert set(res.argmax_set) == {
        p for p, v in by_hand.items() if v == best
    }


def test_brute_force_cap():
    js = tuple(Journal(f"J{i}", 20 - i, F(1, 2), 0) for i in range(11))
    with pytest.raises(SolverError):
        brute_force_optimal(Instance(js, Belief(F(1, 2))))


def _identical(n, a=F(1, 3), q=F(1, 5)):
    return Instance(tuple(Journal(f"J{k}", 2, a, q, F(1, 10)) for k in range(n)),
                    Belief(F(1, 2)))


def _classes():
    """Three identical journals, a distinct one and an identical pair."""
    return Instance(_identical(3).journals + (Journal("K", 2, F(1, 2), F(1, 7)),)
                    + tuple(Journal(f"L{k}", 1, F(1, 4), 0) for k in range(2)),
                    Belief(F(3, 5)))


def test_brute_force_thread_count_does_not_change_answer(pair):
    # the second instance has classes of interchangeable journals: the
    # split walks one slice per class and expands the merged argmax once
    for inst in (pair.with_prior(F(17, 29)), _classes()):
        for mode in ("exact", "float"):
            solo = brute_force_optimal(inst, mode=mode, threads=1)
            split = brute_force_optimal(inst, mode=mode, threads=2)
            assert solo.best_value == split.best_value
            assert solo.argmax_set == split.argmax_set


def test_split_sums_the_pruned_subtrees_of_its_slices():
    from jss import _engine
    from jss.generators import GeneratorSpec, gen_random_instance

    inst = gen_random_instance(GeneratorSpec("unconstrained", (7, 7), seed=5))
    for mode, walker in (("exact", _engine.best_orders),
                         ("float", _engine.best_orders_float)):
        split = brute_force_optimal(inst, mode=mode, threads=2)
        slices = sum(walker(inst, first=f)[3] for f in range(inst.size))
        assert split.details["pruned"] == slices > 0


def test_identical_journals_list_every_order():
    for mode in ("exact", "float"):
        res = brute_force_optimal(_identical(8), mode=mode)
        assert res.argmax_set == tuple(itertools.permutations(range(8)))
        assert res.best_order.perm == tuple(range(8))


def test_every_solver_lists_every_order_of_identical_journals():
    # with q = 0 the journals are feedback-free and order-independent, so
    # brute force, the subset DP and the index rule all apply
    inst = _identical(8, q=0)
    every = tuple(itertools.permutations(range(8)))
    for res in (brute_force_optimal(inst), subset_dp_optimal(inst),
                subset_dp_optimal(inst, mode="float"), index_order_no_feedback(inst)):
        assert res.argmax_set == every
        assert res.best_order.perm == every[0]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_argmax_set_is_sorted_distinct_perms(mode, pair):
    # ties come from a class of identical journals (brute force), from
    # equal index keys (index rule, DP) and from a sure acceptance (DP)
    no_feedback = Instance(_identical(3, q=0).journals
                           + (Journal("K", 3, F(1, 2), 0, F(1, 10)),), Belief(F(1, 2)))
    sure = Instance((Journal("A", 4, F(1, 2), 0), Journal("SURE", 2, 1, 0),
                     Journal("C", 1, F(1, 3), 0), Journal("D", F(1, 2), F(1, 4), 0)),
                    Belief(F(1)))
    solves = [brute_force_optimal(_classes(), mode=mode),
              brute_force_optimal(pair.with_prior(F(17, 29)), mode=mode),
              subset_dp_optimal(no_feedback, mode=mode),
              subset_dp_optimal(sure, mode=mode),
              index_order_no_feedback(no_feedback, mode=mode),
              pairwise_swap_local_search(_classes(), mode=mode)]
    assert [len(res.argmax_set) for res in solves] == [12, 2, 6, 2, 6, 1]
    for res in solves:
        perms = res.argmax_set
        assert type(perms) is tuple
        assert all(type(p) is tuple and all(type(i) is int for i in p) for p in perms)
        assert all(p < q for p, q in zip(perms, perms[1:]))
        assert perms[0] == res.best_order.perm


def test_argmax_set_over_the_limit_fails_fast():
    with pytest.raises(SolverError, match="362880"):
        brute_force_optimal(_identical(10))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_first_optimal_is_the_head_and_size_of_the_argmax_set(mode, pair):
    for inst in (pair.with_prior(F(17, 29)), _classes(), _identical(6)):
        res = brute_force_optimal(inst, mode=mode)
        assert first_optimal(inst, mode) == (res.best_value, res.argmax_set[0],
                                             len(res.argmax_set))
    # it never lists the set, so ten identical journals answer
    assert first_optimal(_identical(10), mode)[1:] == (tuple(range(10)), 3628800)
    with pytest.raises(SolverError, match="cap"):
        first_optimal(_identical(11), mode)


def test_brute_force_float_mode(pair):
    inst = pair.with_prior(F(7, 10))
    res = brute_force_optimal(inst, mode="float")
    assert res.best_order.perm == (0, 1)
    assert res.best_value == pytest.approx(443 / 500, abs=1e-12)


# ---------------------------------------------------------------------------
# index rule (no feedback)


def test_index_rule_prefers_cost_adjusted_rate_over_raw_payoff():
    # u - c/a: 10 - 2 = 8 loses to 9 - 0.1 = 8.9 despite the higher payoff
    hi = Journal("HI", 10, F(1, 2), 0, c=1)
    lo = Journal("LO", 9, F(9, 10), 0, c=F(9, 100))
    for prior in (F(1, 3), F(1), F(1, 100)):
        inst = Instance((hi, lo), Belief(prior))
        res = index_order_no_feedback(inst)
        assert res.best_order.perm == (1, 0)
        brute = brute_force_optimal(inst)
        assert res.best_value == brute.best_value
        assert res.best_order.perm in brute.argmax_set


def test_index_rule_rejects_feedback(pair):
    with pytest.raises(SolverError, match="J1, J2"):
        index_order_no_feedback(pair)


def test_index_rule_never_accepting_journal_sorts_last():
    js = (
        Journal("DEAD", 100, 0, 0),
        Journal("B", 2, F(1, 2), 0),
        Journal("A", 5, F(1, 4), 0),
    )
    inst = Instance(js, Belief(F(1, 2)))
    res = index_order_no_feedback(inst)
    assert inst.journal_names()[res.best_order.perm[-1]] == "DEAD"
    brute = brute_force_optimal(inst)
    assert res.best_value == brute.best_value
    assert res.best_order.perm in brute.argmax_set


def test_index_rule_tie_expansion():
    twin1 = Journal("T1", 2, F(1, 2), 0)
    twin2 = Journal("T2", 2, F(1, 2), 0)
    other = Journal("O", 5, F(1, 3), 0)
    inst = Instance((twin1, twin2, other), Belief(F(2, 3)))
    res = index_order_no_feedback(inst)
    brute = brute_force_optimal(inst)
    assert res.best_value == brute.best_value
    assert res.argmax_set == brute.argmax_set
    assert res.details["tie_orders"] == 2


def test_index_rule_lists_tied_orders_lexicographically():
    # index keys: A 4, B 4, C 3, D 3 (costs make C and D tie), E and F never accept
    js = (
        Journal("A", 4, F(1, 2), 0),
        Journal("B", 4, F(1, 3), 0),
        Journal("C", 4, F(1, 2), 0, c=F(1, 2)),
        Journal("D", 7, F(1, 4), 0, c=1),
        Journal("E", 1, 0, 0),
        Journal("F", 0, 0, 0),
    )
    inst = Instance(js, Belief(F(1, 2)))
    assert inst.journal_names() == ("D", "A", "B", "C", "E", "F")
    res = index_order_no_feedback(inst)
    assert res.argmax_set == (
        (1, 2, 0, 3, 4, 5), (1, 2, 0, 3, 5, 4), (1, 2, 3, 0, 4, 5), (1, 2, 3, 0, 5, 4),
        (2, 1, 0, 3, 4, 5), (2, 1, 0, 3, 5, 4), (2, 1, 3, 0, 4, 5), (2, 1, 3, 0, 5, 4),
    )
    assert res.best_order.perm == (1, 2, 0, 3, 4, 5)
    assert res.details["tie_orders"] == 8
    brute = brute_force_optimal(inst)
    assert res.best_value == brute.best_value
    assert set(res.argmax_set) <= set(brute.argmax_set)


def test_index_rule_float_mode():
    hi = Journal("HI", 10, F(1, 2), 0, c=1)
    lo = Journal("LO", 9, F(9, 10), 0, c=F(9, 100))
    inst = Instance((hi, lo), Belief(F(1, 3)), outside_option=F(1, 7))
    exact = index_order_no_feedback(inst)
    floats = index_order_no_feedback(inst, mode="float")
    assert isinstance(floats.best_value, float)
    assert abs(floats.best_value - exact.best_value) <= FLOAT_TIE_TOL * max(
        1, abs(exact.best_value))
    assert floats.argmax_set == exact.argmax_set
    with pytest.raises(SolverError, match="mode must be"):
        index_order_no_feedback(inst, mode="fast")


# ---------------------------------------------------------------------------
# subset DP


def _oi_instance():
    # a_i q_j = a_j q_i via a shared feedback-to-acceptance ratio 1/2
    js = (
        Journal("A", 6, F(2, 5), F(1, 5), c=F(1, 25)),
        Journal("B", 3, F(1, 2), F(1, 4)),
        Journal("C", 2, F(1, 5), F(1, 10), c=F(1, 50)),
        Journal("D", 1, F(4, 5), F(2, 5)),
    )
    return Instance(js, Belief(F(3, 5)), outside_option=F(1, 10))


def test_subset_dp_matches_brute_force():
    inst = _oi_instance()
    dp = subset_dp_optimal(inst)
    brute = brute_force_optimal(inst)
    assert dp.best_value == brute.best_value
    assert dp.argmax_set == brute.argmax_set


def test_subset_dp_rejects_order_dependent_updates(pair):
    with pytest.raises(SolverError, match="order-independent"):
        subset_dp_optimal(pair)


def test_subset_dp_ties_behind_a_sure_acceptance():
    # after the a=1 journal rejects a certainly-high paper, nothing is
    # reachable: every completion ties, and both routes must say so
    js = (
        Journal("A", 4, F(1, 2), 0),
        Journal("SURE", 2, 1, 0),
        Journal("C", 1, F(1, 3), 0),
        Journal("D", F(1, 2), F(1, 4), 0),
    )
    inst = Instance(js, Belief(F(1)))
    dp = subset_dp_optimal(inst)
    brute = brute_force_optimal(inst)
    assert dp.best_value == brute.best_value == F(3)
    assert dp.argmax_set == brute.argmax_set
    assert dp.argmax_set == ((0, 1, 2, 3), (0, 1, 3, 2))


def test_subset_dp_refuses_more_journals_than_its_cap():
    # feedback-free journals commute, so only the size cap refuses them
    inst = Instance(tuple(Journal(f"J{k}", k + 1, F(1, 2), 0) for k in range(21)),
                    Belief(F(1, 2)))
    with pytest.raises(SolverError, match=r"I <= 20 journals \(2\^I states\), got 21"):
        subset_dp_optimal(inst)


@pytest.mark.parametrize("block", range(8))
def test_subset_dp_float_mode(block):
    # float ties follow the brute-force tolerance rule, so the float argmax
    # equals the exact one; comparing floats with == would split exact ties
    # (seed 74, for one)
    cases = []
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(seed)
        cases.append(sample_order_independent(rng, rng.randint(2, 6)))
    if block == 0:
        cases.append(_oi_instance())  # costs and a nonzero outside option
    for inst in cases:
        exact = subset_dp_optimal(inst)
        dp = subset_dp_optimal(inst, mode="float")
        assert dp.best_value == pytest.approx(float(exact.best_value), abs=1e-12)
        assert dp.argmax_set == exact.argmax_set, dump_instance(inst)


# ---------------------------------------------------------------------------
# local search


def test_local_search_defaults_to_monotone_start(pair):
    res = pairwise_swap_local_search(pair)  # prior 1/2: swapped order wins
    assert res.best_order.perm == (1, 0)
    assert res.best_value == F(7, 10)
    assert res.details["swaps"] == 1
    assert res.details["certified_global"] is False


def test_local_search_float_mode_keeps_exact_ties():
    # equal index keys u - c/a = 21/4 and q = 0: both orders tie at every
    # prior, but the float kernel rates the swapped one an ulp higher
    inst = Instance((Journal("A", F(37, 4), F(1, 4), 0, c=1),
                     Journal("B", F(13, 2), F(1, 5), 0, c=F(1, 4))), Belief(F(19, 64)))
    for mode in ("exact", "float"):
        res = pairwise_swap_local_search(inst, mode=mode)
        assert res.best_order.perm == (0, 1)
        assert res.details["swaps"] == 0


# ---------------------------------------------------------------------------
# two-box thresholds


def _gap(inst, mu):
    """Payoff-sorted minus swapped two-journal order at prior mu, by evaluate."""
    at = inst.with_prior(mu)
    return evaluate(at, SearchOrder((0, 1))).total - evaluate(at, SearchOrder((1, 0))).total


def test_threshold_showcase_endpoints(pair):
    j1, j2 = pair.journals
    res = prior_threshold_2box(j1, j2)
    assert res.kind == "threshold"
    assert res.mu_star == F(17, 29)
    assert res.direction == "above"
    assert res.diff_at_0 == F(-17, 50)
    assert res.diff_at_1 == F(6, 25)


@pytest.mark.parametrize(
    "case, boundary",
    [
        ("strong_feedback_showcase", F(17, 29)),
        ("acceptance_rate_inverted", F(1, 2)),
        ("worthless_feedback_box", F(3, 5)),
        ("weak_feedback_floor", F(1, 16)),
    ],
)
def test_threshold_catalog_boundaries(case, boundary):
    inst = BY_NAME[case].instance("1/2")
    res = prior_threshold_2box(inst.journals[0], inst.journals[1])
    assert res.kind == "threshold"
    assert res.mu_star == boundary
    assert res.direction == "above"
    # the certificate matches direct evaluation on either side
    eps = F(1, 1000)
    assert _gap(inst, boundary) == 0
    assert _gap(inst, boundary + eps) > 0
    assert _gap(inst, boundary - eps) < 0


def test_threshold_direction_below():
    # feedback favors the expensive slow box at low priors; its poor
    # cost-adjusted index loses at high priors, so the flip points down
    j1 = Journal("FB", 10, F(1, 10), F(1, 2), c=1)
    j2 = Journal("PAY", 1, 1, 0)
    res = prior_threshold_2box(j1, j2)
    assert res.kind == "threshold"
    assert res.mu_star == F(5, 6)
    assert res.direction == "below"
    assert res.diff_at_0 == F(1, 2) and res.diff_at_1 == F(-1, 10)
    inst = Instance((j1, j2), Belief(F(1, 2)))
    assert _gap(inst, F(5, 6) - F(1, 100)) > 0
    assert _gap(inst, F(5, 6) + F(1, 100)) < 0


def test_threshold_always_and_never():
    twin = Journal("T", 1, F(1, 2), F(1, 4))
    res = prior_threshold_2box(twin, twin)
    assert res.kind == "always" and res.degenerate

    slow = Journal("SLOW", 1, F(1, 5), 0, c=F(1, 10))
    fast = Journal("FAST", 1, F(1, 2), 0)
    res = prior_threshold_2box(slow, fast)
    assert res.kind == "never" and not res.degenerate
    assert res.mu_star is None


# ---------------------------------------------------------------------------
# grids and sweeps


def test_belief_grid_exact_endpoints():
    grid = belief_grid(0, 1, 5)
    assert grid == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    narrow = belief_grid("1/3", "2/3", 3)
    assert narrow == (F(1, 3), F(1, 2), F(2, 3))
    with pytest.raises(SolverError):
        belief_grid(0, 1, 1)


def test_belief_grid_refuses_more_points_than_its_cap():
    with pytest.raises(SolverError, match=f"at most {GRID_LIMIT} points"):
        belief_grid(0, 1, GRID_LIMIT + 1)


def test_payoff_sweep_single_flip(pair):
    table = payoff_sweep(pair, belief_grid(0, 1, 101))
    assert len(table.rows) == 101
    assert table.labels == ("J1>J2", "J2>J1")
    # the value difference changes sign once, at the threshold
    signs = [(v1 > v2) - (v1 < v2) for v1, v2 in (row["values"] for row in table.rows)]
    assert 0 not in signs
    assert sum(s != t for s, t in zip(signs, signs[1:])) == 1
    winners = [row["best"] for row in table.rows]
    assert winners[0] == "J2>J1" and winners[-1] == "J1>J2"


def test_payoff_sweep_tie_row_prefers_lexicographic(pair):
    table = payoff_sweep(pair, (F(17, 29), F(1, 2), F(7, 10)))
    assert table.rows[0]["tie"] is True
    assert table.rows[0]["best"] == "J1>J2"
    assert table.rows[1]["best"] == "J2>J1"
    assert table.rows[2]["best"] == "J1>J2"


def test_payoff_sweep_float_ties_match_exact(pair):
    # the float sweep's tie flag and best column follow the brute-force
    # tolerance rule, so they agree with exact arithmetic, also where every
    # order ties (identical journals) and at a crossing's exact prior
    grid = belief_grid(0, 1, 11)
    cases = [(sample_order_independent(rng, rng.randint(2, 4)), grid)
             for rng in map(random.Random, range(150))]
    cases += [(_identical(n), grid) for n in (2, 3, 4)]
    cases.append((pair, (F(0), F(17, 29), F(1, 2), F(1))))
    for k, (inst, points) in enumerate(cases):
        exact = payoff_sweep(inst, points)
        floats = payoff_sweep(inst, points, mode="float")
        for e, f in zip(exact.rows, floats.rows):
            assert (f["tie"], f["best"]) == (e["tie"], e["best"]), (k, e["mu"])
    assert [row["tie"] for row in exact.rows] == [False, True, False, False]


def test_payoff_sweep_csv_shape(pair):
    buf = io.StringIO()
    payoff_sweep(pair, (F(1, 2), F(7, 10))).write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "mu,value_J1>J2,value_J2>J1,best_order"
    assert lines[1] == "1/2,13/20,7/10,J2>J1"
    assert lines[2] == "7/10,443/500,41/50,J1>J2"


def test_payoff_sweep_best_only_path(pair):
    table = payoff_sweep(pair, (F(1, 2), F(7, 10)), best_only=True)
    assert table.labels == ("best",)
    assert [row["best"] for row in table.rows] == ["J2>J1", "J1>J2"]
    assert table.rows[0]["values"] == (F(7, 10),)


def test_sweep_paths_label_names_with_the_separator_alike(pair):
    # names may contain " > "; both paths join the names with ">" as they are
    named = Instance(tuple(Journal(name, j.u, j.a, j.q) for name, j in
                           zip(("A > B", "C"), pair.journals)), pair.prior)
    grid = belief_grid(0, 1, 5)
    every = payoff_sweep(named, grid)
    best = payoff_sweep(named, grid, best_only=True)
    assert [row["best"] for row in best.rows] == [row["best"] for row in every.rows]
    assert {row["best"] for row in best.rows} == {"A > B>C", "C>A > B"}


# ---------------------------------------------------------------------------
# invariances


def test_positive_scaling_preserves_argmax(pair):
    inst = pair.with_prior(F(17, 29))
    scaled = Instance(
        tuple(Journal(j.name, 7 * j.u, j.a, j.q, c=7 * j.c) for j in inst.journals),
        inst.prior,
        7 * inst.outside_option,
    )
    base = brute_force_optimal(inst)
    big = brute_force_optimal(scaled)
    assert big.best_value == 7 * base.best_value
    assert big.argmax_set == base.argmax_set


def test_monotone_order_helper(pair):
    assert monotone_order(pair).perm == (0, 1)


# ---------------------------------------------------------------------------
# exhaustive small scope

GRID_JOURNALS = [(u, a, q, c) for u in (0, 1, 2) for a in (0, F(1, 2), 1)
                 for q in (0, F(1, 4), F(1, 2)) for c in (0, F(1, 2))]


@pytest.mark.parametrize("size, step, expected", [
    (2, 1, {"instances": 4455, "commuting": 1755, "no_feedback": 513}),
    (3, 40, {"instances": 2079, "commuting": 324, "no_feedback": 117}),
], ids=["2", "3"])
def test_grid_instances_agree_across_routes(size, step, expected):
    """Multisets of `size` journals with u in {0, 1, 2}, a in {0, 1/2, 1},
    q in {0, 1/4, 1/2} and c in {0, 1/2}, at priors 0, 1/2 and 1, each
    route checked against model.evaluate over every order.  Two journals:
    every multiset, 4455 instances.  Three: every 40th of the 27 720
    multisets, 2079 instances.  prior_threshold_2box runs only on pairs,
    and the subset DP only where every pair of journals commutes.

    The index rule is checked only for an optimal value and an order in
    brute force's argmax set.  Its set lists only the orders that permute
    journals with equal keys u - c/a, so it misses other tied orders: 203
    of the 513 feedback-free pairs here (ROADMAP item 5)."""
    perms = tuple(itertools.permutations(range(size)))
    counts = {"instances": 0, "commuting": 0, "no_feedback": 0}
    multisets = itertools.combinations_with_replacement(GRID_JOURNALS, size)
    for rates in itertools.islice(multisets, 0, None, step):
        base = Instance(tuple(Journal(name, *r) for name, r in zip("ABC", rates)), Belief(0))
        # each order's values at priors 1 and 0; the prior does not move them
        lines = [tuple(evaluate(base.with_prior(end), SearchOrder(p)).total
                       for end in (1, 0)) for p in perms]
        if size == 2:
            th = prior_threshold_2box(*base.journals)
            assert (th.diff_at_1, th.diff_at_0) == tuple(
                v - w for v, w in zip(*lines)), dump_instance(base)
        for mu in (0, F(1, 2), 1):
            inst = base.with_prior(mu)
            case = dump_instance(inst)
            values = [evaluate(inst, SearchOrder(p)).total for p in perms]
            best = max(values)
            exact = brute_force_optimal(inst)
            assert exact.best_value == best, case
            assert exact.argmax_set == tuple(p for p, v in zip(perms, values)
                                             if v == best), case
            assert brute_force_optimal(inst, mode="float").argmax_set == exact.argmax_set, case

            kernel = _engine.prepare(inst)
            boxes, prior, outside = kernel
            for p, v, line in zip(perms, values, lines):
                assert _engine.order_value(boxes, p, prior, outside) == v, case
                assert _engine.order_line(kernel, p) == line, case
            assert pairwise_swap_local_search(inst).best_value <= best, case

            if all(a.a * b.q == b.a * a.q
                   for a, b in itertools.combinations(inst.journals, 2)):
                dp = subset_dp_optimal(inst)
                assert (dp.best_value, dp.argmax_set) == (best, exact.argmax_set), case
                counts["commuting"] += 1
            if all(j.q == 0 for j in inst.journals):
                ranked = index_order_no_feedback(inst)
                assert ranked.best_value == best, case
                assert ranked.best_order.perm in exact.argmax_set, case
                counts["no_feedback"] += 1
            counts["instances"] += 1
    assert counts == expected
