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
from jss._engine import FLOAT_TIE_TOL
from jss.catalog import BY_NAME
from jss.model import Orders
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
    assert [o.perm for o in res.argmax_set] == [(0, 1), (1, 0)]


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
    assert set(o.perm for o in res.argmax_set) == {
        p for p, v in by_hand.items() if v == best
    }


def test_brute_force_cap():
    js = tuple(Journal(f"J{i}", 20 - i, F(1, 2), 0) for i in range(11))
    with pytest.raises(SolverError):
        brute_force_optimal(Instance(js, Belief(F(1, 2))))


def _identical(n, a=F(1, 3), q=F(1, 5)):
    return Instance(tuple(Journal(f"J{k}", 2, a, q, F(1, 10)) for k in range(n)),
                    Belief(F(1, 2)))


def test_brute_force_thread_count_does_not_change_answer(pair):
    # the second instance has classes of interchangeable journals: the
    # split walks one slice per class and expands the merged argmax once
    mixed = Instance(_identical(3).journals + (Journal("K", 2, F(1, 2), F(1, 7)),)
                     + tuple(Journal(f"L{k}", 1, F(1, 4), 0) for k in range(2)),
                     Belief(F(3, 5)))
    for inst in (pair.with_prior(F(17, 29)), mixed):
        for mode in ("exact", "float"):
            solo = brute_force_optimal(inst, mode=mode, threads=1)
            split = brute_force_optimal(inst, mode=mode, threads=2)
            assert solo.best_value == split.best_value
            assert [o.perm for o in solo.argmax_set] == [o.perm for o in split.argmax_set]


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
        assert [o.perm for o in res.argmax_set] == list(itertools.permutations(range(8)))
        assert res.best_order.perm == tuple(range(8))


def test_every_solver_lists_every_order_of_identical_journals():
    # with q = 0 the journals are feedback-free and order-independent, so
    # brute force, the subset DP and the index rule all apply
    inst = _identical(8, q=0)
    every = tuple(itertools.permutations(range(8)))
    for res in (brute_force_optimal(inst), subset_dp_optimal(inst),
                subset_dp_optimal(inst, mode="float"), index_order_no_feedback(inst)):
        assert res.argmax_set.perms == every
        assert res.best_order.perm == every[0]


def test_argmax_orders_behave_like_a_tuple_of_orders():
    perms = [(0, 2, 1), (1, 0, 2), (1, 2, 0)]
    orders = brute_force_optimal(_identical(3)).argmax_set[1:4]
    plain = tuple(SearchOrder(p) for p in perms)
    assert orders == plain and plain == orders
    lazy = Orders(perms)
    assert lazy == plain and plain == lazy and lazy == Orders(perms)
    assert lazy != plain[:2] and lazy != list(plain)
    assert hash(lazy) == hash(plain)
    assert len(lazy) == 3 and list(lazy) == list(plain)
    assert lazy[-1] == plain[-1] and lazy[1:] == plain[1:]
    assert SearchOrder((1, 0, 2)) in lazy and SearchOrder((0, 1, 2)) not in lazy


def test_argmax_set_over_the_limit_fails_fast():
    with pytest.raises(SolverError, match="362880"):
        brute_force_optimal(_identical(10))


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
        assert res.best_order in brute.argmax_set


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
    assert res.best_order in brute.argmax_set


def test_index_rule_tie_expansion():
    twin1 = Journal("T1", 2, F(1, 2), 0)
    twin2 = Journal("T2", 2, F(1, 2), 0)
    other = Journal("O", 5, F(1, 3), 0)
    inst = Instance((twin1, twin2, other), Belief(F(2, 3)))
    res = index_order_no_feedback(inst)
    brute = brute_force_optimal(inst)
    assert res.best_value == brute.best_value
    assert sorted(o.perm for o in res.argmax_set) == sorted(
        o.perm for o in brute.argmax_set
    )
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
    assert res.argmax_set.perms == (
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
    assert sorted(o.perm for o in dp.argmax_set) == sorted(
        o.perm for o in brute.argmax_set
    )


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
    assert sorted(o.perm for o in dp.argmax_set) == sorted(
        o.perm for o in brute.argmax_set
    )
    assert {o.perm for o in dp.argmax_set} == {(0, 1, 2, 3), (0, 1, 3, 2)}


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
    table = payoff_sweep(pair, (F(1, 2), F(7, 10)), per_order=False)
    assert table.labels == ("best",)
    assert [row["best"] for row in table.rows] == ["J2>J1", "J1>J2"]
    assert table.rows[0]["values"] == (F(7, 10),)


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
    assert [o.perm for o in big.argmax_set] == [o.perm for o in base.argmax_set]


def test_monotone_order_helper(pair):
    assert monotone_order(pair).perm == (0, 1)
