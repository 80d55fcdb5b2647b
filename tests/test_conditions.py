"""Structural checks: regularity variants, commuting belief updates,
reachable-belief floors, and the good-news region of a single rejection."""
from fractions import Fraction as F

import pytest

from jss import (
    Belief,
    ConditionError,
    Instance,
    Journal,
    check_globally_bounded_weak_feedback,
    check_order_independence,
    check_regularity,
    check_strong_feedback,
    example_pair,
    feedback_threshold,
)
from jss.catalog import BY_NAME


# ---------------------------------------------------------------------------
# regularity


def test_regularity_showcase_pair_fails_on_feedback_rates():
    rep = check_regularity(example_pair("1/2"))
    assert not rep.passed
    assert rep.margin == F(-1, 5)  # q rises 1/5 -> 2/5 down the list
    assert rep.witnesses[0]["field"] == "q"
    assert rep.details["regular"] is False


def test_regularity_floor_pair_all_variants():
    inst = BY_NAME["weak_feedback_floor"].instance("1/2")
    rep = check_regularity(inst)
    assert rep.passed
    # payoffs 2 > 1 exactly double: weakly exponential, not strictly
    assert rep.details == {
        "regular": True,
        "strict_regular": True,
        "exponential_regular": True,
        "strict_exponential_regular": False,
    }
    assert check_regularity(inst, strict=True).passed
    assert check_regularity(inst, exponential=True).passed
    assert not check_regularity(inst, strict=True, exponential=True).passed


def test_regularity_strict_exponential_chain():
    js = (
        Journal("A", 9, F(1, 5), F(1, 2)),
        Journal("B", 4, F(1, 2), F(1, 4)),
        Journal("C", 1, F(3, 5), F(1, 8)),
    )
    inst = Instance(js, Belief(F(1, 2)))
    rep = check_regularity(inst, strict=True, exponential=True)
    assert rep.passed
    assert rep.margin == F(1, 10)  # a-slack between B and C binds
    assert rep.witnesses == ()


def test_regularity_tied_payoffs_pass_weak_fail_strict():
    js = (Journal("A", 2, F(1, 4), F(1, 4)), Journal("B", 2, F(1, 2), F(1, 8)))
    inst = Instance(js, Belief(F(1, 2)))
    assert check_regularity(inst).passed
    strict = check_regularity(inst, strict=True)
    assert not strict.passed
    assert strict.witnesses[0]["field"] == "u"


# ---------------------------------------------------------------------------
# order independence


def test_order_independence_showcase_deviation():
    rep = check_order_independence(example_pair("1/2"))
    assert not rep.passed
    assert rep.margin == F(1, 50)
    w = rep.witnesses[0]
    assert w["a_i*q_j"] == F(2, 25) and w["a_j*q_i"] == F(3, 50)


def test_order_independence_shared_ratio_passes():
    # q = a/2 for every journal: all pairwise products match
    js = (
        Journal("A", 6, F(2, 5), F(1, 5), c=F(1, 25)),
        Journal("B", 3, F(1, 2), F(1, 4)),
        Journal("C", 2, F(1, 5), F(1, 10), c=F(1, 50)),
        Journal("D", 1, F(4, 5), F(2, 5)),
    )
    rep = check_order_independence(Instance(js, Belief(F(3, 5))))
    assert rep.passed and rep.margin == 0
    assert all(d["deviation"] == 0 for d in rep.details["deviations"])
    assert rep.details["small_costs"] is True
    assert rep.details["index_keys"]["A"] == F(59, 10)


def test_order_independence_large_cost_breaks_small_cost_flag():
    js = (Journal("A", 6, F(2, 5), 0, c=2), Journal("B", 3, F(1, 2), 0))
    rep = check_order_independence(Instance(js, Belief(F(1, 2))))
    assert rep.passed  # no feedback commutes trivially
    assert rep.details["small_costs"] is False  # 6 - 5 = 1 < 3 flips the ranking


def test_order_independence_dead_journal_cost_flag():
    dead_free = Journal("DEAD", 5, 0, 0)
    dead_costly = Journal("DEAD", 5, 0, 0, c=F(1, 10))
    payer = Journal("PAY", 1, F(1, 2), 0)
    assert check_order_independence(
        Instance((dead_free, payer), Belief(F(1, 2)))
    ).details["small_costs"] is True
    assert check_order_independence(
        Instance((dead_costly, payer), Belief(F(1, 2)))
    ).details["small_costs"] is False


# ---------------------------------------------------------------------------
# reachable-belief floors


def test_feedback_threshold_values():
    assert feedback_threshold(Journal("x", 1, F(3, 10), F(2, 5))) == F(4, 7)
    assert feedback_threshold(Journal("x", 1, F(1, 2), 0)) == 0
    assert feedback_threshold(Journal("x", 1, 0, F(1, 2))) == 1


def test_floor_case_diagnostics_at_high_prior():
    inst = BY_NAME["weak_feedback_floor"].instance("9/10")
    rep = check_globally_bounded_weak_feedback(inst)
    assert rep.passed
    assert rep.details["thresholds"] == {"J1": F(3, 8), "J2": F(1, 4)}
    # the tightest point is one rejection at the low box
    assert rep.details["min_belief"] == F(19, 23)
    assert rep.details["min_belief_prefix"] == ("J2",)
    assert rep.details["floor_at_min"] == F(3, 8)
    assert rep.margin == F(19, 23) - F(3, 8)


def test_floor_case_fails_at_low_prior():
    inst = BY_NAME["weak_feedback_floor"].instance("1/20")
    rep = check_globally_bounded_weak_feedback(inst)
    assert not rep.passed
    assert rep.margin == F(1, 20) - F(3, 8)
    assert rep.witnesses[0]["prefix"] == ()
    assert rep.witnesses[0]["belief"] == F(1, 20)


def test_showcase_pair_separates_box1_from_global_floor():
    inst = example_pair("1/2")  # J2's threshold 4/7 exceeds the prior
    assert check_globally_bounded_weak_feedback(inst, policy="box1").passed
    rep = check_globally_bounded_weak_feedback(inst)
    assert not rep.passed
    assert rep.margin == F(1, 2) - F(4, 7)


def test_per_remaining_policy_forgives_spent_feedback_box():
    # the steep screener D drags the belief to 159/4159 only after the
    # feedback box F is already used, so no remaining journal minds
    js = (
        Journal("F", 4, F(99, 100), F(3, 5)),
        Journal("D", 2, F(99, 100), 0),
        Journal("X", 1, F(1, 5), 0),
    )
    inst = Instance(js, Belief(F(99, 100)))
    for policy in ("box1", "max_over_journals"):
        rep = check_globally_bounded_weak_feedback(inst, policy=policy)
        assert not rep.passed
        assert rep.margin == F(159, 4159) - F(20, 53)
    rep = check_globally_bounded_weak_feedback(inst, policy="per_remaining")
    assert rep.passed
    assert rep.margin == F(159, 4159)
    assert rep.details["min_belief_prefix"] == ("F", "D")
    assert rep.details["floor_at_min"] == 0


def test_floor_check_reads_zero_mass_as_belief_one():
    # a sure acceptance at prior 1 leaves nothing to reach; the state
    # behind it keeps belief 1, as every later rejection would
    js = (Journal("SURE", 2, 1, 0), Journal("B", 1, F(1, 2), F(1, 4)))
    rep = check_globally_bounded_weak_feedback(Instance(js, Belief(F(1))))
    assert rep.passed
    assert rep.margin == 1 - F(1, 3)
    assert rep.details["min_belief"] == 1


def test_floor_check_guards():
    inst = example_pair("1/2")
    with pytest.raises(ConditionError):
        check_globally_bounded_weak_feedback(inst, policy="strictest")
    many = Instance(
        tuple(Journal(f"J{i}", 9 - i, F(1, 2), F(1, 10)) for i in range(9)),
        Belief(F(1, 2)),
    )
    with pytest.raises(ConditionError):
        check_globally_bounded_weak_feedback(many)


# ---------------------------------------------------------------------------
# strong feedback (single rejection is good news)


def test_strong_feedback_low_box_at_half():
    j2 = example_pair("1/2").journals[1]
    rep = check_strong_feedback(j2, Belief(F(1, 2)))
    assert rep.passed
    assert rep.margin == F(11, 17) - F(1, 2)
    assert rep.details["boundary"] == 1  # q/a = 4/3 caps at 1


def test_strong_feedback_fails_beyond_boundary():
    j = Journal("S", 1, F(1, 2), F(1, 4))  # boundary q/a = 1/2
    assert check_strong_feedback(j, Belief(F(1, 2))).passed
    rep = check_strong_feedback(j, Belief(F(3, 4)))
    assert not rep.passed
    assert rep.margin < 0
    assert rep.witnesses[0]["journal"] == "S"
    assert rep.details["boundary"] == F(1, 2)


def test_strong_feedback_no_feedback_box():
    j = Journal("Q0", 1, F(1, 2), 0)
    assert not check_strong_feedback(j, Belief(F(1, 2))).passed
    assert check_strong_feedback(j, Belief(F(0))).passed  # endpoints are fixed
    assert check_strong_feedback(j, Belief(F(1))).passed
    assert check_strong_feedback(j, Belief(F(1, 2))).details["boundary"] == 0


def test_strong_feedback_pure_feedback_box():
    j = Journal("A0", 1, 0, F(1, 3))
    for mu in (F(0), F(1, 2), F(1)):
        rep = check_strong_feedback(j, Belief(mu))
        assert rep.passed
        assert rep.details["boundary"] == 1
