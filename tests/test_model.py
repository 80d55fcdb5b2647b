"""Model layer: exact belief updates, order evaluation, instance documents.

Frozen values below were computed by hand from the Bayes update
f(mu) = ((1-a-q)mu + q)/(1 - a mu) and the period recursion, then checked
against an independent linear-mass route (see test_linear_mass_route).
"""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jss import (
    Belief,
    Instance,
    InstanceFormatError,
    InvalidOrderError,
    Journal,
    ModelError,
    SearchOrder,
    brute_force_optimal,
    check_order,
    dump_instance,
    evaluate,
    example_pair,
    format_number,
    load_instance,
    monotone_order,
    normalize,
    parse_instance,
    parse_number,
    save_instance,
    update_belief,
)


@pytest.fixture
def pair():
    # J1 = (u 5, a 1/5, q 1/5), J2 = (u 1, a 3/10, q 2/5), prior 1/2
    return example_pair("1/2")


def test_star_import_binds_all_of_dunder_all():
    import jss

    namespace: dict = {}
    exec("from jss import *", namespace)
    assert set(jss.__all__) <= namespace.keys()
    assert len(set(jss.__all__)) == len(jss.__all__)


# ---------------------------------------------------------------------------
# numbers


def test_parse_number_forms():
    assert parse_number("17/29") == F(17, 29)
    assert parse_number("0.2") == F(1, 5)
    assert parse_number(0.2) == F(1, 5)  # via shortest repr, not the binary double
    assert parse_number(3) == F(3)
    assert parse_number(F(3, 7)) == F(3, 7)


@pytest.mark.parametrize("bad", [True, False, "abc", "1/0", None, [1],
                                 float("inf"), float("-inf"), float("nan")])
def test_parse_number_rejects(bad):
    with pytest.raises(ModelError):
        parse_number(bad)


def test_format_number_round_trips():
    for x in (F(17, 29), F(5), F(-3, 8), F(0)):
        assert parse_number(format_number(x)) == x


# ---------------------------------------------------------------------------
# journals and instances


def test_journal_validation():
    Journal("ok", -2, 1, 0)  # negative payoff is allowed (shifted scales)
    with pytest.raises(ModelError):
        Journal("bad", 1, F(11, 10), 0)
    with pytest.raises(ModelError):
        Journal("bad", 1, F(1, 2), 1)  # certain feedback excluded
    with pytest.raises(ModelError):
        Journal("bad", 1, F(1, 2), 0, c=-1)
    with pytest.raises(ModelError):
        Journal("bad", float("nan"), F(1, 2), 0)


def test_instance_sorts_by_payoff_stable():
    a = Journal("A", 1, F(1, 2), 0)
    b = Journal("B", 3, F(1, 2), 0)
    c = Journal("C", 1, F(1, 4), 0)
    inst = Instance((a, b, c), Belief(F(1, 2)))
    assert inst.journal_names() == ("B", "A", "C")  # ties keep input order
    assert monotone_order(inst).perm == (0, 1, 2)


def test_with_prior_keeps_everything_else(pair):
    moved = pair.with_prior("17/29")
    assert moved.prior.mu_h == F(17, 29)
    assert moved.journals == pair.journals
    assert moved.outside_option == pair.outside_option


def test_check_order_rejections(pair):
    with pytest.raises(InvalidOrderError):
        check_order(pair, SearchOrder((0,)))
    with pytest.raises(InvalidOrderError):
        check_order(pair, SearchOrder((0, 0)))
    with pytest.raises(InvalidOrderError):
        check_order(pair, SearchOrder((0, 2)))


# ---------------------------------------------------------------------------
# belief update


def test_update_belief_frozen_values(pair):
    j1, j2 = pair.journals
    half = Belief(F(1, 2))
    assert update_belief(j1, half).mu_h == F(5, 9)
    assert update_belief(j2, half).mu_h == F(11, 17)


def test_update_belief_certain_acceptance_convention():
    j = Journal("sure", 1, 1, 0)
    assert update_belief(j, Belief(F(1))).mu_h == 1
    jf = update_belief(j, Belief(1.0))
    assert isinstance(jf.mu_h, F) and jf.mu_h == 1


def test_belief_parses_floats_like_journal_fields(pair):
    # 0.3 means 3/10, as in Journal fields and with_prior, not the binary double
    assert Belief(0.3) == Belief("3/10") == Belief(F(3, 10))
    floated = brute_force_optimal(Instance(pair.journals, Belief(0.3)))
    assert floated.best_value == brute_force_optimal(pair.with_prior(0.3)).best_value
    assert floated.best_value == F(29, 50)


def test_update_belief_no_signal_is_identity():
    j = Journal("null", 1, 0, 0)
    for mu in (F(0), F(1, 3), F(1)):
        assert update_belief(j, Belief(mu)).mu_h == mu


small_fraction = st.fractions(min_value=0, max_value=1, max_denominator=60)


@given(
    a=small_fraction,
    q=st.fractions(min_value=0, max_value=F(59, 60), max_denominator=60),
    mu=small_fraction,
)
def test_update_belief_stays_in_unit_interval(a, q, mu):
    post = update_belief(Journal("j", 1, a, q), Belief(mu)).mu_h
    assert 0 <= post <= 1


@given(
    a=small_fraction,
    q=st.fractions(min_value=0, max_value=F(59, 60), max_denominator=60),
    lo=small_fraction,
    hi=small_fraction,
)
def test_update_belief_monotone_in_prior(a, q, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    j = Journal("j", 1, a, q)
    assert update_belief(j, Belief(lo)).mu_h <= update_belief(j, Belief(hi)).mu_h


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_full_trace(pair):
    tr = evaluate(pair, SearchOrder((0, 1)))
    assert tr.beliefs == (F(1, 2), F(5, 9), F(17, 25))
    assert tr.reach == (F(1), F(9, 10), F(3, 4))
    assert tr.accept_mass == (F(1, 10), F(3, 20))
    assert tr.period_values == (F(1, 2), F(3, 20))
    assert tr.outside_value == 0
    assert tr.total == F(13, 20)
    assert tr.probability_residual() == 0


def test_evaluate_swapped_order(pair):
    assert evaluate(pair, SearchOrder((1, 0))).total == F(7, 10)


def test_evaluate_indifference_point(pair):
    at = pair.with_prior(F(17, 29))
    v1 = evaluate(at, SearchOrder((0, 1))).total
    v2 = evaluate(at, SearchOrder((1, 0))).total
    assert v1 == v2 == F(109, 145)


def test_evaluate_float_mode_tracks_exact(pair):
    tr_e = evaluate(pair, SearchOrder((1, 0)))
    tr_f = evaluate(pair, SearchOrder((1, 0)), mode="float")
    assert tr_f.total == pytest.approx(float(tr_e.total), abs=1e-12)
    assert abs(tr_f.probability_residual()) < 1e-12
    assert isinstance(tr_f.total, float)


def test_evaluate_rejects_bad_mode(pair):
    with pytest.raises(ModelError):
        evaluate(pair, SearchOrder((0, 1)), mode="fast")


def test_outside_option_enters_through_final_reach():
    j = Journal("J", 2, F(1, 2), 0)
    inst = Instance((j,), Belief(F(1, 2)), outside_option=F(4))
    tr = evaluate(inst, SearchOrder((0,)))
    assert tr.reach == (F(1), F(3, 4))
    assert tr.outside_value == F(3)
    assert tr.total == F(1, 2) + F(3)


def test_linear_mass_route(pair):
    """Independent route to the same trace.

    Carry unnormalized masses (h, l) = P(reach & high), P(reach & low);
    a rejection maps them linearly: h' = (1-a)h + q*l, l' = (1-q)l.
    Reach is h+l and the belief is h/(h+l).  Must agree with evaluate()
    at every period.
    """
    for prior in (F(1, 2), F(17, 29), F(0), F(1)):
        inst = pair.with_prior(prior)
        for perm in ((0, 1), (1, 0)):
            tr = evaluate(inst, SearchOrder(perm))
            h, l = prior, 1 - prior
            for t, idx in enumerate(perm):
                assert tr.reach[t] == h + l
                if h + l:
                    assert tr.beliefs[t] == h / (h + l)
                j = inst.journals[idx]
                assert tr.accept_mass[t] == j.a * h
                h, l = (1 - j.a) * h + j.q * l, (1 - j.q) * l
            assert tr.reach[-1] == h + l


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=5),
    mu=small_fraction,
)
def test_probability_residual_always_zero(data, n, mu):
    js = tuple(
        Journal(
            f"J{i}",
            data.draw(st.integers(0, 8)),
            data.draw(small_fraction),
            data.draw(st.fractions(min_value=0, max_value=F(59, 60), max_denominator=60)),
        )
        for i in range(n)
    )
    inst = Instance(js, Belief(mu))
    perm = tuple(data.draw(st.permutations(range(n))))
    assert evaluate(inst, SearchOrder(perm)).probability_residual() == 0


def test_normalize_shifts_values_exactly(pair):
    for shift in (F(-3), F(1), F(10)):
        shifted = normalize(pair, shift)
        assert shifted.outside_option == pair.outside_option - shift
        for perm in ((0, 1), (1, 0)):
            assert (
                evaluate(shifted, SearchOrder(perm)).total
                == evaluate(pair, SearchOrder(perm)).total - shift
            )


# ---------------------------------------------------------------------------
# documents


def test_document_round_trip(tmp_path, pair):
    path = tmp_path / "pair.json"
    save_instance(pair, path)
    again = load_instance(path)
    assert again == pair
    assert dump_instance(again) == dump_instance(pair)


def test_load_instance_accepts_inline_json(pair):
    import json

    text = json.dumps(dump_instance(pair))
    assert load_instance(text) == pair


def test_load_instance_refuses_a_parsed_document(pair):
    # parse_instance is the entry point for a dict
    with pytest.raises(InstanceFormatError, match="cannot load instance from dict"):
        load_instance(dump_instance(pair))


def test_parse_instance_defaults():
    inst = parse_instance(
        {"journals": [{"u": 2, "a": "1/2"}, {"u": 1, "a": "1/4"}], "prior_h": "1/3"}
    )
    assert inst.journal_names() == ("J1", "J2")
    assert all(j.q == 0 and j.c == 0 for j in inst.journals)
    assert inst.outside_option == 0


@pytest.mark.parametrize(
    "doc",
    [
        {"prior_h": "1/2"},
        {"journals": [], "prior_h": "1/2"},
        {"journals": [{"u": 1, "a": "1/2", "zz": 0}], "prior_h": "1/2"},
        {"journals": [{"a": "1/2"}], "prior_h": "1/2"},
        {"journals": [{"u": 1, "a": "3/2"}], "prior_h": "1/2"},
        {"journals": [{"u": 1, "a": "1/2"}], "prior_h": "5/4"},
        [],
    ],
)
def test_parse_instance_rejects_malformed(doc):
    with pytest.raises(InstanceFormatError):
        parse_instance(doc)


def test_json_numbers_parse_exactly():
    inst = load_instance(
        '{"journals": [{"u": 5, "a": 0.2, "q": 0.2}], "prior_h": 0.5}'
    )
    assert inst.journals[0].a == F(1, 5)  # 0.2 reads as 1/5, not the double
    assert inst.prior.mu_h == F(1, 2)
