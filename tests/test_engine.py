"""The (H, L) mass kernel against the Bayes-form reference model.evaluate.

Random instances up to five journals cover sure acceptance (a = 1), no
feedback (q = 0), priors 0 and 1, negative payoffs, costs and a nonzero
outside option.  Every order's kernel value must equal evaluate()'s
exactly (within 1e-12 in float mode), and both walkers must return
evaluate()'s maximisers.
"""
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jss import Belief, Instance, Journal, SearchOrder, evaluate
from jss import _engine

FLOAT_RTOL = 1e-12


def _fractions(lo, hi, den=12):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=den)


unit = st.one_of(st.sampled_from([F(0), F(1)]), _fractions(0, 1))
journal = st.builds(
    Journal,
    name=st.just("J"),
    u=_fractions(-3, 10),
    a=unit,
    q=st.one_of(st.just(F(0)), _fractions(0, F(11, 12))),
    c=st.one_of(st.just(F(0)), _fractions(0, 2)),
)
instances = st.builds(
    lambda js, prior, outside: Instance(
        tuple(Journal(f"J{k}", j.u, j.a, j.q, j.c) for k, j in enumerate(js)),
        Belief(prior), outside),
    st.lists(journal, min_size=1, max_size=5),
    unit,
    st.one_of(st.just(F(0)), _fractions(-3, 3)),
)


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


@settings(max_examples=120, deadline=None)
@given(inst=instances)
def test_walkers_return_the_maximisers_of_evaluate(inst):
    values = _values(inst)
    best = max(values.values())
    maximisers = sorted(p for p, v in values.items() if v == best)
    assert _engine.best_orders(inst) == (best, maximisers)

    fbest, fargmax = _engine.best_orders_float(inst)
    assert fbest == pytest.approx(float(best), rel=FLOAT_RTOL, abs=FLOAT_RTOL)
    # float ties may only admit orders whose exact value is within the
    # tolerance of the best; every exact maximiser must be among them
    assert set(maximisers) <= set(fargmax)
    slack = 2 * FLOAT_RTOL * max(1, abs(best))
    assert all(values[p] >= best - slack for p in fargmax)

